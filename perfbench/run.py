#!/usr/bin/env python3
"""The repository's benchmark: three workloads, end to end and per layer.

Run one workload, from the repository root::

    python3 perfbench/run.py --workload disk-restart --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that yields the per-layer
metrics.  ``BENCHMARK.json`` at the repository root names both, with
their units; ``perfbench/spec.py`` gives each one's target.
``--workload all`` runs every workload in both modes, each in its own
process.  The last line of standard output is a JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines above it
are the readable report.

The program is imported from ``src/`` next to this directory; nothing is
installed.  One process, one client, closed loop.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# The program under test, from source.
sys.path.insert(0, str(ROOT / "src"))
try:
    import repro  # noqa: F401
except ImportError as exc:
    sys.exit(f"perfbench: cannot import the repro package from {ROOT / 'src'}: {exc}")

import spec
from measure import (
    REFERENCE_SECONDS,
    Laps,
    counter_delta,
    layer_counts,
    median,
    peak_rss_mb,
    quarter_medians,
    at_reference_speed,
    reference_seconds,
    registry_counters,
    run_pair,
    run_phase,
    tail,
)
from workloads import PERSONS, WORKLOADS

WORKLOAD_NAMES = tuple(WORKLOADS)

#: Metric names and units, per section, as ``BENCHMARK.json`` declares them.
UNITS = {
    section: {metric["name"]: metric["unit"] for metric in metrics}
    for section, metrics in json.loads(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8")
    ).items()
    if section in ("end_to_end", "per_layer")
}

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=WORKLOAD_NAMES + ("all",)
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run_workload(
            args.workload, args.seed, args.seconds, args.trace, workdir
        )
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def run_workload(name, seed, seconds, trace, workdir):
    cls = WORKLOADS[name]
    print(f"workload {name} (seed {seed}): {cls.describes}")
    if trace == 0:
        setup_times = []
        workload = None
        for _ in range(SETUP_REPEATS):
            if workload is not None:
                workload.finish()
                workload = None
            gc.collect()
            workload = cls(seed, workdir)
            before = reference_seconds()
            start = time.process_time()
            workload.setup(Laps())
            cpu = time.process_time() - start
            setup_times.append(
                at_reference_speed(cpu, before, reference_seconds())
            )
        setup_rss = peak_rss_mb()
        workload.compute_references()
        before = registry_counters()
        records = run_phase(workload, seconds=seconds)
        region = counter_delta(before, registry_counters())
        workload.finish()
        metrics = end_to_end(records, setup_times, workload)
        print(f"peak RSS at the end of set-up {setup_rss:.6g} MiB")
        attempted = len(records)
        failed = sum(r.failed for r in records)
        units = UNITS["end_to_end"]
    else:
        plain = cls(seed, _subdir(workdir, "plain"))
        plain.setup(Laps())
        plain.compute_references()
        workload = cls(seed, _subdir(workdir, "traced"))
        workload.setup(Laps())
        workload.compute_references(shared=plain.references)
        before = registry_counters()
        untraced, traced = run_pair(plain, workload, seconds / 2)
        region = counter_delta(before, registry_counters())
        plain.finish()
        mismatches = sum(r.failed for r in traced)
        workload.comparators()
        workload.finish()
        metrics = per_layer(untraced, traced, workload)
        print(
            f"traced run: {len(traced)} operations interleaved with the "
            f"untraced ones, {len(traced) - mismatches} with identical answers"
        )
        attempted = len(untraced) + len(traced) + workload.extra_ops[0]
        failed = (
            sum(r.failed for r in untraced) + mismatches + workload.extra_ops[1]
        )
        units = UNITS["per_layer"]
    missing = units.keys() - metrics.keys()
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    print(
        f"operations: {attempted} attempted, {failed} failed, "
        f"failed_op_share {failed / attempted:.6g}"
    )
    print_region(region)
    _print_metrics(metrics, units, trace)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": value, "unit": units[key]}
            for key, value in metrics.items()
        },
    }


def end_to_end(records, setup_times, workload):
    """The untraced metrics, in CPU seconds at the reference speed; prints
    the report lines that qualify them, with the plain wall-clock and CPU
    figures beside."""
    queries = [r for r in records if r.kind == "query" and not r.failed]
    latencies = [r.scaled for r in queries]
    answered = sum(r.answered for r in queries)
    percentile = workload.TAIL_PERCENTILE
    value, beyond = tail(latencies, percentile)
    metrics = {
        "qps": answered / sum(r.scaled for r in records),
        "latency_p50_s": median(latencies),
        "latency_tail_s": value,
        "setup_s": median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
    }
    first, last = quarter_medians(latencies)
    print(
        f"latency_tail_s is the nearest-rank p{percentile} of "
        f"{len(latencies)} query operations, {beyond} beyond it; "
        f"first-quarter median {first:.6g} s, last-quarter {last:.6g} s"
    )
    reference = median(r.cpu / r.scaled for r in queries) * REFERENCE_SECONDS
    print(
        f"reference job: median {reference * 1000:.4g} ms CPU next to the "
        f"query operations, {REFERENCE_SECONDS * 1000:.4g} ms at the "
        f"reference speed (the machine ran at {REFERENCE_SECONDS / reference:.3g}"
        "x the reference speed)"
    )
    for label, get in (("wall-clock", "latency"), ("plain CPU", "cpu")):
        plain = [getattr(r, get) for r in queries]
        print(
            f"{label}: qps "
            f"{answered / sum(getattr(r, get) for r in records):.6g}, "
            f"latency_p50_s {median(plain):.6g} s, "
            f"p{percentile} {tail(plain, percentile)[0]:.6g} s"
        )
    print("setup_s samples: " + ", ".join(f"{s:.4g}" for s in setup_times))
    writes = [r for r in records if r.kind == "write" and not r.failed]
    if writes:
        print(
            f"write_p50_s {median(r.scaled for r in writes):.6g} s, "
            f"{median(r.latency for r in writes):.6g} s wall-clock, "
            f"over {len(writes)} writes"
        )
    if "store.bytes_per_entry" in workload.figures:
        print(
            "store_bytes_per_entry "
            f"{workload.figures['store.bytes_per_entry']:.6g} B"
        )
    if workload.name == "view-cache":
        print("view-cache operations are store replay (warm plans)")
    return metrics


def per_layer(untraced, traced, workload):
    """The traced run's per-layer metrics (see ``spec.TARGETS``)."""
    queries = [r for r in traced if r.kind == "query" and not r.failed]
    writes = [r for r in traced if r.kind == "write" and not r.failed]
    figures = workload.figures

    def med(records, get):
        return median(get(r) for r in records)

    def lap(name):
        return lambda r: r.laps.get(name, 0.0)

    def span(name, column=2):  # column 1: total, 2: self
        return lambda r: r.spans.get(name, (0, 0.0, 0.0))[column]

    def mean(get):
        """Counts are means per query operation: churn's are sparse events."""
        values = [get(r) for r in queries]
        return sum(values) / len(values) if values else 0.0

    def count(name):
        return mean(lambda r: r.counters.get(name, 0))

    def timer(name):
        """A run-level figure if the workload took one, else a lap median."""
        return figures[name] if name in figures else med(queries, lap(name))

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    traced_p50 = med(queries, lambda r: r.latency)
    untraced_p50 = median(
        r.latency for r in untraced if r.kind == "query" and not r.failed
    )
    m = {
        "pxml.parse_s": med(queries, lap("pxml.parse_s")),
        "pxml.digest_index_s": med(
            queries,
            lambda r: span("pdocument.digest_index", 1)(r)
            + r.laps.get("pxml.anchor_index_s", 0.0),
        ),
        "pxml.spine_splice_s": med(writes, span("pdocument.spine_splice", 1)),
        "pxml.write_p50_s": median(
            r.cpu for r in untraced if r.kind == "write" and not r.failed
        ),
        "tp.parse_s": med(queries, lap("tp.parse_s")),
        "tp.candidates_s": med(queries, span("session.candidates")),
        "tp.candidates_share": med(
            queries, lambda r: ratio(span("session.candidates")(r), r.latency)
        ),
        "prob.traversal_s": med(queries, span("session.traversal")),
        # Only query steps that follow a write refresh the session.
        "prob.refresh_s": med(
            [r for r in queries if "session.refresh" in r.spans],
            span("session.refresh", 1),
        ),
    }
    for field in (
        "node_visits", "memo_hits", "memo_misses", "neutral_skips",
        "subtree_skips", "spine_refreshes", "survived_local",
    ):
        m[f"prob.{field}"] = count(f"session.{field}")
    m["prob.cold_latency_s"] = figures.get("prob.cold_latency_s", 0.0)
    m["prob.cold_traversal_s"] = figures.get("prob.cold_traversal_s", 0.0)
    m["store.open_s"] = timer("store.open_s")
    m["store.close_s"] = timer("store.close_s")
    m["store.prefetch_s"] = med(queries, span("store.bulk_prefetch", 1))
    for field in ("hits", "misses", "puts"):
        m[f"store.{field}"] = count(f"store.{field}")
    m["store.hit_ratio"] = ratio(
        m["store.hits"], m["store.hits"] + m["store.misses"]
    )
    m["store.prefetch_keys"] = mean(
        lambda r: r.span_attrs.get("store.bulk_prefetch.probe_keys", 0)
    )
    m["store.sql_statements"] = count("store.sqlite_statements")
    m["store.flushes"] = count("store.flushes")
    m["store.survived_entries"] = count("store.survived_entries")
    m["store.bytes_per_entry"] = figures.get("store.bytes_per_entry", 0.0)
    m["store.perkey_latency_s"] = figures.get("store.perkey_latency_s", 0.0)
    m["store.perkey_sql_statements"] = figures.get(
        "store.perkey_sql_statements", 0
    )
    m["views.extension_build_s"] = figures.get("views.extension_build_s", 0.0)
    m["rewrite.first_pass_s"] = figures.get("rewrite.first_pass_s", 0.0)
    m["rewrite.decide_s"] = med(queries, lap("rewrite.decide_s"))
    m["rewrite.plan_s"] = med(queries, span("rewrite.plan", 1))
    m["rewrite.t1_numerators_s"] = med(queries, span("rewrite.t1.numerators", 1))
    m["rewrite.t1_denominators_s"] = med(
        queries, span("rewrite.t1.denominators", 1)
    )
    m["rewrite.t2_alpha_s"] = med(queries, span("rewrite.t2.alpha", 1))
    m["rewrite.source_single"] = count("cache.single_view")
    m["rewrite.source_multi"] = count("cache.multi_view")
    m["rewrite.source_direct"] = count("cache.direct")
    m["rewrite.direct_equiv_s"] = figures.get("rewrite.direct_equiv_s", 0.0)
    m["rewrite.tpi_product_s"] = figures.get("rewrite.tpi_product_s", 0.0)
    m["obs.trace_overhead"] = ratio(traced_p50, untraced_p50) - 1.0
    for name in (
        "finding.cold_candidates_share",
        "finding.restart_over_cold",
        "finding.restart_traversal_over_cold",
        "finding.bulk_over_perkey",
    ):
        m[name] = figures.get(name, 0.0)
    print(
        f"traced p50 {traced_p50:.6g} s vs untraced p50 {untraced_p50:.6g} s "
        f"over {len(queries)} query operations"
    )
    print_span_split(queries)
    if workload.name == "view-cache":
        print_section7(workload)
    return m


# ----------------------------------------------------------------------
# Readable report
# ----------------------------------------------------------------------
def print_span_split(queries) -> None:
    """Median self time per span name over the traced query operations."""
    names = sorted({name for r in queries for name in r.spans})
    if not names:
        return
    print("span self time per query operation (median, traced):")
    for name in names:
        values = [r.spans.get(name, (0, 0.0, 0.0))[2] for r in queries]
        calls = [r.spans.get(name, (0, 0.0, 0.0))[0] for r in queries]
        print(
            f"  {name:28s} {median(values):10.6f} s  "
            f"({median(calls):g} spans)"
        )


def print_section7(workload) -> None:
    """The paper's §7 comparison, each figure with its base."""
    figures = workload.figures
    warm = figures["rewrite.warm_replay_s"]
    direct = figures["rewrite.direct_equiv_s"]
    build = figures["views.extension_build_s"]
    first = figures["rewrite.first_pass_s"]
    rows = [
        ("views.extension_build_s", build,
         f"materializing {len(workload.VIEWS)} views over {PERSONS} persons"),
        ("rewrite.first_pass_s", first,
         f"{len(workload.pool)} pool queries once, cold plans"),
        ("warm plan evaluation", warm,
         "20-query batch on the warm cache: STORE REPLAY, not plan cost"),
        ("rewrite.direct_equiv_s", direct,
         "the same batch in a fresh base-document session, interleaved"),
        ("rewrite.tpi_product_s", figures["rewrite.tpi_product_s"],
         "tpi_rewrite over personnel_views + evaluate(), 1 query; its "
         f"extensions took {figures['views.tpi_extension_build_s']:.4g} s"),
    ]
    print("§7 report (view-cache, fast backend):")
    for label, value, base in rows:
        print(f"  {label:26s} {value:10.6f} s  base: {base}")
    if direct:
        print(
            f"  warm replay / direct = {warm / direct:.4g}; "
            f"(extension build + first pass) / direct = "
            f"{(build + first) / direct:.4g}"
        )


def print_region(region: dict) -> None:
    counts = layer_counts(region)
    if counts:
        print(
            "registry deltas over the measured phase: "
            + ", ".join(f"{k}={v:g}" for k, v in sorted(counts.items()))
        )


def _print_metrics(metrics: dict, units: dict, trace: int) -> None:
    print("metrics (" + (
        "per layer, traced" if trace
        else "end to end, times in CPU seconds at the reference speed"
    ) + "):")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.6g} {units[name]:6s} {spec.TARGETS[name]}")


def _subdir(workdir: Path, name: str) -> Path:
    path = workdir / name
    path.mkdir(exist_ok=True)
    return path


# ----------------------------------------------------------------------
# Every workload, each in its own process
# ----------------------------------------------------------------------
def run_all(args) -> int:
    correct = True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            completed = subprocess.run(command, capture_output=True, text=True)
            sys.stdout.write(completed.stdout)
            sys.stderr.write(completed.stderr)
            lines = completed.stdout.strip().splitlines()
            if completed.returncode != 0 or not lines:
                print(f"{name} --trace {trace}: exit {completed.returncode}")
                correct = False
                continue
            correct = correct and json.loads(lines[-1])["correct"]
            print()
    print("all workloads correct" if correct else "SOME WORKLOADS FAILED")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
