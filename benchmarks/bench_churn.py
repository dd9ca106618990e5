"""Churn benchmark: spine-only maintenance vs whole-document invalidation.

Two arms replay the *identical* mixed read/write stream
(``workloads/synthetic.churn_workload`` with a skewed hot-subtree
mutation distribution) against one long-lived ``QuerySession``:

* ``baseline`` — every mutation calls ``mutate(full=True)``
  (``mark_all_mutated()``): the pre-spine behaviour, dropping every
  cached index and memoized batch plan, so the first batch after each
  write rebuilds them all from scratch;
* ``spine``    — every mutation calls ``mutate()``
  (``mark_mutated(node)``): O(depth) splicing keeps untouched sibling
  subtrees warm, and probability-only writes keep the maximal world —
  the session's batch-memo plans (engines, candidate sets, keyers)
  survive outright and only their answers are recomputed.

Both arms are seeded identically and replayed the same number of times,
so their documents drift in lockstep and their answers must agree —
exactly on the ``exact`` backend, within ``1e-9`` on ``fast``.  The
stream repeats the same query objects, so a query step that follows
another without a write in between is a batch-memo replay on both
arms.

Run standalone to emit the machine-readable comparison::

    PYTHONPATH=src python benchmarks/bench_churn.py           # full sizes
    PYTHONPATH=src python benchmarks/bench_churn.py --quick   # CI smoke

which writes ``BENCH_churn.json`` at the repository root.  The full run
asserts the ISSUE-7 acceptance bar: warm mutate-then-query ≥ 5× over
full invalidation at 64 persons on ``fast``, spine answers ≡
full-invalidation answers, and session/store counters showing memo
entries and plans (``survived_plans`` on ``fast``) actually survived the
writes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import pytest

from common import best_of as _best_of, write_report

from repro.prob import QuerySession, query_answer
from repro.store import InMemoryStore
from repro.workloads.synthetic import churn_workload

SIZES = [8, 16]
FULL_SIZES = [8, 16, 32, 64]
PROJECTS = 4
ROUNDS = 14
WRITE_RATIO = 0.6
HOT_FRACTION = 0.25
SKEW = 0.9
BUMP_SHARE = 0.15
TOLERANCE = 1e-9
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_churn.json"


def _workload(persons: int):
    return churn_workload(
        persons,
        projects=PROJECTS,
        rounds=ROUNDS,
        seed=persons,
        write_ratio=WRITE_RATIO,
        hot_fraction=HOT_FRACTION,
        skew=SKEW,
        bump_share=BUMP_SHARE,
    )


def replay(steps, session, full: bool = False):
    """One pass over the churn stream: mutate-then-query, interleaved."""
    answers = None
    for kind, payload in steps:
        if kind == "mutate":
            payload(full=full)
        else:
            answers = session.answer_many(payload)
    return answers


def _queries(steps):
    return next(payload for kind, payload in steps if kind == "queries")


def _check_current(p, session, queries, tolerance=None):
    """Session answers over the drifted document ≡ fresh evaluation."""
    got = session.answer_many(queries)
    expected = [query_answer(p, q) for q in queries]
    if tolerance is None:
        assert got == expected
        return 0.0
    worst = 0.0
    for d_got, d_exact in zip(got, expected):
        for node_id in set(d_got) | set(d_exact):
            worst = max(
                worst,
                abs(
                    float(d_got.get(node_id, 0.0))
                    - float(d_exact.get(node_id, 0))
                ),
            )
    assert worst < tolerance
    return worst


# ----------------------------------------------------------------------
# pytest-benchmark harness
# ----------------------------------------------------------------------
@pytest.mark.paper("§6 cost model — churn, full-invalidation baseline")
@pytest.mark.parametrize("persons", SIZES)
def test_churn_baseline_full_invalidation(benchmark, report, persons):
    p, steps = _workload(persons)
    session = QuerySession(p)
    replay(steps, session, full=True)  # warm outside the timer
    benchmark(replay, steps, session, True)
    _check_current(p, session, _queries(steps))
    assert session.stats.spine_refreshes == 0
    report.append(
        f"churn persons={persons}: every write drops all cached state"
    )


@pytest.mark.paper("§6 cost model — churn, spine-only maintenance")
@pytest.mark.parametrize("persons", SIZES)
def test_churn_spine_only(benchmark, report, persons):
    p, steps = _workload(persons)
    session = QuerySession(p)
    replay(steps, session)
    benchmark(replay, steps, session, False)
    _check_current(p, session, _queries(steps))
    assert session.stats.spine_refreshes > 0
    assert session.stats.invalidations == 0
    report.append(
        f"churn persons={persons}: O(depth) splices keep siblings warm"
    )


# ----------------------------------------------------------------------
# Standalone JSON emitter
# ----------------------------------------------------------------------
def _arm(persons: int, backend: str, full: bool, repeats: int):
    """Warm a session on the stream, then time ``repeats`` replays."""
    p, steps = _workload(persons)
    store = InMemoryStore() if backend == "exact" else None
    session = QuerySession(p, backend=backend, store=store)
    replay(steps, session, full)
    elapsed = _best_of(repeats, replay, steps, session, full)
    return p, session, steps, elapsed


def run(sizes: list[int], repeats: int = 3, backends=("exact", "fast")):
    results = []
    for persons in sizes:
        row = {"persons": persons, "backends": {}}
        for backend in backends:
            tolerance = None if backend == "exact" else TOLERANCE
            p_base, s_base, steps, base_s = _arm(
                persons, backend, True, repeats
            )
            p_spine, s_spine, _, spine_s = _arm(
                persons, backend, False, repeats
            )
            queries = _queries(steps)
            # identically-seeded arms drift identically: answers agree
            error = _check_current(p_base, s_base, queries, tolerance)
            error = max(
                error, _check_current(p_spine, s_spine, queries, tolerance)
            )
            base_answers = s_base.answer_many(queries)
            spine_answers = s_spine.answer_many(queries)
            if tolerance is None:
                assert base_answers == spine_answers
            column = {
                "baseline_full_invalidation_s": base_s,
                "spine_only_s": spine_s,
                "speedup_spine_vs_baseline": base_s / spine_s,
                "max_abs_error_vs_exact": error,
                "spine_refreshes": s_spine.stats.spine_refreshes,
                "invalidations_spine_arm": s_spine.stats.invalidations,
                "invalidations_baseline_arm": s_base.stats.invalidations,
                "survived_plans": s_spine.stats.survived_plans,
            }
            if s_spine.store is not None:
                stats = s_spine.store.stats()
                column["store_spine_recomputes"] = stats["spine_recomputes"]
                column["store_survived_entries"] = stats["survived_entries"]
            row["backends"][backend] = column
            row["pdocument_size"] = p_spine.size()
        results.append(row)
    mutations = sum(
        1 for kind, _ in _workload(sizes[-1])[1] if kind == "mutate"
    )
    return {
        "benchmark": "bench_churn",
        "workload": "workloads/synthetic churn_workload "
        f"(mixed stream, rounds={ROUNDS}, write_ratio={WRITE_RATIO}, "
        f"hot_fraction={HOT_FRACTION}, skew={SKEW}, "
        f"bump_share={BUMP_SHARE}; "
        f"{mutations} writes at the largest size)",
        "strategies": ["baseline_full_invalidation", "spine_only"],
        "backends": list(backends),
        "repeats": repeats,
        "results": results,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small sizes / single repeat (CI smoke pass)",
    )
    parser.add_argument(
        "--output", type=Path, default=OUTPUT,
        help=f"where to write the JSON report (default: {OUTPUT})",
    )
    args = parser.parse_args(argv)
    sizes = SIZES if args.quick else FULL_SIZES
    report = run(sizes, repeats=1 if args.quick else 3)
    write_report(args.output, report)
    largest = report["results"][-1]
    print(f"wrote {args.output}")
    for backend, column in largest["backends"].items():
        print(
            f"persons={largest['persons']} {backend}: "
            f"spine vs full invalidation "
            f"×{column['speedup_spine_vs_baseline']:.1f} "
            f"({column['spine_refreshes']} spine refreshes, "
            f"max error {column['max_abs_error_vs_exact']:.2e})"
        )
    fast = largest["backends"]["fast"]
    if fast["speedup_spine_vs_baseline"] <= 1.0:
        print("FAIL: spine-only not faster than full invalidation",
              file=sys.stderr)
        return 1
    if fast["survived_plans"] <= 0:
        print("FAIL: no batch-memo plans survived the churn stream",
              file=sys.stderr)
        return 1
    if not args.quick:
        if fast["speedup_spine_vs_baseline"] < 5.0:
            print("FAIL: spine-only speedup below the 5x acceptance bar",
                  file=sys.stderr)
            return 1
        if any(
            column["max_abs_error_vs_exact"] > TOLERANCE
            for column in largest["backends"].values()
        ):
            print("FAIL: churn answers outside the 1e-9 exactness bar",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
