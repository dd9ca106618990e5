"""Shared timing and JSON-report helpers for the ``bench_*`` emitters.

Every standalone benchmark used to carry its own copy of the best-of-N
timing loop, the exactness comparator and the report writer; they now
share this module.  :func:`write_report` additionally embeds a snapshot
of the process metrics registry (:mod:`repro.obs.registry`) under the
``"telemetry"`` key, so each ``BENCH_*.json`` records the session /
store / backend counters that produced its numbers.

Importable both as a script sibling (``python benchmarks/bench_x.py``
puts this directory on ``sys.path``) and under pytest (the
``benchmarks/`` conftest does the same).
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path


def best_of(repeats: int, fn, *args) -> float:
    """Minimum wall time of ``fn(*args)`` over ``repeats`` runs.

    Garbage left by earlier work is collected before the first run, so
    a full collection it would trigger is not billed to whichever arm
    happens to be timed next (at one repeat, that decides comparisons).
    """
    gc.collect()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def best_of_each(fn, argsets) -> float:
    """Minimum wall time of ``fn(*args)`` over ``argsets``, one run each.

    Used where every repeat needs its own inputs — e.g. a re-parsed copy
    of a query batch, so that no repeat is a session batch-memo replay.
    Collects earlier garbage before the first run, like :func:`best_of`.
    """
    gc.collect()
    best = float("inf")
    for args in argsets:
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def reparsed(queries: list) -> list:
    """Equal queries as fresh objects — a batch-memo miss by design."""
    from repro.tp import parse_pattern

    return [parse_pattern(q.xpath()) for q in queries]


def max_abs_error(exact: list, got: list) -> float:
    """Worst ``|got - exact|`` over aligned lists of answer dicts."""
    worst = 0.0
    for d_exact, d_got in zip(exact, got):
        for node_id in set(d_exact) | set(d_got):
            error = abs(
                float(d_got.get(node_id, 0.0))
                - float(d_exact.get(node_id, 0))
            )
            worst = max(worst, error)
    return worst


def telemetry_snapshot() -> dict:
    """Flat ``{metric{labels}: value}`` view of the process registry."""
    from repro.obs import get_registry

    return get_registry().snapshot()


def write_report(path: Path, report: dict) -> None:
    """Attach the telemetry snapshot and write ``report`` as JSON."""
    report.setdefault("telemetry", telemetry_snapshot())
    Path(path).write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )
