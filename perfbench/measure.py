"""Timed loop, span and registry attribution, and summary statistics.

One client drives one workload in a closed loop: each operation starts
only after the previous one finished.  Every operation is timed around
the public call in wall-clock time (``perf_counter``) and in the
process's CPU time (``process_time``).

The end-to-end metrics are CPU seconds *at the reference speed*.  On a
shared host the speed of a core drifts by tens of percent over seconds
to minutes, for the program and for anything else alike.  So a fixed
pure-Python job that never touches the program (:func:`reference_work`)
runs right before and right after every timed operation, and the
operation's CPU time is scaled by :data:`REFERENCE_SECONDS` over the
mean of those two readings: the time the operation would have taken at
the speed at which the reference job takes :data:`REFERENCE_SECONDS`.
A change of the program moves that figure in full; a change of the
machine's speed mostly cancels.  The report prints the plain wall-clock
and CPU figures beside it.

The benchmark's own sub-timers (:class:`Laps`) split an operation at
public-call boundaries, in wall-clock time like the program's spans.  In
a traced phase each operation also runs inside
:class:`repro.obs.capture`, so the spans the program already emits split
the inside of a single call, and the process metrics registry is read
before and after it, so every counter is a delta attributed to that
operation alone.
"""

from __future__ import annotations

import gc
import os
import pickle
import random
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Optional

from repro.obs import capture, get_registry, get_tracer

#: A tail percentile is only reported with this many samples beyond it.
TAIL_BEYOND = 10

#: Fewest query operations of a traced run (it reports no tail).
TRACED_MIN_QUERIES = TAIL_BEYOND + 1

#: CPU seconds :func:`reference_work` takes at the reference speed, to
#: which reported times are scaled: a round figure at the fastest
#: readings seen on the 2-vCPU Xeon virtual machine this benchmark was
#: built on (16 to 47 ms over a busy hour).  It sets the scale of every
#: reported time, and changing it would break comparison with earlier
#: runs.
REFERENCE_SECONDS = 0.016


class Laps:
    """Named sub-timers of one operation (seconds, summed per name)."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}

    @contextmanager
    def __call__(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.seconds[name] = self.seconds.get(name, 0.0) + elapsed


@dataclass
class Op:
    """What a workload operation returns: its kind and its answers.

    ``kind`` is ``"query"`` (a batch, or a churn query step) or
    ``"write"`` (a churn edit plus ``mark_mutated``).  ``answers`` holds
    one ``{node_id: probability}`` dict per query of the batch.
    """

    kind: str
    texts: list = field(default_factory=list)
    answers: list = field(default_factory=list)


@dataclass
class Record:
    """One timed operation of a phase.

    ``answers`` is dropped once the next operation is recorded, so memory
    does not grow with the number of operations a run makes;
    ``answered`` keeps their count.
    """

    kind: str
    latency: float  # wall-clock seconds
    cpu: float  # process CPU seconds
    answers: Optional[list]
    answered: int
    laps: dict
    scaled: float = 0.0  # CPU seconds at the reference speed (untraced)
    ok: Optional[bool] = None  # None: not checked (churn off-sample steps)
    error: str = ""
    spans: dict = field(default_factory=dict)  # name -> [count, total, self]
    span_attrs: dict = field(default_factory=dict)  # "name.attr" -> sum
    counters: dict = field(default_factory=dict)  # registry deltas
    texts: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.ok is False


# ----------------------------------------------------------------------
# Registry deltas
# ----------------------------------------------------------------------
def registry_counters() -> dict:
    """Numeric readings of the process registry, flattened by name."""
    return {
        name: value
        for name, value in get_registry().snapshot().items()
        if isinstance(value, (int, float))
    }


def counter_delta(before: dict, after: dict) -> dict:
    """``after - before`` for every numeric reading that moved."""
    delta = {}
    for name, value in after.items():
        moved = value - before.get(name, 0)
        if moved:
            delta[name] = moved
    return delta


def layer_counts(delta: dict) -> dict:
    """Fold raw registry deltas into the benchmark's per-layer counts.

    Store counters are summed over store kinds (``memory`` and
    ``sqlite``); session counters over every live and retired session,
    which includes the per-extension sessions of rewriting plans.
    """
    counts: dict = {}
    for name, value in delta.items():
        base = name.split("{", 1)[0]
        if base.startswith("repro_session_") and base.endswith("_total"):
            key = "session." + base[len("repro_session_"):-len("_total")]
        elif base.startswith("repro_store_") and base.endswith("_total"):
            key = "store." + base[len("repro_store_"):-len("_total")]
        elif base == "repro_cache_answers_total":
            key = "cache." + name.split("source=", 1)[1].rstrip("}")
        else:
            continue
        counts[key] = counts.get(key, 0) + value
    return counts


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def summarize_spans(roots) -> tuple[dict, dict]:
    """Per span name ``[count, total_s, self_s]`` plus summed numeric attrs.

    A span's self time is its duration minus the durations of its direct
    children.
    """
    times: dict = {}
    attrs: dict = {}
    stack = list(roots)
    while stack:
        span = stack.pop()
        covered = sum(child.duration for child in span.children)
        entry = times.setdefault(span.name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += span.duration
        entry[2] += span.duration - covered
        for key, value in span.attrs.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                slot = f"{span.name}.{key}"
                attrs[slot] = attrs.get(slot, 0) + value
        stack.extend(span.children)
    return times, attrs


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
def timed_op(workload, index: int, traced: bool) -> Record:
    """Make one operation and return its :class:`Record`, answers unchecked.

    Untimed work before it: a full garbage collection, so no operation
    pays for the previous one's cycles.  A raising operation is recorded
    as failed, never fatal.
    """
    gc.collect()
    laps = Laps()
    before = registry_counters() if traced else None
    error = ""
    op = None
    window = capture() if traced else nullcontext()
    with window:
        start = time.perf_counter()
        start_cpu = time.process_time()
        try:
            op = workload.op(index, laps)
        except Exception as exc:  # counted as a failed operation
            error = f"{type(exc).__name__}: {exc}"
        cpu = time.process_time() - start_cpu
        latency = time.perf_counter() - start
    record = Record(
        kind=op.kind if op is not None else workload.kind,
        latency=latency,
        cpu=cpu,
        answers=op.answers if op is not None else [],
        answered=len(op.answers) if op is not None else 0,
        laps=laps.seconds,
        texts=op.texts if op is not None else [],
        error=error,
    )
    if error:
        record.ok = False
    if traced:
        record.spans, record.span_attrs = summarize_spans(window.spans)
        record.counters = layer_counts(
            counter_delta(before, registry_counters())
        )
        if op is not None:
            workload.after_op(op, laps)
    return record


def _check(workload, record: Record, final: bool) -> None:
    if record.kind == "query" and record.ok is None:
        record.ok = workload.check(
            Op(record.kind, record.texts, record.answers), final=final
        )


def _done(workload, elapsed: float, queries: int, seconds: float,
          min_queries: int) -> bool:
    """Enough time, enough query samples, and the workload at a point
    where it may stop."""
    return elapsed >= seconds and queries >= min_queries and workload.may_stop()


def _append(records: list, record: Record) -> None:
    if records:
        records[-1].answers = None  # checked, or never to be checked
    records.append(record)


def run_phase(workload, seconds: float) -> list[Record]:
    """Untraced operations back to back for ``seconds`` of wall-clock time
    (checks and collections between operations included), and on until
    the workload's tail percentile has :data:`TAIL_BEYOND` samples beyond
    it.

    Every query operation's answers are checked right after it, outside
    its timing (a workload may check only a sample, plus the last one).
    """
    min_queries = tail_samples(workload.TAIL_PERCENTILE)
    records: list[Record] = []
    start = time.perf_counter()
    queries = 0
    before = reference_seconds()
    while not _done(workload, time.perf_counter() - start, queries, seconds,
                    min_queries):
        record = timed_op(workload, len(records), traced=False)
        after = reference_seconds()
        record.scaled = at_reference_speed(record.cpu, before, after)
        before = after
        _check(workload, record, final=False)
        queries += record.kind == "query"
        _append(records, record)
    _check(workload, records[-1], final=True)
    return records


def run_pair(plain, traced, seconds: float) -> tuple[list, list]:
    """Two identically set-up clients, operations interleaved.

    Operation ``i`` runs untraced on ``plain``, then traced on
    ``traced``.  Both see the same operation sequence, so a traced
    operation counts as failed unless its answers equal the untraced
    ones exactly.  Drift in the machine's speed hits both sides alike,
    so the ratio of their latencies is the tracing overhead.
    """
    # Capture windows index into the tracer's ring of finished roots;
    # a view-cache batch finishes hundreds of them.
    get_tracer().max_roots = max(get_tracer().max_roots, 1 << 20)
    plain_records: list[Record] = []
    traced_records: list[Record] = []
    busy = 0.0
    queries = 0
    while not _done(plain, busy, queries, seconds, TRACED_MIN_QUERIES):
        index = len(plain_records)
        record = timed_op(plain, index, traced=False)
        _check(plain, record, final=False)
        replay = timed_op(traced, index, traced=True)
        replay.ok = (
            not replay.error
            and replay.kind == record.kind
            and replay.answers == record.answers
        )
        _append(plain_records, record)
        _append(traced_records, replay)
        busy += record.latency
        queries += record.kind == "query"
    _check(plain, plain_records[-1], final=True)
    return plain_records, traced_records


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _rank(percentile: int, count: int) -> int:
    """1-based nearest rank of ``percentile`` among ``count`` samples."""
    return max(1, -(-percentile * count // 100))


def tail_samples(percentile: int) -> int:
    """Fewest samples that leave :data:`TAIL_BEYOND` beyond ``percentile``."""
    count = TAIL_BEYOND + 1
    while count - _rank(percentile, count) < TAIL_BEYOND:
        count += 1
    return count


def tail(values, percentile: int) -> tuple[float, int]:
    """Nearest-rank ``percentile`` of ``values``, and how many lie beyond it.

    The percentile is fixed per workload, so two runs are compared at the
    same point of their distributions whatever their sample counts.
    """
    ordered = sorted(values)
    if not ordered:
        return 0.0, 0
    rank = _rank(percentile, len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def quarter_medians(values) -> tuple[float, float]:
    """Medians of the first and the last quarter of a series, in order."""
    values = list(values)
    quarter = max(1, len(values) // 4)
    return median(values[:quarter]), median(values[-quarter:])


def reference_work() -> int:
    """A fixed pure-Python job shaped like the program's own work.

    It builds a random tree of 6000 labelled nodes from a fixed seed and
    runs a bottom-up pass that merges per-label probability tables into
    dicts, keyed by sorted label tuples: allocation, dict and float
    work over a working set of a few MiB, as in the program's DP.  It
    never imports the program, so its time is the machine's speed alone.
    """
    rng = random.Random(20121)
    size = 6000
    children = [[] for _ in range(size)]
    for node in range(1, size):
        children[rng.randrange(node)].append(node)
    labels = [f"label{rng.randrange(40)}" for _ in range(size)]
    weights = [rng.random() for _ in range(size)]
    tables: list = [None] * size
    shapes: dict = {}
    for node in range(size - 1, -1, -1):  # children before parents
        table = {labels[node]: weights[node]}
        for child in children[node]:
            for label, value in tables[child].items():
                miss = 1.0 - table.get(label, 0.0)
                table[label] = 1.0 - miss * (1.0 - value * weights[node])
            tables[child] = None
        shape = tuple(sorted(table))
        shapes[shape] = shapes.get(shape, 0) + 1
        tables[node] = table
    return len(shapes)


def reference_seconds() -> float:
    """CPU time of one run of :func:`reference_work`.

    The garbage collector is off meanwhile, so that the size of the
    program's heap does not enter the reading.
    """
    gc.disable()
    try:
        start = time.process_time()
        reference_work()
        return time.process_time() - start
    finally:
        gc.enable()


def at_reference_speed(cpu: float, before: float, after: float) -> float:
    """``cpu`` seconds measured between two reference readings, scaled to
    :data:`REFERENCE_SECONDS`."""
    return cpu * REFERENCE_SECONDS * 2.0 / (before + after)


def in_child(function, *args):
    """``function(*args)``, computed in a forked child process.

    The store-free oracle runs there, so its memory never counts toward
    this process's ``peak_rss_mb``.  The result comes back pickled; the
    child has exited when this returns.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                payload = pickle.dumps((True, function(*args)))
            except Exception as exc:
                payload = pickle.dumps((False, f"{type(exc).__name__}: {exc}"))
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status or not payload:
        raise RuntimeError(f"oracle child exited with status {status}")
    ok, value = pickle.loads(payload)
    if not ok:
        raise RuntimeError(f"oracle failed: {value}")
    return value


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    import resource

    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
