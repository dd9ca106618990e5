"""The three workloads: ``disk-restart``, ``churn``, ``view-cache``.

All three run over one document family, ``batch_workload`` at 512
persons (about 1.7x10^4 p-document nodes), generated from the run's
seed.  A cold in-memory batch (:class:`ColdBatch`) is not a workload of
its own: the traced runs of ``disk-restart`` and ``view-cache`` time it
as their comparator.  Queries are re-parsed from XPath text by every
operation, as a server receiving them would.  Each workload object is
one client: its :meth:`Workload.op` performs the next operation of a
closed loop.

Reference answers come from a store-free ``exact`` session
(``QuerySession(p, backend="exact", memoize=False)``), computed outside
every timed region, in a forked child process so that the oracle's
memory is not the workload's.  ``exact`` workloads must match them bit for bit,
``fast`` ones within :data:`TOLERANCE`.
"""

from __future__ import annotations

import os
import random
import time
from fractions import Fraction
from pathlib import Path
from typing import Optional

from repro.cache import RewritingCache
from repro.prob.session import QuerySession
from repro.pxml.pdocument import PNodeKind
from repro.pxml.serialize import pdocument_from_text, pdocument_to_text
from repro.rewrite.multi_view import tpi_rewrite
from repro.store import SqliteStore
from repro.tp.parser import parse_pattern
from repro.views.extension import probabilistic_extension
from repro.views.view import View
from repro.workloads.synthetic import batch_workload, personnel_views

from measure import Laps, Op, in_child, median, timed_op

PERSONS = 512
PROJECTS = 8
TOLERANCE = 1e-9

#: Interleaved rounds of the comparators measured in the traced run.
COMPARATOR_ROUNDS = 5


def personnel_texts() -> list[str]:
    """The per-project personnel queries (one per project)."""
    return [
        f"IT-personnel//person[name/Rick]/bonus[project{j}]"
        for j in range(PROJECTS)
    ]


def day_texts(rng: random.Random, count: int) -> list[str]:
    """``count`` profile queries on distinct days drawn from ``rng``."""
    days = sorted(rng.sample(range(1, 29), count))
    return [f"IT-personnel//person[profile/entry/day{d}]/name" for d in days]


def parse_all(texts) -> list:
    return [parse_pattern(text) for text in texts]


def reference_answers(p, texts) -> list[dict]:
    """Store-free ``exact`` answers: the oracle every workload is checked by."""
    return in_child(_store_free_answers, p, texts)


def _store_free_answers(p, texts) -> list[dict]:
    return QuerySession(p, backend="exact", memoize=False).answer_many(
        parse_all(texts)
    )


def answers_match(got: list, want: list, exact: bool) -> bool:
    """Bit-for-bit (``exact``) or within :data:`TOLERANCE` (``fast``)."""
    if len(got) != len(want):
        return False
    if exact:
        return got == want
    for answer, expected in zip(got, want):
        for node_id in answer.keys() | expected.keys():
            error = abs(
                float(answer.get(node_id, 0)) - float(expected.get(node_id, 0))
            )
            if not error <= TOLERANCE:
                return False
    return True


class Workload:
    """One workload client; see the module docstring.

    Subclasses implement :meth:`setup` (everything before the first
    timed operation, itself timed as ``setup_s``), :meth:`op`, and the
    reference answers they are checked against.
    """

    name = ""
    exact = False
    #: What the timed operations are, for the report.
    describes = ""
    #: ``latency_tail_s`` is this nearest-rank percentile of the query
    #: operations' latencies; a run makes enough of them to leave ten
    #: beyond it (40 for p75).
    TAIL_PERCENTILE = 75

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.references: dict[str, dict] = {}
        #: Run-level per-layer figures (set-up phases, comparators, close).
        self.figures: dict[str, float] = {}
        #: Operations made outside the timed loop (comparators), as
        #: ``[attempted, failed]``.
        self.extra_ops = [0, 0]
        #: Kind of the operation in progress, recorded if it raises.
        self.kind = "query"

    # -- lifecycle ------------------------------------------------------
    def setup(self, laps: Laps) -> None:
        raise NotImplementedError

    def query_texts(self) -> list[str]:
        """Every query text whose reference answer the checks need."""
        return self.texts

    def compute_references(self, shared: Optional[dict] = None) -> None:
        if shared is not None:
            self.references = shared
            return
        texts = self.query_texts()
        self.references = dict(zip(texts, reference_answers(self.p, texts)))

    def finish(self) -> None:
        """Release files and stores; record run-level figures."""

    # -- the closed loop -------------------------------------------------
    def op(self, index: int, laps: Laps) -> Op:
        raise NotImplementedError

    def may_stop(self) -> bool:
        return True

    def after_op(self, op: Op, laps: Laps) -> None:
        """Traced runs only: untimed per-layer probes after an operation."""

    def check(self, op: Op, final: bool) -> Optional[bool]:
        want = [self.references[text] for text in op.texts]
        return answers_match(op.answers, want, self.exact)

    def comparators(self) -> None:
        """Traced runs only: comparator measurements into ``figures``."""

    # -- helpers ---------------------------------------------------------
    def _count_extra(self, ok: bool) -> None:
        self.extra_ops[0] += 1
        if not ok:
            self.extra_ops[1] += 1

    def _rounds(self, clients, traced: bool) -> list:
        """:data:`COMPARATOR_ROUNDS` rounds of one timed operation per
        client, interleaved so that drift in the machine's speed hits every
        client alike; each answer is checked against this workload's
        references.  Returns one list of records per client."""
        runs = [[] for _ in clients]
        for _ in range(COMPARATOR_ROUNDS):
            for client, records in zip(clients, runs):
                record = timed_op(client, 0, traced)
                if not record.error:
                    record.ok = self.check(
                        Op(record.kind, record.texts, record.answers),
                        final=True,
                    )
                self._count_extra(record.ok)
                records.append(record)
        return runs


class ColdBatch(Workload):
    """Comparator client over the caller's document: a fresh ``fast``
    session per 16-query batch, every distribution from scratch."""

    name = "cold-batch"

    def __init__(self, seed: int, workdir: Path, p) -> None:
        super().__init__(seed, workdir)
        self.p = p
        self.texts = personnel_texts() + day_texts(random.Random(seed), 8)

    def op(self, index: int, laps: Laps) -> Op:
        with laps("tp.parse_s"):
            queries = parse_all(self.texts)
        answers = QuerySession(self.p, backend="fast").answer_many(queries)
        return Op("query", self.texts, answers)


class DiskRestart(Workload):
    """What ``repro eval --store`` does, over a store warmed in set-up."""

    name = "disk-restart"
    describes = (
        "warm-from-disk: parse + SqliteStore open + fresh session "
        "over a warm file, per 16-query batch"
    )

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.texts = personnel_texts() + day_texts(random.Random(seed), 8)
        self.doc_path = workdir / f"{self.name}.pxml"
        self.db_path = workdir / f"{self.name}.db"
        self.last_doc = None
        #: ``QuerySession(bulk_store=...)``: the store's own choice, or
        #: forced off by the per-key comparator.
        self.bulk_store = None

    def setup(self, laps: Laps) -> None:
        self.p, _ = batch_workload(PERSONS, projects=PROJECTS, seed=self.seed)
        self.doc_path.write_text(pdocument_to_text(self.p), encoding="utf-8")
        _remove(self.db_path)
        store = SqliteStore(self.db_path)
        try:
            QuerySession(self.p, backend="fast", store=store).answer_many(
                parse_all(self.texts)
            )
        finally:
            store.close()
        self.op(-1, laps)

    def op(self, index: int, laps: Laps) -> Op:
        with laps("pxml.parse_s"):
            p = pdocument_from_text(self.doc_path.read_text(encoding="utf-8"))
        with laps("store.open_s"):
            store = SqliteStore(self.db_path)
        try:
            with laps("tp.parse_s"):
                queries = parse_all(self.texts)
            session = QuerySession(
                p, backend="fast", store=store, bulk_store=self.bulk_store
            )
            answers = session.answer_many(queries)
        finally:
            with laps("store.close_s"):
                store.close()
        self.last_doc = p
        return Op("query", self.texts, answers)

    def after_op(self, op: Op, laps: Laps) -> None:
        # The structural index is built (and spanned) inside the session;
        # the anchor index is not needed by this path, so it is timed
        # here, outside the operation.
        with laps("pxml.anchor_index_s"):
            self.last_doc.anchor_index()

    def comparators(self) -> None:
        """The restart against a cold in-memory batch and against per-key
        store probing, interleaved and traced."""
        cold = ColdBatch(self.seed, self.workdir, self.p)  # indexes warm
        perkey = DiskRestart(self.seed, self.workdir)  # same files
        perkey.bulk_store = False
        restart, cold_runs, perkey_runs = self._rounds(
            [self, cold, perkey], traced=True
        )

        def latency(records):
            return median(r.latency for r in records)

        def traversal(records):
            return median(
                r.spans.get("session.traversal", (0, 0.0, 0.0))[2]
                for r in records
            )

        self.figures.update({
            "finding.cold_candidates_share": median(
                r.spans.get("session.candidates", (0, 0.0, 0.0))[2] / r.latency
                for r in cold_runs
            ),
            "prob.cold_latency_s": latency(cold_runs),
            "prob.cold_traversal_s": traversal(cold_runs),
            "store.perkey_latency_s": latency(perkey_runs),
            "store.perkey_sql_statements": median(
                r.counters.get("store.sqlite_statements", 0)
                for r in perkey_runs
            ),
            "finding.restart_over_cold": latency(restart) / latency(cold_runs),
            "finding.restart_traversal_over_cold": (
                traversal(restart) / traversal(cold_runs)
            ),
            "finding.bulk_over_perkey": latency(restart) / latency(perkey_runs),
        })

    def finish(self) -> None:
        store = SqliteStore(self.db_path, preload=False)
        entries = len(store)
        store.close()
        if entries:
            self.figures["store.bytes_per_entry"] = (
                os.path.getsize(self.db_path) / entries
            )
        _remove(self.db_path)
        _remove(self.doc_path)


class Churn(Workload):
    """One long-lived ``exact`` session over a SQLite store, half writes."""

    name = "churn"
    exact = True
    describes = (
        "mutate-then-query: long-lived exact session over SQLite, "
        "writes skewed to a hot set alternating with 8-query steps"
    )
    HOT_FRACTION = 0.25
    SKEW = 0.9
    #: New probabilities come from this fixed set, so exact Fraction
    #: sizes (and with them latency) stay stationary over a run.
    PROBABILITIES = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    #: Every this-many-th query step is checked (plus the last one).
    CHECK_EVERY = 4

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.texts = personnel_texts()
        self.db_path = workdir / f"{self.name}.db"
        self.query_steps = 0

    def compute_references(self, shared: Optional[dict] = None) -> None:
        # The document changes under the session: every checked step is
        # compared with a store-free evaluation of the document as it is.
        pass

    def setup(self, laps: Laps) -> None:
        self.p, _ = batch_workload(PERSONS, projects=PROJECTS, seed=self.seed)
        self.rng = random.Random(self.seed + 1)
        self.muxes = sorted(
            (n for n in self.p.nodes() if n.kind is PNodeKind.MUX),
            key=lambda n: n.node_id,
        )
        self.hot = self.muxes[: max(1, int(len(self.muxes) * self.HOT_FRACTION))]
        _remove(self.db_path)
        with laps("store.open_s"):
            self.store = SqliteStore(self.db_path)
        self.session = QuerySession(self.p, backend="exact", store=self.store)
        self.session.answer_many(parse_all(self.texts))
        self.figures["store.open_s"] = laps.seconds["store.open_s"]

    def op(self, index: int, laps: Laps) -> Op:
        # Writes and query steps alternate, so every query step absorbs
        # exactly one write: a random mix would make the median jump
        # between steps that follow a write and steps that replay.  Every
        # write changes a probability (never the maximal world), to a
        # value it does not already have.
        if self.kind == "write":
            self.kind = "query"
            with laps("tp.parse_s"):
                queries = parse_all(self.texts)
            answers = self.session.answer_many(queries)
            return Op("query", self.texts, answers)
        self.kind = "write"
        rng = self.rng
        target = rng.choice(self.hot if rng.random() < self.SKEW else self.muxes)
        children = target.children
        current = target.probabilities[children[0].node_id]
        share = rng.choice([x for x in self.PROBABILITIES if x != current])
        target.probabilities[children[0].node_id] = share
        if len(children) == 2:
            target.probabilities[children[1].node_id] = 1 - share
        self.p.mark_mutated(target)
        return Op("write")

    def may_stop(self) -> bool:
        # End on a query step, so the last step can be checked against
        # the document as the run leaves it.
        return self.kind == "query"

    def check(self, op: Op, final: bool) -> Optional[bool]:
        if not final:
            self.query_steps += 1
            if self.query_steps % self.CHECK_EVERY != 1:
                return None
        want = reference_answers(self.p, op.texts)
        return answers_match(op.answers, want, exact=True)

    def finish(self) -> None:
        entries = len(self.store)
        start = time.perf_counter()
        self.store.close()
        self.figures["store.close_s"] = time.perf_counter() - start
        if entries:
            self.figures["store.bytes_per_entry"] = (
                os.path.getsize(self.db_path) / entries
            )
        _remove(self.db_path)


class ViewCache(Workload):
    """A warm ``RewritingCache``: the §7 surface, replaying its store."""

    name = "view-cache"
    describes = (
        "store replay: warm RewritingCache, 20-query batches "
        "(8 restricted, 8 through //, 4 direct)"
    )
    VIEWS = (
        ("rickbonus", "IT-personnel/person[name/Rick]/bonus"),
        ("allbonus", "IT-personnel//person/bonus"),
    )

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.restricted = [
            f"IT-personnel/person[name/Rick]/bonus[project{j}]"
            for j in range(PROJECTS)
        ]
        self.through = [
            f"IT-personnel//person/bonus[project{j}]" for j in range(PROJECTS)
        ]
        self.direct = day_texts(random.Random(seed), 8)
        self.pool = self.restricted + self.through + self.direct
        # The tpi_rewrite comparator's query, over personnel_views().
        self.tpi_text = personnel_texts()[0]

    def batch(self, index: int) -> list[str]:
        """Operations alternate between the two halves of the direct pool."""
        half = index % 2
        return self.restricted + self.through + self.direct[4 * half: 4 * half + 4]

    def query_texts(self) -> list[str]:
        return self.pool + [self.tpi_text]

    def setup(self, laps: Laps) -> None:
        self.p, _ = batch_workload(PERSONS, projects=PROJECTS, seed=self.seed)
        self.cache = RewritingCache(self.p, backend="fast")
        with laps("views.extension_build_s"):
            for name, text in self.VIEWS:
                self.cache.materialize(View(name, parse_pattern(text)))
        with laps("rewrite.first_pass_s"):
            self.cache.answer_many(parse_all(self.pool))
        self.figures.update(laps.seconds)

    def op(self, index: int, laps: Laps) -> Op:
        texts = self.batch(index)
        with laps("tp.parse_s"):
            queries = parse_all(texts)
        results = self.cache.answer_many(queries)
        return Op("query", texts, [result.answer for result in results])

    def after_op(self, op: Op, laps: Laps) -> None:
        queries = parse_all(op.texts)
        with laps("rewrite.decide_s"):
            for query in queries:
                self.cache.answerable(query)

    def comparators(self) -> None:
        """§7 comparators: direct evaluation and the TPIrewrite product."""
        direct = ColdBatch(self.seed, self.workdir, self.p)
        direct.texts = self.batch(0)
        warm, fresh = self._rounds([self, direct], traced=False)
        self.figures["rewrite.warm_replay_s"] = median(r.latency for r in warm)
        self.figures["rewrite.direct_equiv_s"] = median(r.latency for r in fresh)
        views = personnel_views()
        start = time.perf_counter()
        extensions = {
            view.name: probabilistic_extension(self.p, view) for view in views
        }
        self.figures["views.tpi_extension_build_s"] = time.perf_counter() - start
        product = []
        for _ in range(COMPARATOR_ROUNDS):
            start = time.perf_counter()
            plan = tpi_rewrite(
                parse_pattern(self.tpi_text), views, extensions, backend="fast"
            )
            answer = plan.evaluate() if plan is not None else None
            product.append(time.perf_counter() - start)
            self._count_extra(
                answer is not None
                and self.check(Op("query", [self.tpi_text], [answer]), True)
            )
        self.figures["rewrite.tpi_product_s"] = median(product)


WORKLOADS = {
    cls.name: cls for cls in (DiskRestart, Churn, ViewCache)
}


def _remove(path: Path) -> None:
    try:
        os.remove(path)
    except FileNotFoundError:
        pass
