"""Workload sessions: batched multi-query evaluation with structural,
store-backed subtree memoization.

Real view-cache workloads ask *many* TP queries against the same
p-document — exactly the regime where the goal-set DP's per-subtree work
is shared across queries (compare the treelike-instance lineage reuse of
Amarilli et al. and the combined-complexity analysis of
Amarilli–Monet–Senellart on probabilistic graphs).  A
:class:`QuerySession` exploits that in three ways:

**One post-order pass per batch.**  :meth:`QuerySession.answer_many`
walks the p-document once for the whole batch.  Each query owns its own
goal-bit range in the joint goal table (a private
:class:`~repro.prob.engine.EvaluationEngine` numbering); the session
calls every query's blocked/pinned combine step per p-document node, so
the traversal (stack management, node dispatch, per-node bookkeeping) is
paid once regardless of the batch size.  Distributions are kept as
*per-query projections* of the joint mask space — ranges are disjoint,
so projections lose nothing, and the supports of independent queries add
instead of multiplying (a literal joint distribution over ``k``
independent queries' goals has support ``∏ sᵢ``; the projections have
``Σ sᵢ``).

**Structural cross-query memoization.**  Per-subtree *blocked*
distributions (the candidate-free evaluations of the single-pass answer
DP) are cached in a :class:`repro.store.MemoStore` under the canonical
``(structural digest, goal-table fingerprint, gate, backend)`` key (see
:mod:`repro.store.api`): the digest identifies the subtree by *shape*
(kind, labels, distribution parameters — not node Ids), the fingerprint
is the query's goal table restricted to the labels occurring in the
subtree (:meth:`EvaluationEngine.goal_table_fingerprint`).  Both
components are semantic, so one entry serves (i) two structurally
identical queries that differ only in labels absent from the subtree,
(ii) two *isomorphic subtrees* — of one document, or of a document and
its probabilistic extensions — already within a single cold pass, and
(iii) with a shared or persistent store
(:class:`repro.store.SqliteStore`), other sessions and restarted
processes.  The default store is a private
:class:`repro.store.InMemoryStore` whose cost-aware LRU eviction
(weight = support size × subtree size) keeps expensive hot entries under
memory pressure instead of the old clear-at-capacity purge.  *Anchored*
restrictions are content-addressed too: anchor values are abstracted out
of the fingerprint and re-bound to canonical anchor *positions*
(digest-sorted rank paths, :meth:`repro.pxml.pdocument.PDocument.
anchor_index`), so the rewrite layer's Theorem-1/2 anchored traffic
shares entries across extensions, subdocuments, restarts and isomorphic
twin documents.

The session's passes are multi-lane instances of the one traversal
skeleton, :func:`repro.prob.traversal.stored_postorder`, which probes
the store one key at a time.

**The batch memo.**  A session also remembers its last
:data:`MEMO_BATCHES` batches, keyed on the identities of their queries
(``tuple(map(id, queries))``; Boolean batches of two or more items on
their patterns and anchor bindings, see :func:`_boolean_key`).  An ``answer_many`` entry
holds the batch's plan — engines, candidate and live sets, lanes with
their store keyers — and its answers; a Boolean entry holds its answers.
Every entry pins the queries themselves, so a recycled ``id`` can never
alias a key.  Repeating the *same* query objects within a document epoch
is a pure replay — fresh copies of the memoized answers, no traversal —
on every backend.  A re-parsed but identical query is a different key
and takes a store-warm pass instead.  Entries are evicted oldest first.

**Mutation epochs and spine-only refreshes.**  When :attr:`repro.pxml.
pdocument.PDocument.mutation_epoch` changes (code that mutates a
p-document in place calls ``mark_mutated(node)``), the session consults
:meth:`PDocument.dirty_since`.  For node-scoped mutations it performs a
*spine refresh*: when the mutation was probability-only, so the maximal
world is unchanged, the maximal world and every memoized
``answer_many`` plan survive; only their answers are dropped.  This is
sound because spine splicing updates the digest maps the plans' keyers
hold *in place*, and a splice that had to rebuild an index reports the
world as changed.  (Boolean entries memoize answers only — rewrite
plans issue many small Boolean batches that rarely repeat — so any
write drops them.)  A world-changing mutation drops the plans too, and
a whole-document :meth:`PDocument.mark_all_mutated` triggers the full
reset.  The structural store needs no purge either way: mutated
subtrees change their digests and simply stop matching, while untouched
sibling subtrees keep hitting — content addressing makes invalidation
automatic and minimal, and the session records each spine refresh on
the store (:meth:`repro.store.MemoStore.record_spine_recompute`).

The session also backs the rewrite layer: plans route their numerator /
denominator / α-pattern evaluations through
:meth:`QuerySession.boolean_many`, which batches anchored Boolean
(TP / TP∩) probabilities through the same shared pass and memo.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence, Union

from ..obs.registry import Sample, get_registry
from ..obs.trace import capture as trace_capture, span as trace_span
from ..probability import BackendLike, NumericBackend, get_backend
from ..pxml.pdocument import PDocument
from ..store import (
    GATE_BLOCKED,
    GATE_UNPINNED,
    InMemoryStore,
    MemoStore,
    SubtreeKeyer,
    fingerprint_digest,
)
from ..tp.embedding import evaluate as evaluate_deterministic
from ..tp.pattern import TreePattern
from .engine import AnchorsLike, EvaluationEngine
from .traversal import Lane, stored_postorder

__all__ = ["QuerySession", "SessionStats", "BooleanItem"]

#: One item of a Boolean batch: a pattern, or ``(patterns, anchors)`` for
#: anchored / TP∩ probabilities (``patterns`` may be a single pattern).
BooleanItem = Union[
    TreePattern,
    tuple,
]

# Gate tags for memo keys: blocked (output D-goals suppressed) vs unpinned
# (output D-goals granted).  A subtree whose label set contains no output
# label is gate-insensitive and shares one entry (gate None).
_BLOCKED = GATE_BLOCKED
_UNPINNED = GATE_UNPINNED

#: Batches the session memo holds, oldest evicted first.  Each entry pins
#: its queries, engines, candidate / live sets and keyers, so the cap
#: bounds the memo's memory on workloads that never repeat a batch.
MEMO_BATCHES = 8


class _Batch:
    """One memoized batch (see "The batch memo" in the module docstring).

    ``pin`` holds the queries (or normalized Boolean items) whose ids
    form the memo key; ``answers`` is ``None`` until the batch has been
    evaluated in the current epoch.  Boolean batches keep their answers
    only (no plan: ``lanes`` is empty).
    """

    __slots__ = ("pin", "engines", "lanes", "candidate_sets", "targets",
                 "answers")

    def __init__(self, pin, engines=(), lanes=(), candidate_sets=(),
                 targets=(), answers: Optional[list] = None) -> None:
        self.pin = pin
        self.engines = engines
        self.lanes = lanes
        self.candidate_sets = candidate_sets
        self.targets = targets
        self.answers = answers


def _boolean_key(normalized: list) -> Optional[tuple]:
    """Identity-based memo key for a Boolean batch, ``None`` when the
    anchors cannot be frozen.

    Patterns key by identity (like ``answer_many`` batches) and anchors
    by ``(id(pattern node), document node id)`` pairs — anchor *values*
    are plain ints, so content-equal bindings built fresh per call still
    match.  The memo entry pins the normalized batch, keeping every id in
    the key alive for as long as the entry exists.
    """
    try:
        return (
            "bool",
            tuple(
                (
                    tuple(map(id, patterns)),
                    None
                    if anchors is None
                    else tuple(
                        sorted(
                            (id(node), int(target))
                            for node, target in anchors.items()
                        )
                    ),
                )
                for patterns, anchors in normalized
            ),
        )
    except (TypeError, AttributeError, ValueError):
        return None


@dataclass
class SessionStats:
    """Cumulative instrumentation of one session.

    Attributes:
        traversals: shared post-order passes performed (one per batch).
        queries: queries / Boolean items evaluated through the session.
        node_visits: p-document nodes touched by the shared passes; a cold
            ``answer_many`` touches each node at most once no matter how
            many queries the batch holds.
        memo_hits: per-query subtree evaluations answered from the
            structural store, plus one per query of a batch replayed from
            the batch memo.
        memo_misses: per-query subtree evaluations computed and stored.
        anchored_hits: the subset of ``memo_hits`` whose restriction was
            anchored (store anchor-position keys).
        anchored_misses: the subset of ``memo_misses`` that was anchored.
        neutral_skips: per-query subtree evaluations short-circuited to
            the unit distribution because the subtree holds no goal-table
            label (no memo involved).
        subtree_skips: whole subtrees skipped without traversal because
            every query of the batch was neutral or hit the memo at their
            root (a batch-memo replay skips the whole document: one).
        invalidations: full session cache resets (whole-document
            mutation epochs, manual ``invalidate()`` calls).
        spine_refreshes: node-scoped mutation epochs absorbed without a
            full reset — only state keyed on dirty node Ids was dropped.
        survived_plans: cumulative batch-memo plans kept live across
            probability-only spine refreshes.
    """

    traversals: int = 0
    queries: int = 0
    node_visits: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    anchored_hits: int = 0
    anchored_misses: int = 0
    neutral_skips: int = 0
    subtree_skips: int = 0
    invalidations: int = 0
    spine_refreshes: int = 0
    survived_plans: int = 0

    def snapshot(self) -> dict:
        return dict(self.__dict__)


#: Live sessions feeding the process registry (pull collector): the
#: plain-int SessionStats fields stay the hot-path shards; the registry
#: aggregates them at read time as ``repro_session_*`` series.  Stats of
#: garbage-collected sessions are retired into a process total first
#: (a finalizer holds the stats bag, never the session), keeping the
#: series monotone across instance lifetimes.
_LIVE_SESSIONS: "weakref.WeakSet[QuerySession]" = weakref.WeakSet()

_RETIRED_TOTALS: dict = {}


def _retire_session_stats(stats: SessionStats) -> None:
    for field, value in stats.__dict__.items():
        _RETIRED_TOTALS[field] = _RETIRED_TOTALS.get(field, 0) + value


def _collect_session_samples():
    totals: dict[str, int] = dict(_RETIRED_TOTALS)
    sessions = 0
    for session in list(_LIVE_SESSIONS):
        sessions += 1
        for field, value in session.stats.__dict__.items():
            totals[field] = totals.get(field, 0) + value
    yield Sample(
        "repro_sessions_live", "gauge", (), sessions,
        "QuerySession instances currently alive",
    )
    for field in sorted(totals):
        yield Sample(
            f"repro_session_{field}_total", "counter", (), totals[field],
            f"SessionStats.{field} summed over the process's sessions",
        )


get_registry().register_collector(_collect_session_samples)


class QuerySession:
    """A batched-evaluation session over one p-document.

    Args:
        p: the p-document all queries are evaluated against.
        backend: numeric backend name or instance (default ``"exact"``).
        memoize: keep the cross-query subtree memo and the batch memo
            (default true).
        memo_limit: entry cap of the session-owned default store (its
            ``max_entries``, evicted cost-aware, entry by entry).
        store: a :class:`repro.store.MemoStore` to consult and fill —
            share one store between sessions (or pass a
            :class:`repro.store.SqliteStore`) for cross-document and
            cross-restart reuse.  Default: a private
            :class:`repro.store.InMemoryStore`.
        bulk_store: accepted and ignored; store probing is per key.

    Attributes:
        stats: cumulative :class:`SessionStats`.
        store: the structural memo store in use (``None`` iff
            ``memoize=False``).
    """

    def __init__(
        self,
        p: PDocument,
        backend: BackendLike = "exact",
        memoize: bool = True,
        memo_limit: int = 1 << 18,
        store: Optional[MemoStore] = None,
        # No effect: kept because perfbench/workloads.py (frozen) passes it.
        bulk_store: Optional[bool] = None,
    ) -> None:
        self.p = p
        self.backend: NumericBackend = get_backend(backend)
        self.memoize = memoize
        self.memo_limit = memo_limit
        if not memoize and store is not None:
            raise ValueError(
                "memoize=False is contradictory with an explicit store: "
                "the store would never be consulted or filled"
            )
        self._owns_store = store is None
        if not memoize:
            store = None
        elif store is None:
            store = InMemoryStore(max_entries=memo_limit)
        self.store = store
        self.stats = SessionStats()
        self._epoch = getattr(p, "mutation_epoch", 0)
        self._world = None
        # The batch memo: key -> _Batch, insertion-ordered for FIFO
        # eviction at MEMO_BATCHES (see the module docstring).
        self._memo: dict = {}
        _LIVE_SESSIONS.add(self)
        weakref.finalize(self, _retire_session_stats, self.stats)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def answer_many(
        self, queries: Sequence[TreePattern], profile: bool = False
    ):
        """``[q(P̂) for q in queries]`` from one shared post-order pass.

        Per-query candidates are read off the shared maximal world; all
        queries' blocked/pinned distributions are then carried through a
        single traversal of the p-document, consulting and filling the
        structural memo store.  Equals per-query
        :meth:`EvaluationEngine.answer` exactly (``exact`` backend) /
        within floating-point error (``fast``).  Repeating the same
        query objects within a document epoch replays fresh copies of
        the memoized answers without a pass (see "The batch memo").

        With ``profile=True`` the call is traced (tracing is enabled for
        its duration if it was off) and returns ``(answers, profiles)``
        — one :class:`repro.obs.CostProfile` per query, whose attributed
        wall times sum to the traced wall time of the call.
        """
        queries = list(queries)
        if profile:
            from ..obs.profile import build_profiles

            with trace_capture() as captured:
                answers = self.answer_many(queries)
            return answers, build_profiles(
                captured.spans, [q.xpath() for q in queries]
            )
        if not queries:
            return []
        sp = trace_span(
            "session.answer_many",
            queries=len(queries),
            backend=self.backend.name,
        )
        with sp:
            self._refresh()
            key = ("answer", tuple(map(id, queries)))
            batch = self._memo.get(key)
            if batch is None:
                batch = self._answer_plan(queries)
                self._remember(key, batch)
            elif batch.answers is not None:
                self._count_replay(len(queries), sp)
                if sp:
                    sp.set("answers", sum(len(a) for a in batch.answers))
                return [dict(answer) for answer in batch.answers]
            roots = self._traced_postorder(batch.lanes, pinned=True)
            zero = self.backend.zero
            answers: list[dict] = []
            for engine, target, candidates, (_, pinned) in zip(
                batch.engines, batch.targets, batch.candidate_sets, roots
            ):
                answer: dict = {}
                for node_id in sorted(candidates):
                    distribution = pinned.get(node_id)
                    if distribution is None:
                        continue
                    probability = engine.mass(distribution, target)
                    if probability > zero:
                        answer[node_id] = probability
                answers.append(answer)
            batch.answers = answers
            self.stats.queries += len(queries)
            if sp:
                sp.set(
                    "candidates", sum(len(cs) for cs in batch.candidate_sets)
                )
                sp.set("answers", sum(len(a) for a in answers))
            return [dict(answer) for answer in answers]

    def answer(self, q: TreePattern) -> dict:
        """``q(P̂)`` — one query, still through the session memo."""
        return self.answer_many([q])[0]

    def boolean_many(self, items: Sequence[BooleanItem]) -> list:
        """Batched Boolean probabilities from one shared pass.

        Each item is a pattern, or ``(patterns, anchors)`` where
        ``patterns`` is a pattern or a sequence of patterns (evaluated
        jointly, TP∩ semantics) and ``anchors`` an optional
        :data:`~repro.prob.engine.AnchorsLike` mapping.  Returns one
        backend probability per item.
        """
        normalized: list[tuple[list[TreePattern], Optional[AnchorsLike]]] = []
        for item in items:
            if isinstance(item, TreePattern):
                normalized.append(([item], None))
                continue
            patterns, anchors = item
            if isinstance(patterns, TreePattern):
                patterns = [patterns]
            normalized.append((list(patterns), anchors))
        if not normalized:
            return []
        sp = trace_span(
            "session.boolean_many",
            items=len(normalized),
            backend=self.backend.name,
        )
        with sp:
            return self._boolean_many(normalized, sp)

    def _boolean_many(self, normalized, sp) -> list:
        self._refresh()
        # Boolean masses depend only on the document, the patterns and the
        # anchor bindings — never on store state — so a repeated batch is
        # served from the memo before any engine is built.  Single-item
        # batches skip the memo: rewrite plans issue them by the thousand
        # (one per holder) and they rarely repeat, so building the key
        # and pinning the entry cost more than replays save.
        key = _boolean_key(normalized) if len(normalized) > 1 else None
        batch = self._memo.get(key) if key is not None else None
        if batch is not None:
            self._count_replay(len(normalized), sp)
            return list(batch.answers)
        engines = [
            EvaluationEngine(self.p, patterns, anchors, self.backend)
            for patterns, anchors in normalized
        ]
        lanes = [
            Lane(
                table_labels=engine.table_labels,
                combine=engine.combine_unpinned,
                unit=engine._unit(),
                keyer=self._keyer(engine),
                gate=_UNPINNED,
            )
            for engine in engines
        ]
        distributions = self._traced_postorder(lanes, pinned=False)
        masses = [
            engine.mass(distribution)
            for engine, distribution in zip(engines, distributions)
        ]
        if key is not None:
            self._remember(key, _Batch(normalized, answers=masses))
        self.stats.queries += len(normalized)
        return list(masses)

    def boolean_probability(
        self, q: TreePattern, anchors: Optional[AnchorsLike] = None
    ):
        """``Pr(q matches P)``, optionally anchored."""
        return self.boolean_many([(q, anchors)])[0]

    def node_probability(self, q: TreePattern, node_id: int):
        """``Pr(n ∈ q(P))`` for one node (anchored Boolean run)."""
        return self.boolean_probability(q, {q.out: node_id})

    def invalidate(self) -> None:
        """Reset the session's caches and every derived document map.

        Drops the batch memo and bumps the
        document's mutation epoch so all epoch-tagged derived state
        (label index, structural digests, identity digest) is re-derived
        — ``invalidate()`` therefore restores correctness even after an
        in-place mutation that forgot :meth:`PDocument.mark_mutated`.
        When the session *owns* its store (none was passed in) the store
        is cleared too.  A shared store is left intact — its
        content-addressed entries are valid beyond this session; clear it
        explicitly via ``session.store.clear()``.
        """
        self.p.mark_all_mutated()
        self._epoch = self.p.mutation_epoch
        self._world = None
        self._memo.clear()
        if self._owns_store and self.store is not None:
            self.store.clear()
        self.stats.invalidations += 1

    @property
    def memo_size(self) -> int:
        """Cached subtree entries visible to this session's store."""
        return len(self.store) if self.store is not None else 0

    # ------------------------------------------------------------------
    # Shared-pass machinery
    # ------------------------------------------------------------------
    def _refresh(self) -> None:
        epoch = getattr(self.p, "mutation_epoch", 0)
        if epoch == self._epoch:
            return
        # Structural store entries need no purge either way: mutated
        # subtrees change their digests and stop matching, untouched
        # ones keep hitting.  Only identity-keyed session state is at
        # stake here — and for node-scoped mutations (dirty_since) just
        # the slice of it keyed on dirty node Ids.
        dirty_since = getattr(self.p, "dirty_since", None)
        dirty = dirty_since(self._epoch) if dirty_since is not None else None
        self._epoch = epoch
        with trace_span(
            "session.refresh", spine=dirty is not None
        ) as sp:
            self._apply_refresh(dirty, sp)

    def _apply_refresh(self, dirty, sp) -> None:
        if dirty is None:
            self._world = None
            self._memo.clear()
            self.stats.invalidations += 1
            return
        changed, world_changed = dirty
        stats = self.stats
        stats.spine_refreshes += 1
        if sp:
            sp.set("dirty_nodes", len(changed))
            sp.set("world_changed", world_changed)
        if world_changed:
            # Labels or the node set moved: the maximal world and every
            # memoized plan (whose lanes bake candidate / live sets in)
            # are suspect.
            self._world = None
            self._memo.clear()
        else:
            # Probability-only mutation: answer plans survive — their
            # keyers' digest maps were spliced in place, and their lanes
            # are unanchored, so no keyer caches anchor positions (which
            # such a write can re-rank).  Answers reflect the old masses;
            # Boolean entries are nothing but answers.
            memo = self._memo
            for key in [k for k, batch in memo.items() if not batch.lanes]:
                del memo[key]
            for batch in memo.values():
                batch.answers = None
            stats.survived_plans += len(memo)
        if self.store is not None:
            self.store.record_spine_recompute(len(self.store))

    def _max_world(self):
        if self._world is None:
            self._world = self.p.max_world()
        return self._world

    def _candidate_sets(
        self, engines: list[EvaluationEngine], queries: list[TreePattern]
    ) -> list[frozenset]:
        """Per-query candidate Ids, cached in the store per document + table.

        Candidates are ``q(max_world)`` — a function of the document and
        the query's goal table alone — but they *name node Ids*, so the
        cache key uses :meth:`PDocument.identity_digest` (Id-aware; two
        isomorphic documents with different Id assignments must not
        share) plus the full goal-table fingerprint.  A warm store lets a
        restarted worker skip building the maximal world entirely.
        """
        with trace_span(
            "session.candidates", queries=len(queries)
        ) as sp:
            sets = self._candidate_sets_inner(engines, queries)
            if sp:
                sp.set("candidates", sum(len(s) for s in sets))
            return sets

    def _candidate_sets_inner(
        self, engines: list[EvaluationEngine], queries: list[TreePattern]
    ) -> list[frozenset]:
        store = self.store
        if store is None:
            return [
                frozenset(evaluate_deterministic(query, self._max_world()))
                for query in queries
            ]
        document_key = self.p.identity_digest()
        sets = []
        for engine, query in zip(engines, queries):
            table, _, _ = engine.goal_table_fingerprint(engine.table_labels)
            key = (document_key, fingerprint_digest(table), None,
                   "candidates", "node-ids")
            cached = store.get(key)
            if cached is not None:
                candidates = frozenset(cached)
            else:
                candidates = frozenset(
                    evaluate_deterministic(query, self._max_world())
                )
                # Recomputation means rebuilding the maximal world and
                # running the deterministic embedding — O(document) — so
                # weight by document size, not by the (often tiny)
                # candidate count.
                store.put(
                    key,
                    {node_id: 1.0 for node_id in candidates},
                    weight=self.p.size(),
                )
            sets.append(candidates)
        return sets

    # ------------------------------------------------------------------
    # Batch plans and the memo
    # ------------------------------------------------------------------
    def _keyer(self, engine: EvaluationEngine) -> Optional[SubtreeKeyer]:
        if self.store is None:
            return None
        return SubtreeKeyer(self.p, engine, self.backend)

    def _answer_plan(self, queries: list[TreePattern]) -> _Batch:
        """Engines, candidates and pinned lanes for an ``answer_many`` batch.

        Each query is one pinned :class:`~repro.prob.traversal.Lane` of
        :func:`~repro.prob.traversal.stored_postorder`: per query and
        node the pass either short-circuits a *neutral* subtree (no
        goal-table label below ⇒ the distribution is the unit ``{∅: 1}``),
        reuses a memoized blocked distribution (counted as a hit), or
        calls the query's :meth:`EvaluationEngine.combine_pinned`.  When
        *every* query of the batch is neutral or hits the memo at a
        subtree root, the subtree is not traversed at all.
        """
        engines = [
            EvaluationEngine(self.p, [q], backend=self.backend)
            for q in queries
        ]
        candidate_sets = self._candidate_sets(engines, queries)
        lanes = [
            Lane(
                table_labels=engine.table_labels,
                combine=partial(engine.combine_pinned, candidate_set=candidates),
                unit=engine._unit(),
                keyer=self._keyer(engine),
                live=self.p.ancestral_closure(candidates),
                gate=_BLOCKED,
                pinned=True,
            )
            for engine, candidates in zip(engines, candidate_sets)
        ]
        targets = [
            engine.pattern_target(q) for engine, q in zip(engines, queries)
        ]
        return _Batch(tuple(queries), engines, lanes, candidate_sets, targets)

    def _remember(self, key: tuple, batch: _Batch) -> None:
        """Memoize ``batch`` under ``key``, evicting the oldest entry at
        :data:`MEMO_BATCHES` (no-op for ``memoize=False`` sessions)."""
        if not self.memoize:
            return
        memo = self._memo
        if len(memo) >= MEMO_BATCHES:
            del memo[next(iter(memo))]
        memo[key] = batch

    def _count_replay(self, count: int, sp) -> None:
        """Account one batch served from the memo without a traversal."""
        stats = self.stats
        stats.memo_hits += count
        stats.subtree_skips += 1
        stats.queries += count
        if sp:
            sp.set("memo_replay", True)

    # ------------------------------------------------------------------
    # Shared passes: lanes over the one store-consulting skeleton
    # ------------------------------------------------------------------
    def _traced_postorder(self, lanes: list, pinned: bool) -> list:
        """Run one shared :func:`stored_postorder` pass over ``lanes``,
        under a traversal span if tracing.

        The span records per-pass deltas of the session counters (node
        visits, memo and store hit/miss traffic) — cheap because the
        snapshots happen once per pass, never per node.
        """
        sp = trace_span(
            "session.traversal", lanes=len(lanes), pinned=pinned
        )
        if sp:
            stats_before = self.stats.snapshot()
            store = self.store
            store_before = (
                (store.hits, store.misses) if store is not None else (0, 0)
            )
        with sp:
            roots = stored_postorder(self.p, lanes, self.store, self.stats)
        if sp:
            after = self.stats
            sp.set(
                "node_visits", after.node_visits - stats_before["node_visits"]
            )
            sp.set("memo_hits", after.memo_hits - stats_before["memo_hits"])
            sp.set(
                "memo_misses", after.memo_misses - stats_before["memo_misses"]
            )
            sp.set(
                "subtree_skips",
                after.subtree_skips - stats_before["subtree_skips"],
            )
            if self.store is not None:
                sp.set("store_hits", self.store.hits - store_before[0])
                sp.set("store_misses", self.store.misses - store_before[1])
        self.stats.traversals += 1
        return roots
