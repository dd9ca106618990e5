"""Property tests: answers and store accounting do not depend on the
store kind.

Every traversal probes its store one key at a time, so an
``InMemoryStore``, a preloaded ``SqliteStore`` and a lazy ``SqliteStore``
warmed from disk must be observably identical for the same pass
sequence: the same answers (bit for bit on ``exact``, within ``1e-9``
of ``exact`` on ``fast``) and the same ``hits`` / ``misses`` / ``puts``
— cold, warm from disk after a restart, through the batch memo, and across spine-only in-place
mutations (``mark_mutated(node)``).
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.prob import QuerySession, query_answer
from repro.pxml.pdocument import PDocument
from repro.store import InMemoryStore, SqliteStore
from repro.tp import parse_pattern
from repro.workloads.synthetic import random_pdocument, random_tree_pattern

LABELS = ("a", "b", "c")
TOLERANCE = 1e-9
KINDS = ("memory", "sqlite_preload", "sqlite_lazy")


def make_batch(seed: int, max_queries: int = 3):
    rng = random.Random(seed)
    p = random_pdocument(rng, labels=LABELS, max_depth=4, max_children=3)
    queries = [
        random_tree_pattern(rng, labels=LABELS, mb_length=rng.randint(1, 4))
        for _ in range(rng.randint(1, max_queries))
    ]
    return p, queries, rng


def mutate_node(p: PDocument, rng: random.Random) -> None:
    """A random in-place edit with node-scoped ``mark_mutated(node)``."""
    distributional = p.distributional_nodes()
    ordinary = [n for n in p.ordinary_nodes() if n is not p.root]
    if distributional and (not ordinary or rng.random() < 0.5):
        node = rng.choice(distributional)
        child = rng.choice(node.children)
        assert node.probabilities is not None
        node.probabilities[child.node_id] *= Fraction(rng.choice((0, 1, 2)), 2)
    elif ordinary:
        node = rng.choice(ordinary)
        node.label = rng.choice(LABELS)
    else:
        return  # a root-only document has nothing to churn
    p.mark_mutated(node)


def counts(store) -> tuple:
    return store.hits, store.misses, store.puts


def warm_stores(p, queries, backend, tmp):
    """One store per kind, each holding what one cold pass over ``p``
    wrote, plus the counter readings to measure from."""
    stores = {}
    memory = InMemoryStore()
    QuerySession(p, backend=backend, store=memory).answer_many(queries)
    stores["memory"] = memory
    for kind, preload in (("sqlite_preload", True), ("sqlite_lazy", False)):
        path = tmp / f"{kind}.db"
        cold = SqliteStore(path)
        QuerySession(p, backend=backend, store=cold).answer_many(queries)
        cold.close()
        stores[kind] = SqliteStore(path, preload=preload)
    return stores, {kind: counts(store) for kind, store in stores.items()}


def accounting(stores, baselines) -> dict:
    return {
        kind: tuple(
            now - then for now, then in zip(counts(store), baselines[kind])
        )
        for kind, store in stores.items()
    }


def close_all(stores) -> None:
    for store in stores.values():
        store.close()


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_store_kinds_agree_under_churn(tmp_path_factory, seed):
    # One resident session per store kind over one shared document;
    # each round answers the batch twice (a pass, then a batch-memo
    # replay), runs an anchored Boolean batch, then churns the document.
    p, queries, rng = make_batch(seed)
    stores, baselines = warm_stores(
        p, queries, "exact", tmp_path_factory.mktemp("kinds")
    )
    sessions = {kind: QuerySession(p, store=stores[kind]) for kind in KINDS}
    try:
        for round_ in range(3):
            expected = [query_answer(p, q) for q in queries]
            items = [
                (q, {q.out: node_id})
                for q, answer in zip(queries, expected)
                for node_id in sorted(answer)[:2]
            ]
            booleans = []
            for kind in KINDS:
                session = sessions[kind]
                assert session.answer_many(queries) == expected
                assert session.answer_many(queries) == expected
                booleans.append(session.boolean_many(items))
            assert booleans[0] == booleans[1] == booleans[2]
            for probability, (q, anchors) in zip(booleans[0], items):
                (node_id,) = anchors.values()
                assert probability == expected[queries.index(q)][node_id]
            counted = accounting(stores, baselines)
            assert counted["memory"] == counted["sqlite_preload"]
            assert counted["memory"] == counted["sqlite_lazy"]
            if round_ < 2:
                mutate_node(p, rng)
    finally:
        close_all(stores)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_store_kinds_agree_cold_and_warm_from_disk(tmp_path_factory, seed):
    # A cold fill into empty stores, then a simulated restart (a fresh
    # session; the SQLite kinds reopen their file): every kind serves
    # the same answers with the same hit/miss/put counts in both passes.
    p, queries, _ = make_batch(seed)
    expected = [query_answer(p, q) for q in queries]
    tmp = tmp_path_factory.mktemp("restart")
    snapshots = {}
    for kind in KINDS:
        path = tmp / f"{kind}.db"
        store = InMemoryStore() if kind == "memory" else SqliteStore(path)
        cold = QuerySession(p, store=store)
        assert cold.answer_many(queries) == expected
        assert cold.answer_many(queries) == expected
        cold_counts = counts(store)
        if kind != "memory":
            store.close()
            store = SqliteStore(path, preload=kind == "sqlite_preload")
        baseline = counts(store)
        warm = QuerySession(p, store=store)
        assert warm.answer_many(queries) == expected
        assert warm.stats.traversals == 1
        warm_counts = tuple(
            now - then for now, then in zip(counts(store), baseline)
        )
        store.close()
        snapshots[kind] = (cold_counts, warm_counts)
    assert snapshots["memory"] == snapshots["sqlite_preload"]
    assert snapshots["memory"] == snapshots["sqlite_lazy"]
    # the warm pass is served from the store: it writes nothing new
    assert snapshots["memory"][1][2] == 0


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_store_kinds_agree_through_batch_memo_on_fast(tmp_path_factory, seed):
    # On ``fast``: a warm pass, a batch-memo replay (no store traffic),
    # and a warm pass over re-parsed queries, per store kind.
    p, queries, _ = make_batch(seed)
    exact = [query_answer(p, q) for q in queries]
    reparsed = [parse_pattern(q.xpath()) for q in queries]
    stores, baselines = warm_stores(
        p, queries, "fast", tmp_path_factory.mktemp("fast")
    )
    try:
        results = {}
        for kind in KINDS:
            session = QuerySession(p, backend="fast", store=stores[kind])
            results[kind] = [
                session.answer_many(batch)
                for batch in (queries, queries, reparsed)
            ]
            assert session.stats.traversals == 2
        assert results["memory"] == results["sqlite_preload"]
        assert results["memory"] == results["sqlite_lazy"]
        for answers in results["memory"]:
            for got, want in zip(answers, exact):
                for node_id in set(got) | set(want):
                    assert abs(
                        got.get(node_id, 0.0) - float(want.get(node_id, 0))
                    ) < TOLERANCE
        counted = accounting(stores, baselines)
        assert counted["memory"] == counted["sqlite_preload"]
        assert counted["memory"] == counted["sqlite_lazy"]
    finally:
        close_all(stores)
