"""Property tests for the batch memo, formerly the ``array`` backend's.

The invariant the removed vectorized backend was held to, restated on
``fast`` now that every backend has the session's batch memo: on random
p-documents and random query batches, ``fast`` agrees with ``exact``
within ``1e-9`` — for ``answer_many`` and ``boolean_many`` (plain and
anchored), store-backed and store-free, on the cold pass and on memo
replays alike.  The ``exact`` backend's replays equal its cold answers
bit for bit.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.prob import QuerySession, query_answer
from repro.prob.engine import boolean_probability, node_probability
from repro.store import InMemoryStore
from repro.workloads.synthetic import random_pdocument, random_tree_pattern

LABELS = ("a", "b", "c")
TOLERANCE = 1e-9

seeds = st.integers(min_value=0, max_value=10**6)


def make_batch(seed: int, max_queries: int = 3):
    rng = random.Random(seed)
    p = random_pdocument(rng, labels=LABELS, max_depth=4, max_children=3)
    queries = [
        random_tree_pattern(rng, labels=LABELS, mb_length=rng.randint(1, 4))
        for _ in range(rng.randint(1, max_queries))
    ]
    return p, queries


def assert_close(exact: dict, got: dict):
    keys = set(exact) | {k for k, v in got.items() if float(v) > 1e-12}
    for k in keys:
        assert abs(float(exact.get(k, 0)) - float(got.get(k, 0.0))) < TOLERANCE


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_answer_many_matches_exact(seed):
    p, queries = make_batch(seed)
    expected = [query_answer(p, q) for q in queries]
    session = QuerySession(p, backend="fast")
    for _ in range(2):  # cold pass, then the memo replay
        got = session.answer_many(queries)
        for d_exact, d_got in zip(expected, got):
            assert_close(d_exact, d_got)
    exact_session = QuerySession(p)
    assert exact_session.answer_many(queries) == expected
    assert exact_session.answer_many(queries) == expected  # bit for bit
    assert exact_session.stats.traversals == 1


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_answer_many_store_free(seed):
    p, queries = make_batch(seed)
    expected = [query_answer(p, q) for q in queries]
    session = QuerySession(p, backend="fast", memoize=False)
    for _ in range(2):
        got = session.answer_many(queries)
        for d_exact, d_got in zip(expected, got):
            assert_close(d_exact, d_got)


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_answer_many_shared_store(seed):
    # Two sessions sharing one store: the second warms from the first's
    # entries and must agree identically.
    p, queries = make_batch(seed)
    expected = [query_answer(p, q) for q in queries]
    store = InMemoryStore()
    for _ in range(2):
        got = QuerySession(p, backend="fast", store=store).answer_many(
            queries
        )
        for d_exact, d_got in zip(expected, got):
            assert_close(d_exact, d_got)


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_boolean_many_matches_exact(seed):
    p, queries = make_batch(seed)
    session = QuerySession(p, backend="fast")
    items = []
    expected = []
    for q in queries:
        items.append(q)
        expected.append(float(boolean_probability(p, q)))
        candidates = sorted(query_answer(p, q))
        if candidates:
            items.append((q, {q.out: candidates[0]}))
            expected.append(float(node_probability(p, q, candidates[0])))
    for _ in range(2):  # cold + memo replay
        got = session.boolean_many(items)
        for e, g in zip(expected, got):
            assert abs(e - float(g)) < TOLERANCE
