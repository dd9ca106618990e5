"""The removed ``array`` backend: its guarantees, restated.

The numpy ``array`` backend and its stacked session pass are gone; two
scalar backends remain.  This module keeps what that backend promised
and the surviving code still owes:

* the registry resolves ``exact`` and ``fast`` only, and picking
  ``array`` raises the typed :class:`~repro.errors.UnknownBackendError`;
* ``fast`` agrees with ``exact`` within 1e-9 at the engine level;
* the per-epoch batch memo — once a stacked-pass feature — now lives in
  :class:`~repro.prob.QuerySession` for every backend: warm answers are
  fresh copies, ``invalidate()`` drops the memo, Boolean batches are
  memoized too, and a memo replay equals fresh evaluation (bit for bit
  on ``exact``, within 1e-9 on ``fast``);
* legacy SQLite rows holding ``array`` payloads (codec v2) open safely
  and read as misses, never as a crash or a wrong decode;
* the library never needs numpy.
"""

import json
import random
import sqlite3
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import repro
from repro.errors import UnknownBackendError
from repro.probability import (
    BACKENDS,
    FastBackend,
    ProbabilityError,
    get_backend,
    register_backend,
)
from repro.prob import QuerySession, query_answer
from repro.prob.engine import boolean_probability, node_probability
from repro.prob.session import MEMO_BATCHES
from repro.store import SqliteStore
from repro.tp import parse_pattern
from repro.workloads import paper
from repro.workloads.synthetic import (
    batch_workload,
    random_pdocument,
    random_tree_pattern,
)

LABELS = ("a", "b", "c")
TOLERANCE = 1e-9


def close(exact: dict, got: dict) -> bool:
    keys = set(exact) | {k for k, v in got.items() if float(v) > 1e-12}
    return all(
        abs(float(exact.get(k, 0)) - float(got.get(k, 0.0))) < TOLERANCE
        for k in keys
    )


def reparsed(queries):
    """Equal queries as fresh objects: a batch-memo miss by design."""
    return [parse_pattern(q.xpath()) for q in queries]


class TestRegistry:
    def test_array_name_raises_typed_unknown_backend_error(self):
        assert set(BACKENDS) == {"exact", "fast"}
        with pytest.raises(UnknownBackendError) as raised:
            get_backend("array")
        message = str(raised.value)
        assert "exact" in message and "fast" in message
        # Still a ProbabilityError for existing handlers.
        assert isinstance(raised.value, ProbabilityError)
        assert repro.UnknownBackendError is UnknownBackendError

    def test_unknown_backend_error_lists_registered_names(self):
        with pytest.raises(ProbabilityError, match="exact"):
            get_backend("quantum")
        with pytest.raises(ProbabilityError, match="fast"):
            get_backend("quantum")

    def test_register_backend_round_trip(self):
        sentinel = FastBackend()
        register_backend(sentinel, "fast-test-tmp")
        try:
            assert get_backend("fast-test-tmp") is sentinel
        finally:
            del BACKENDS["fast-test-tmp"]

    def test_to_fraction_recovers_clean_ratios(self):
        backend = get_backend("fast")
        assert backend.to_fraction(0.25) == Fraction(1, 4)
        # A repeating binary expansion must still round-trip the intended
        # decimal ratio.
        assert backend.to_fraction(0.1) == Fraction(1, 10)

    def test_library_runs_without_numpy(self):
        # A fresh interpreter with numpy made unimportable must import
        # repro and answer through a session on both backends.
        src = Path(repro.__file__).resolve().parent.parent
        script = (
            "import sys; sys.modules['numpy'] = None\n"
            "from repro.prob import QuerySession\n"
            "from repro.workloads import paper\n"
            "p, q = paper.p_per(), paper.q_rbon()\n"
            "for name in ('exact', 'fast'):\n"
            "    s = QuerySession(p, backend=name)\n"
            "    assert s.answer_many([q]) == s.answer_many([q])\n"
            "    assert abs(float(s.answer(q)[5]) - 0.675) < 1e-12\n"
        )
        subprocess.run(
            [sys.executable, "-c", script],
            check=True,
            env={"PYTHONPATH": str(src)},
        )


class TestEngineAgreement:
    def test_paper_examples_match_exact(self, p_per):
        for q in (paper.q_bon(), paper.q_rbon(), paper.v1_bon(), paper.v2_bon()):
            exact = query_answer(p_per, q)
            got = query_answer(p_per, q, backend="fast")
            assert close(exact, got)

    def test_boolean_and_node_probability(self, p_per):
        q = paper.q_rbon()
        exact = boolean_probability(p_per, q)
        got = boolean_probability(p_per, q, backend="fast")
        assert abs(float(exact) - got) < TOLERANCE
        exact_n = node_probability(p_per, q, 5)
        got_n = node_probability(p_per, q, 5, backend="fast")
        assert abs(float(exact_n) - got_n) < TOLERANCE

    def test_random_documents_match_exact(self):
        for seed in range(8):
            rng = random.Random(seed)
            p = random_pdocument(rng, labels=LABELS, max_depth=4, max_children=3)
            q = random_tree_pattern(rng, labels=LABELS, mb_length=2)
            assert close(
                query_answer(p, q), query_answer(p, q, backend="fast")
            )


class TestStackedSession:
    """The batch memo the stacked pass introduced, now on every backend."""

    def test_answer_many_matches_exact_cold_and_warm(self):
        p, queries = batch_workload(persons=8, projects=4, seed=8)
        expected = [query_answer(p, q) for q in queries]
        for backend in ("exact", "fast"):
            session = QuerySession(p, backend=backend)
            for _ in range(3):  # cold, then memo replays
                got = session.answer_many(queries)
                if backend == "exact":
                    assert got == expected  # bit for bit
                else:
                    assert all(close(e, g) for e, g in zip(expected, got))
            assert session.stats.traversals == 1
            permuted = session.answer_many(list(reversed(queries)))
            assert all(
                close(e, g) for e, g in zip(expected, reversed(permuted))
            )

    def test_warm_answers_are_fresh_copies(self):
        p, queries = batch_workload(persons=8, projects=4, seed=8)
        expected = [query_answer(p, q) for q in queries]
        for backend in ("exact", "fast"):
            session = QuerySession(p, backend=backend)
            first = session.answer_many(queries)
            first[0].clear()  # caller-side mutation must not poison the memo
            again = session.answer_many(queries)
            again[1].clear()
            third = session.answer_many(queries)
            assert all(close(e, g) for e, g in zip(expected, third))
            assert session.stats.traversals == 1

    def test_invalidate_drops_plan_memo(self):
        p, queries = batch_workload(persons=8, projects=4, seed=8)
        expected = [query_answer(p, q) for q in queries]
        for backend in ("exact", "fast"):
            session = QuerySession(p, backend=backend)
            session.answer_many(queries)
            session.invalidate()
            got = session.answer_many(queries)
            assert session.stats.traversals == 2  # memo dropped: a pass
            assert all(close(e, g) for e, g in zip(expected, got))

    def test_boolean_many_plain_and_anchored(self):
        p, queries = batch_workload(persons=8, projects=4, seed=8)
        items = []
        expected = []
        for q in queries:
            items.append(q)
            expected.append(boolean_probability(p, q))
            candidates = sorted(query_answer(p, q))
            if candidates:
                items.append((q, {q.out: candidates[0]}))
                expected.append(node_probability(p, q, candidates[0]))
        for backend in ("exact", "fast"):
            session = QuerySession(p, backend=backend)
            for _ in range(2):  # cold + memo replay
                got = session.boolean_many(items)
                if backend == "exact":
                    assert got == expected
                else:
                    assert all(
                        abs(float(e) - g) < TOLERANCE
                        for e, g in zip(expected, got)
                    )
            assert session.stats.traversals == 1

    def test_boolean_memo_serves_warm_and_drops_on_invalidate(self):
        p, queries = batch_workload(persons=8, projects=4, seed=8)
        q = queries[0]
        items = [(q, {q.out: n}) for n in sorted(query_answer(p, q))]
        for backend in ("exact", "fast"):
            session = QuerySession(p, backend=backend)
            first = session.boolean_many(items)
            walked = session.stats.traversals
            rebuilt = [(q, {q.out: n}) for n in sorted(query_answer(p, q))]
            again = session.boolean_many(rebuilt)  # fresh dicts, same content
            assert session.stats.traversals == walked  # memo hit, no pass
            assert again == first
            session.invalidate()
            fresh = session.boolean_many(items)
            assert session.stats.traversals == walked + 1  # memo dropped
            assert fresh == first

    def test_ninth_distinct_batch_evicts_the_first(self, p_per):
        batches = [[paper.q_bon()] for _ in range(MEMO_BATCHES + 1)]
        session = QuerySession(p_per)
        for batch in batches[:MEMO_BATCHES]:
            session.answer_many(batch)
        passes = session.stats.traversals
        session.answer_many(batches[0])  # still memoized
        assert session.stats.traversals == passes
        session.answer_many(batches[MEMO_BATCHES])  # evicts batches[0]
        session.answer_many(batches[1])  # still memoized
        assert session.stats.traversals == passes + 1
        assert session.answer_many(batches[0]) == [
            query_answer(p_per, paper.q_bon())
        ]
        assert session.stats.traversals == passes + 2
        assert len(session._memo) == MEMO_BATCHES

    def test_memoize_false_keeps_no_batch_memo(self, p_per):
        queries = [paper.q_bon(), paper.q_rbon()]
        session = QuerySession(p_per, memoize=False)
        first = session.answer_many(queries)
        assert session.answer_many(queries) == first
        assert session.stats.traversals == 2
        assert not session._memo

    def test_reparsed_batch_takes_a_store_warm_pass(self):
        p, queries = batch_workload(persons=8, projects=4, seed=8)
        session = QuerySession(p, backend="fast")
        first = session.answer_many(queries)
        again = session.answer_many(reparsed(queries))
        assert session.stats.traversals == 2
        assert all(close(a, b) for a, b in zip(first, again))


class TestSqliteArrayCodec:
    """Rows the ``array`` backend wrote (payload codec v2) stay harmless."""

    @staticmethod
    def _legacy_file(path, payloads):
        # A current store file, then v2 rows planted under array keys —
        # exactly what an older version of the library left on disk.
        SqliteStore(path).close()
        conn = sqlite3.connect(path)
        conn.executemany(
            "INSERT INTO memo (structure, fingerprint, anchor, gate, "
            "backend, payload, weight) VALUES (?, 'fp', '', '', 'array', ?, 1)",
            [
                (f"legacy-{index}", json.dumps(payload))
                for index, payload in enumerate(payloads)
            ],
        )
        conn.commit()
        conn.close()

    @pytest.mark.parametrize("preload", [True, False])
    def test_legacy_v2_rows_read_as_misses(self, tmp_path, preload):
        path = tmp_path / "memo.sqlite"
        self._legacy_file(
            path,
            [
                {"v": 2, "k": "a", "m": [0, 5], "p": [0.25, 0.75]},
                {"v": 2, "k": "s", "m": [[0, 3], [1, 0]],
                 "p": [[0.5, 0.5], [1.0, 0.0]]},
            ],
        )
        store = SqliteStore(path, preload=preload)
        assert not store.degraded
        keys = [
            (f"legacy-{index}", "fp", None, None, "array")
            for index in range(2)
        ]
        for key in keys:
            assert store.get(key) is None
        # The file still serves current sessions, cold and warm.
        p, queries = batch_workload(persons=4, projects=2, seed=2)
        expected = [query_answer(p, q) for q in queries]
        assert QuerySession(p, store=store).answer_many(queries) == expected
        store.close()
        reopened = SqliteStore(path, preload=preload)
        assert QuerySession(p, store=reopened).answer_many(queries) == expected
        assert reopened.hits > 0
        reopened.close()

    def test_malformed_array_payload_is_a_miss(self, tmp_path):
        path = tmp_path / "memo.sqlite"
        self._legacy_file(
            path, [{"v": 2, "k": "a", "m": [0], "p": "garbage"}]
        )
        reopened = SqliteStore(path)
        key = ("legacy-0", "fp", None, None, "array")
        assert reopened.get(key) is None  # miss, not a crash
        reopened.close()

    def test_warm_session_from_disk(self, tmp_path):
        p, queries = batch_workload(persons=8, projects=4, seed=8)
        expected = [query_answer(p, q) for q in queries]
        path = tmp_path / "memo.sqlite"
        store = SqliteStore(path)
        QuerySession(p, backend="fast", store=store).answer_many(queries)
        store.close()
        reopened = SqliteStore(path)
        got = QuerySession(p, backend="fast", store=reopened).answer_many(
            queries
        )
        assert reopened.hits > 0
        assert all(close(e, g) for e, g in zip(expected, got))
        reopened.close()
