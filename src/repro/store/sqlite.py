"""File-backed (SQLite) memo store: subtree distributions that survive
process restarts.

Entries are the same content-addressed ``(structure, fingerprint, gate,
backend)`` records as :class:`repro.store.memory.InMemoryStore` holds,
persisted in a single ``memo`` table so a restarted worker — or a
different worker pointed at the same file — starts with every previously
computed subtree distribution already available ("warm-from-disk"; see
``benchmarks/bench_store.py``).

**Payload codec.**  Distributions are JSON: exact (:class:`Fraction`)
values as ``"num/den"`` strings, ``fast`` floats as JSON numbers, goal
masks as arbitrary-precision ints — version-tagged so a future format
change degrades to a cache miss rather than a wrong answer.  Entries
whose values are neither ``Fraction`` nor ``float`` (a custom backend's
domain) are kept in memory but not persisted.

**Anchored-entry codec.**  The key's anchor-position component (one
tuple of relative rank paths per anchor slot, ``None`` when unanchored —
see :mod:`repro.store.keys`) persists in its own ``anchor`` column,
serialized with a codec version prefix (``"1;@0.2,@1|@3"``: slots joined
by ``|``, positions by ``,``, ranks by ``.`` after a ``@``) so a future
encoding change turns old rows into misses instead of wrong shares.
Store files written before the anchor column existed are detected by
schema inspection and dropped — a cache format upgrade costs one cold
fill, never a wrong answer.

**Read caching.**  Decoded entries are cached in memory write-through.
By default the whole table is decoded on first access (``preload=True``)
— memo tables are tiny next to the evaluation work they encode, and one
bulk ``SELECT`` is far cheaper than per-subtree point lookups on the hot
path; ``get`` / ``contains`` / ``len`` are then answered from the cache
without SQL.  Pass ``preload=False`` for very large shared stores to
fall back to per-key lookups: every probe the read cache cannot answer
is one point ``SELECT``, and ``contains`` / ``len`` query the file too,
so a lazy store sees rows that other connections wrote after it opened.
In both modes the ``stats()`` gauges (``weight``, ``anchored_entries``)
are one SQL aggregate over the file per call.  Lazy mode bounds
*startup* cost only — the read cache still grows with the entries
actually touched (the working set), so a worker that sweeps an entire
huge store should recycle the store instance (or front it with an
:class:`~repro.store.memory.InMemoryStore` tier) to bound steady-state
memory.

**Degradation, not failure.**  A corrupt, unreadable or write-locked
store file must never break query evaluation: every SQLite error demotes
the store to memory-only operation with a :class:`RuntimeWarning`
(``degraded`` is set), keeping results correct and merely losing
persistence.

**Writes.**  Each ``put`` is one ``INSERT OR REPLACE``; the store
commits every ``commit_every`` puts and on ``flush()`` / ``close()``.
"""

from __future__ import annotations

import json
import sqlite3
import warnings
from fractions import Fraction
from time import perf_counter
from typing import Optional, Union

from ..obs.registry import get_registry
from ..obs.trace import get_tracer
from .api import MemoStore, StoreKey

__all__ = ["SqliteStore", "open_store"]

# Probe/put latency histograms, observed only while tracing is enabled
# (two perf_counter calls would double the cost of a preloaded-cache
# get on the default no-telemetry path).
_PROBE_SECONDS = get_registry().histogram(
    "repro_store_sqlite_probe_seconds",
    help="SqliteStore.get latency (recorded while tracing is enabled)",
)
_PUT_SECONDS = get_registry().histogram(
    "repro_store_sqlite_put_seconds",
    help="SqliteStore.put latency (recorded while tracing is enabled)",
)
# Counts every statement handed to SQLite — the store's round-trip
# proxy.  bench_store's round-trips column reads the delta of this series
# across a lazy warm-from-disk pass.
_STATEMENTS = get_registry().counter(
    "repro_store_sqlite_statements_total",
    help="SQL statements issued by SqliteStore",
)

_PAYLOAD_VERSION = 1
_ANCHOR_VERSION = "1"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS memo (
    structure   TEXT NOT NULL,
    fingerprint TEXT NOT NULL,
    anchor      TEXT NOT NULL,
    gate        TEXT NOT NULL,
    backend     TEXT NOT NULL,
    payload     TEXT NOT NULL,
    weight      INTEGER NOT NULL DEFAULT 1,
    PRIMARY KEY (structure, fingerprint, anchor, gate, backend)
)
"""


def _encode_anchor(anchor) -> str:
    """Serialize a key's anchor-position component (``""`` = unanchored)."""
    if anchor is None:
        return ""
    slots = []
    for positions in anchor:
        slots.append(
            ",".join("@" + ".".join(map(str, path)) for path in positions)
        )
    return _ANCHOR_VERSION + ";" + "|".join(slots)


def _decode_anchor(text: str):
    """Inverse of :func:`_encode_anchor`; raises ``ValueError`` on foreign
    or future-versioned encodings."""
    if text == "":
        return None
    version, _, body = text.partition(";")
    if version != _ANCHOR_VERSION:
        raise ValueError(f"unsupported anchor encoding: {text[:40]!r}")
    slots = []
    for slot in body.split("|"):
        positions = []
        for entry in slot.split(","):
            if not entry:
                continue
            if not entry.startswith("@"):
                raise ValueError(f"malformed anchor position {entry!r}")
            ranks = entry[1:]
            positions.append(
                tuple(int(rank) for rank in ranks.split(".")) if ranks else ()
            )
        slots.append(tuple(positions))
    return tuple(slots)


def _encode(distribution) -> Optional[str]:
    """JSON payload for a distribution, or ``None`` if not serializable.

    Exact values travel as ``[numerator, denominator]`` pairs (faster to
    revive than ``"num/den"`` strings — decode speed is what bounds the
    warm-from-disk preload), floats as plain JSON numbers.
    """
    items = []
    for mask, value in distribution.items():
        if isinstance(value, Fraction):
            items.append((mask, (value.numerator, value.denominator)))
        elif isinstance(value, float):
            items.append((mask, value))
        else:
            return None
    return json.dumps({"v": _PAYLOAD_VERSION, "d": items})


def _decode(payload: str):
    """Inverse of :func:`_encode`; raises ``ValueError`` on foreign data.

    Any other version tag — including the ``"v": 2`` packed-array rows
    of the removed ``array`` backend — is foreign: the caller turns the
    ``ValueError`` into a miss.
    """
    data = json.loads(payload)
    if not isinstance(data, dict):
        raise ValueError(f"unsupported memo payload: {payload[:40]!r}")
    if data.get("v") != _PAYLOAD_VERSION:
        raise ValueError(f"unsupported memo payload version: {payload[:40]!r}")
    return {
        int(mask): Fraction(*value) if isinstance(value, list) else float(value)
        for mask, value in data["d"]
    }


class SqliteStore(MemoStore):
    """Persistent memo store over a single SQLite file.

    Args:
        path: the store file (created if missing).
        preload: decode the whole table into memory on first access;
            ``False`` reads per key (see "Read caching" above).
        commit_every: pending writes accumulated before an implicit
            commit; :meth:`flush`/:meth:`close` always commit.

    Attributes:
        degraded: true once persistence failed and the store fell back
            to memory-only operation (a warning was emitted).
    """

    _INSERT_SQL = (
        "INSERT OR REPLACE INTO memo"
        " (structure, fingerprint, anchor, gate, backend, payload, weight)"
        " VALUES (?, ?, ?, ?, ?, ?, ?)"
    )
    _WHERE_KEY = (
        " WHERE structure = ? AND fingerprint = ? AND anchor = ?"
        " AND gate = ? AND backend = ?"
    )

    def __init__(
        self,
        path: Union[str, "object"],
        preload: bool = True,
        commit_every: int = 256,
    ) -> None:
        super().__init__()
        self.path = str(path)
        self.preload = preload
        self.commit_every = commit_every
        self.degraded = False
        self._cache: dict[StoreKey, dict] = {}
        self._complete = False  # cache mirrors the whole table
        self._pending = 0
        self._conn: Optional[sqlite3.Connection] = None
        try:
            conn = sqlite3.connect(self.path)
            columns = {
                row[1] for row in conn.execute("PRAGMA table_info(memo)")
            }
            if columns and "anchor" not in columns:
                # Pre-anchor schema: the key format changed, so the cached
                # entries are unreachable anyway — drop and refill cold.
                conn.execute("DROP TABLE memo")
            conn.execute(_SCHEMA)
            conn.commit()
            self._conn = conn
        except sqlite3.Error as exc:
            self._degrade(exc)

    # ------------------------------------------------------------------
    # MemoStore interface
    # ------------------------------------------------------------------
    store_kind = "sqlite"

    def get(self, key: StoreKey) -> Optional[dict]:
        if get_tracer().enabled:
            start = perf_counter()
            try:
                return self._get(key)
            finally:
                _PROBE_SECONDS.observe(perf_counter() - start)
        return self._get(key)

    def _get(self, key: StoreKey) -> Optional[dict]:
        distribution = self._lookup(key)
        self._count_get(key, hit=distribution is not None)
        return distribution

    def reprobe(self, key: StoreKey) -> Optional[dict]:
        """Single-probe second chance: a hit counts, a miss does not.

        At most one SQL statement runs (lazy mode, key not cached).
        """
        distribution = self._lookup(key)
        if distribution is not None:
            self._count_get(key, hit=True)
        return distribution

    def _lookup(self, key: StoreKey) -> Optional[dict]:
        """The entry for ``key`` from the read cache or, in lazy mode,
        one point ``SELECT``; uncounted."""
        if self.preload and not self._complete:
            self._preload()
        cached = self._cache.get(key)
        if cached is not None or self._complete or self._conn is None:
            return cached
        return self._fetch_one(key)

    def _fetch_one(self, key: StoreKey) -> Optional[dict]:
        """Point-read one row; repairs undecodable rows by dropping them
        so ``contains`` agrees and the next computation's ``put`` refills
        the entry."""
        row_key = self._row_key(key)
        rows = self._execute(
            "SELECT payload FROM memo" + self._WHERE_KEY, row_key
        )
        row = rows.fetchone() if rows is not None else None
        if row is None:
            return None
        try:
            distribution = _decode(row[0])
        except (ValueError, TypeError, KeyError):
            self._execute("DELETE FROM memo" + self._WHERE_KEY, row_key)
            return None
        self._cache[key] = distribution
        return distribution

    def put(self, key: StoreKey, distribution: dict, weight: int = 1) -> None:
        if get_tracer().enabled:
            start = perf_counter()
            try:
                return self._put(key, distribution, weight)
            finally:
                _PUT_SECONDS.observe(perf_counter() - start)
        return self._put(key, distribution, weight)

    def _put(self, key: StoreKey, distribution: dict, weight: int = 1) -> None:
        if self.preload and not self._complete:
            self._preload()
        self._count_put(key)
        self._cache[key] = distribution
        if self._conn is None:
            return
        payload = _encode(distribution)
        if payload is None:
            return  # non-serializable backend domain: memory-only entry
        weight = max(1, int(weight))
        self._execute(self._INSERT_SQL, self._row_key(key) + (payload, weight))
        self._pending += 1
        if self._pending >= self.commit_every:
            self.flush()

    def contains(self, key: StoreKey) -> bool:
        if self.preload and not self._complete:
            self._preload()
        if key in self._cache:
            return True
        if self._complete or self._conn is None:
            return False
        rows = self._execute(
            "SELECT 1 FROM memo" + self._WHERE_KEY, self._row_key(key)
        )
        return rows is not None and rows.fetchone() is not None

    def clear(self) -> None:
        self._cache.clear()
        # A preloaded cache mirrors the table it just emptied.
        self._complete = self._conn is None or self.preload
        if self._conn is not None:
            self._execute("DELETE FROM memo")
            self.flush()

    def __len__(self) -> int:
        """Entries visible to :meth:`get`.

        In preloading mode (the default) the whole table is decoded
        first, so the count is the same whichever access path ran before
        — undecodable foreign rows are excluded.  In lazy mode the count
        is approximate: the larger of the file's row count and the cache
        size, which over-counts foreign payloads and under-counts
        memory-only (non-serializable) entries coexisting with persisted
        rows.
        """
        if self.preload and not self._complete:
            self._preload()
        if self._conn is None or self._complete:
            return len(self._cache)
        return max(self._gauges()[0], len(self._cache))

    def stats(self) -> dict:
        gauges = super().stats()
        weight = None
        anchored_entries = None
        if self._conn is not None:
            _, weight, anchored_entries = self._gauges()
        gauges.update(
            path=self.path,
            degraded=self.degraded,
            cached_entries=len(self._cache),
            weight=weight,
            anchored_entries=anchored_entries,
        )
        return gauges

    def flush(self) -> None:
        """Commit pending writes.

        Counted in ``stats()["flushes"]`` only when work was pending —
        an idle flush is free and invisible.
        """
        if self._conn is None:
            return
        try:
            self._conn.commit()
        except sqlite3.Error as exc:
            self._degrade(exc)
            return
        if self._pending:
            self._pending = 0
            self._count_flush()

    def close(self) -> None:
        """Commit and detach from the file; the store stays usable in memory."""
        self.flush()
        if self._conn is not None:
            self._conn.close()
            self._conn = None
            self._complete = True  # only the cache remains visible

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _row_key(key: StoreKey) -> tuple:
        structure, fingerprint, anchor, gate, backend = key
        return (structure, fingerprint, _encode_anchor(anchor), gate or "", backend)

    def _execute(self, sql: str, parameters: tuple = ()):
        assert self._conn is not None
        _STATEMENTS.inc()
        try:
            return self._conn.execute(sql, parameters)
        except sqlite3.Error as exc:
            self._degrade(exc)
            return None

    def _gauges(self) -> tuple:
        """``(rows, summed weight, anchored rows)`` of the open file, from
        one SQL aggregate (it also counts rows other connections wrote)."""
        rows = self._execute(
            "SELECT COUNT(*), COALESCE(SUM(weight), 0),"
            " COALESCE(SUM(anchor != ''), 0) FROM memo"
        )
        row = rows.fetchone() if rows is not None else None
        return tuple(row) if row is not None else (0, 0, 0)

    def _preload(self) -> None:
        self._complete = True
        if self._conn is None:
            return
        rows = self._execute(
            "SELECT structure, fingerprint, anchor, gate, backend, payload"
            " FROM memo"
        )
        if rows is None:
            return
        try:
            for structure, fingerprint, anchor, gate, backend, payload in rows:
                try:
                    key = (
                        structure,
                        fingerprint,
                        _decode_anchor(anchor),
                        gate or None,
                        backend,
                    )
                    if key in self._cache:
                        continue
                    self._cache[key] = _decode(payload)
                except (ValueError, TypeError, KeyError):
                    continue  # foreign payloads/encodings degrade to misses
        except sqlite3.Error as exc:  # corruption discovered mid-scan
            self._degrade(exc)

    def _degrade(self, exc: sqlite3.Error) -> None:
        """Fall back to memory-only operation, keeping evaluation alive."""
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:  # pragma: no cover - best-effort cleanup
                pass
            self._conn = None
        self._pending = 0
        if not self.degraded:
            self.degraded = True
            warnings.warn(
                f"memo store {self.path!r} is unusable ({exc}); continuing "
                "without persistence (in-memory only)",
                RuntimeWarning,
                stacklevel=3,
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "degraded" if self.degraded else (
            "closed" if self._conn is None else "open"
        )
        return f"SqliteStore(path={self.path!r}, {state})"


def open_store(path: Optional[str] = None, **kwargs) -> MemoStore:
    """``SqliteStore(path)`` when a path is given, else an ``InMemoryStore``.

    Keyword arguments are forwarded to the chosen constructor.
    """
    if path is None:
        from .memory import InMemoryStore

        return InMemoryStore(**kwargs)
    return SqliteStore(path, **kwargs)
