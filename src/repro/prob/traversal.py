"""THE post-order traversal: one skeleton, one store-probing path.

Every DP pass of the engine and session layers is an instance of
:func:`stored_postorder` — a plain engine evaluation is a single-lane
pass (with ``store=None`` when the engine has no store), a batched
session pass runs many lanes over one stack walk.

**Lanes.**  A :class:`Lane` is one query's view of a shared pass: its
goal-table label support (for the neutral short-circuit), its *live* set
(ancestors of candidate nodes, which must always be combined so pinned
maps can be assembled), its gate, its keyer, and its combine callback.

**Per node, per lane** the skeleton either

* short-circuits a *neutral* subtree (no goal-table label below ⇒ the
  distribution is the unit ``{∅: 1}``) without touching any memo,
* reuses a memoized blocked/unpinned distribution (a *hit*), or
* calls the lane's combine and saves the cacheable half of the result
  under the lane's store key (a *miss*).

When *every* lane of the pass is neutral or hits at a subtree root
(pre-check probe), the subtree is not traversed at all.  A counted
pre-check miss is stashed as :data:`_MISS`; the expanded visit then uses
a *second-chance* probe — it can still hit when an earlier lane of the
same pass filled the identical key at this very node (same-pass
cross-lane sharing), but a repeated miss is answered by
:meth:`~repro.store.MemoStore.reprobe` and not re-counted.

**Store keys.**  A lane's key (:meth:`repro.store.keys.SubtreeKeyer.
token`) is always a canonical content-addressed store key — unanchored,
or anchored with canonical position encoding.  Probing is per key: one
``get`` per probe, one ``reprobe`` per second chance, one ``put`` per
miss (the key was just probed absent).  Live-spine entries are
recombined every pass without a prior probe; equal keys mean equal
distributions, so only their saves are ``contains``-guarded, to skip
the redundant re-store (a disk write per node on
:class:`~repro.store.SqliteStore`).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..store import MemoStore, SubtreeKeyer

__all__ = ["Lane", "stored_postorder"]

#: Sentinel recording a counted pre-check probe miss (see module docs).
_MISS = object()

_EMPTY = frozenset()


class Lane:
    """One query's view of a shared store-consulting pass.

    Args:
        table_labels: the lane's goal-table label support; a subtree
            whose label set is disjoint from it is *neutral*.
        combine: ``(node, entries) -> entry`` — the lane's DP combine
            step over the child entries.
        unit: the lane's unit distribution ``{0: one}``.
        keyer: the lane's :class:`~repro.store.SubtreeKeyer` (``None``
            when the pass runs memo-less).
        live: node Ids whose subtree holds a candidate — always combined.
        gate: gate tag for the lane's cacheable (blocked / unpinned)
            distributions.
        pinned: entries are ``(blocked, pinned)`` pairs; only the blocked
            half is content-addressable (pinned maps name node Ids).
    """

    __slots__ = (
        "table_labels", "combine", "keyer", "live", "gate", "pinned",
        "unit_entry",
    )

    def __init__(
        self,
        table_labels: frozenset,
        combine: Callable,
        unit: dict,
        keyer: Optional[SubtreeKeyer] = None,
        live: frozenset = _EMPTY,
        gate: Optional[str] = None,
        pinned: bool = False,
    ) -> None:
        self.table_labels = table_labels
        self.combine = combine
        self.keyer = keyer
        self.live = live
        self.gate = gate
        self.pinned = pinned
        self.unit_entry = (unit, {}) if pinned else unit


def stored_postorder(
    p,
    lanes: Sequence[Lane],
    store: Optional[MemoStore],
    stats=None,
) -> list:
    """Run all ``lanes`` through one shared post-order pass over ``p``.

    Returns the root entry of every lane (a distribution for unpinned
    lanes, a ``(blocked, pinned)`` pair for pinned ones).

    Args:
        p: the p-document.
        lanes: the evaluation lanes sharing this walk.
        store: the content-addressed memo store (``None`` = memo-less
            pass: neutral subtrees still short-circuit, everything else
            is combined).
        stats: optional :class:`repro.prob.session.SessionStats`-shaped
            sink (``node_visits`` / ``memo_hits`` / ``memo_misses`` /
            ``anchored_hits`` / ``anchored_misses`` / ``neutral_skips`` /
            ``subtree_skips`` are updated; ``traversals`` is the
            caller's).
    """
    labels = p.label_index()
    use_memo = store is not None
    count = len(lanes)
    # A stashed pre-check miss can only turn into a hit when ANOTHER lane
    # fills the identical key before the expanded visit — between the two
    # only the node's strict descendants run, and a proper subtree can
    # never share its ancestor's digest.  Single-lane passes therefore
    # skip the second-chance reprobe entirely (it would be one
    # guaranteed-miss probe per cold node).
    reprobe_possible = count > 1
    indices = range(count)
    entries: list[dict] = [{} for _ in indices]
    # Pre-check probe results (distribution, unit entry, or _MISS, per
    # lane index) stashed per node so the expanded visit never probes
    # twice.
    probes: dict[int, list] = {}
    stack = [(p.root, False)]
    while stack:
        node, expanded = stack.pop()
        node_id = node.node_id
        if not expanded:
            label_set = labels[node_id]
            neutral = 0
            probed: list = []
            skip = True
            for i in indices:
                lane = lanes[i]
                if node_id in lane.live:
                    skip = False
                    break
                if not (lane.table_labels & label_set):
                    probed.append(lane.unit_entry)
                    neutral += 1
                    continue
                if not use_memo:
                    skip = False
                    break
                key, anchored = lane.keyer.token(node_id, label_set, lane.gate)
                cached = store.get(key)
                if cached is None:
                    probed.append(_MISS)
                    skip = False
                    break
                if anchored and stats is not None:
                    stats.anchored_hits += 1
                probed.append((cached, {}) if lane.pinned else cached)
            if skip:
                for i in indices:
                    entries[i][node_id] = probed[i]
                if stats is not None:
                    stats.memo_hits += count - neutral
                    stats.neutral_skips += neutral
                    stats.subtree_skips += 1
                continue
            if probed:
                probes[node_id] = probed
            stack.append((node, True))
            stack.extend((child, False) for child in node.children)
            continue
        if stats is not None:
            stats.node_visits += 1
        label_set = labels[node_id]
        children = node.children
        probed = probes.pop(node_id, ())
        for i in indices:
            lane = lanes[i]
            entry_map = entries[i]
            if node_id in lane.live:
                entry = lane.combine(node, entry_map)
                entry_map[node_id] = entry
                if use_memo:
                    key, _ = lane.keyer.token(node_id, label_set, lane.gate)
                    # Recombined without a probe: skip the redundant
                    # re-store (a disk write on SqliteStore).
                    if not store.contains(key):
                        _save(lane, store, key, node_id, entry)
            elif not (lane.table_labels & label_set):
                entry_map[node_id] = lane.unit_entry
                if stats is not None:
                    stats.neutral_skips += 1
            elif not use_memo:
                entry_map[node_id] = lane.combine(node, entry_map)
            else:
                key, anchored = lane.keyer.token(node_id, label_set, lane.gate)
                stashed = probed[i] if i < len(probed) else None
                if stashed is None:
                    cached = store.get(key)
                elif stashed is _MISS:
                    cached = store.reprobe(key) if reprobe_possible else None
                else:
                    # Pre-check hit, stashed in entry form already.
                    entry_map[node_id] = stashed
                    if stats is not None:
                        stats.memo_hits += 1
                    continue
                if cached is not None:
                    entry_map[node_id] = (
                        (cached, {}) if lane.pinned else cached
                    )
                    if stats is not None:
                        stats.memo_hits += 1
                        if anchored:
                            stats.anchored_hits += 1
                else:
                    # Probed absent just above; combine writes nothing.
                    entry = lane.combine(node, entry_map)
                    entry_map[node_id] = entry
                    _save(lane, store, key, node_id, entry)
                    if stats is not None:
                        stats.memo_misses += 1
                        if anchored:
                            stats.anchored_misses += 1
            for child in children:
                entry_map.pop(child.node_id, None)
    root_id = p.root.node_id
    return [entries[i].pop(root_id) for i in indices]


def _save(lane: Lane, store: MemoStore, key, node_id: int, entry) -> None:
    """Store the cacheable half of ``entry`` under ``key``."""
    blocked = entry[0] if lane.pinned else entry
    store.put(key, blocked, lane.keyer.weight(node_id, blocked))
