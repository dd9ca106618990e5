"""Canonical structural digests for p-document subtrees.

The digest of a subtree is a Merkle-style hash over everything the
goal-set dynamic program of :mod:`repro.prob.engine` reads below a node:
the node kind, its label (for ordinary nodes), and — recursively — the
digests of its children paired with their edge probabilities (for
distributional nodes).  Children are hashed as a *sorted multiset*:
p-documents are unordered and every combine step of the DP (union
convolution, ind mixtures, mux sums) is commutative, so two subtrees
with equal digests produce identical blocked / unpinned distributions
for any goal table restricted to their labels.  That is the soundness
argument behind content-addressed memo sharing (compare the
structure-based tractability results of Amarilli et al. on treelike
uncertain data): work is keyed by subtree *shape*, not by node identity,
so isomorphic subtrees — within one document, between a document and its
probabilistic extensions, or across process restarts — share one
evaluation.

Digests are cached on :class:`repro.pxml.pdocument.PNode` (the
``_digest`` slot, tagged with the owning document's ``mutation_epoch``)
and recomputed lazily after a whole-document
:meth:`PDocument.mark_all_mutated`; a *node-scoped*
:meth:`PDocument.mark_mutated` instead calls :func:`recompute_spine`,
which re-derives the mutated subtree and then walks the ancestor chain
— O(depth) hash recomputations with an early exit as soon as an
ancestor's digest is unchanged — splicing fresh values into the cached
maps in place.  This module is deliberately ignorant of the pxml
classes — it reads ``kind`` / ``label`` / ``children`` /
``probabilities`` duck-typed, so the store package never imports the
document layer.

**Shape digests.**  Alongside the structural digest,
:func:`compute_index` derives a probability-*free* *shape* digest per
node (kind, label, sorted child shapes — no edge probabilities).  The
shape digest answers one question cheaply during a spine splice: did
this mutation change :meth:`PDocument.max_world` (and therefore
candidate sets), or only probability mass?  A probability-only edit
changes every structural digest on its spine but no shape digest, so
sessions keep their memoized batch plans (candidate sets included) warm.

**Identity digests.**  :func:`compute_identity_index` is the Id-*aware*
Merkle twin of the structural index: the payload additionally hashes
each node's Id.  Its root entry replaces the old
``canonical_key(with_ids=True)``-based document identity digest — same
discrimination (isomorphic documents with different Id assignments
never collide), but per-node form makes it spliceable in O(depth) via
:func:`identity_spine` instead of O(n log n) per mutation.

**Canonical anchor positions.**  :func:`compute_positions` derives, from
the same digests, a canonical *rank path* for every node: at each parent
the children are ordered by their digest sort key (the digest alone for
ordinary parents; ``(digest, edge probability)`` for distributional
ones — exactly the entries the parent digest hashes), and a node's
position is the tuple of child ranks on the path from the root.  Rank
paths are what make *anchored* evaluations content-addressable (compare
the isomorphism-invariant reasoning about p-documents in Amarilli's
possibility-problem analysis, arXiv:1404.3131): two subtrees with equal
digests admit a rank-respecting isomorphism — children of equal rank
have equal digests and edge probabilities, recursively — so pinning a
pattern node to "the node at rank path ``π``" means the same thing in
both.  Ties between digest-equal siblings are broken arbitrarily (input
order); any tie-break is sound because permuting digest-equal siblings
is an automorphism, and it maps one admissible tie-breaking onto any
other together with the anchored positions.
"""

from __future__ import annotations

import hashlib

__all__ = [
    "DIGEST_SIZE",
    "compute_index",
    "compute_identity_index",
    "compute_positions",
    "fingerprint_digest",
    "identity_spine",
    "recompute_spine",
]

#: Digest width in bytes (blake2b); 128 bits make collisions negligible
#: even for stores holding billions of subtree entries.
DIGEST_SIZE = 16

# Field / sibling separators for the hashed payload.  Labels are parsed
# tokens and never contain control characters, so the encoding is
# prefix-free in practice.
_FIELD = b"\x1f"
_SIBLING = b"\x1e"


def _hash(payload: bytes) -> str:
    return hashlib.blake2b(payload, digest_size=DIGEST_SIZE).hexdigest()


def fingerprint_digest(table: tuple) -> str:
    """Digest a canonical goal-table fingerprint.

    ``table`` is the nested tuple returned by
    :meth:`repro.prob.engine.EvaluationEngine.goal_table_fingerprint` —
    strings, ints, bools and ``None`` only, whose ``repr`` is identical
    across processes — so the digest is a stable cross-restart key
    component.
    """
    return _hash(repr(table).encode("utf-8"))


def _structural_payload(node, digests: dict[int, str]) -> bytes:
    """The hashed structural payload of one node, given child digests."""
    probabilities = node.probabilities
    if probabilities is None:  # ordinary node
        entries = sorted(
            digests[child.node_id].encode("ascii")
            for child in node.children
        )
        return _FIELD.join(
            (b"ordinary", node.label.encode("utf-8"), _SIBLING.join(entries))
        )
    # Distributional: the edge probability is part of the child entry.
    entries = sorted(
        b"%s:%s"
        % (
            digests[child.node_id].encode("ascii"),
            str(probabilities[child.node_id]).encode("ascii"),
        )
        for child in node.children
    )
    return _FIELD.join(
        (node.kind.value.encode("ascii"), _SIBLING.join(entries))
    )


def _shape_payload(node, shapes: dict[int, str]) -> bytes:
    """Probability-free shape payload: kind, label, sorted child shapes."""
    entries = sorted(
        shapes[child.node_id].encode("ascii") for child in node.children
    )
    if node.probabilities is None:
        head = b"o" + _FIELD + node.label.encode("utf-8")
    else:
        head = node.kind.value.encode("ascii")
    return head + _FIELD + _SIBLING.join(entries)


def _identity_payload(node, identities: dict[int, str]) -> bytes:
    """Id-aware payload: the structural payload plus the node's own Id."""
    probabilities = node.probabilities
    if probabilities is None:
        entries = sorted(
            identities[child.node_id].encode("ascii")
            for child in node.children
        )
        body = (b"ordinary", node.label.encode("utf-8"))
    else:
        entries = sorted(
            b"%s:%s"
            % (
                identities[child.node_id].encode("ascii"),
                str(probabilities[child.node_id]).encode("ascii"),
            )
            for child in node.children
        )
        body = (node.kind.value.encode("ascii"),)
    return _FIELD.join(
        (b"id:%d" % node.node_id,) + body + (_SIBLING.join(entries),)
    )


def compute_index(
    root, epoch: int
) -> tuple[dict[int, str], dict[int, int], dict[int, str]]:
    """Structural digests, subtree sizes and shape digests under ``root``.

    One iterative post-order pass; every visited node's ``_digest`` slot
    is stamped with ``(epoch, digest, size)`` so subsequent single-node
    lookups are O(1) until the document mutates.

    Returns ``(digests, sizes, shapes)`` keyed by ``node_id``; ``shapes``
    holds the probability-free shape digests (see the module docstring).
    """
    digests: dict[int, str] = {}
    sizes: dict[int, int] = {}
    shapes: dict[int, str] = {}
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if not expanded:
            stack.append((node, True))
            stack.extend((child, False) for child in node.children)
            continue
        digest = _hash(_structural_payload(node, digests))
        size = 1 + sum(sizes[child.node_id] for child in node.children)
        node_id = node.node_id
        digests[node_id] = digest
        sizes[node_id] = size
        shapes[node_id] = _hash(_shape_payload(node, shapes))
        node._digest = (epoch, digest, size)
    return digests, sizes, shapes


def compute_identity_index(root) -> dict[int, str]:
    """Id-aware Merkle digests for every node under ``root``.

    Same post-order shape as :func:`compute_index` but the payload hashes
    each node's Id, so two isomorphic subtrees with different Id
    assignments get different digests.  The root entry is the document's
    identity digest (:meth:`repro.pxml.pdocument.PDocument.
    identity_digest`); the per-node form exists so :func:`identity_spine`
    can splice it in O(depth) after a localized mutation.
    """
    identities: dict[int, str] = {}
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if not expanded:
            stack.append((node, True))
            stack.extend((child, False) for child in node.children)
            continue
        identities[node.node_id] = _hash(_identity_payload(node, identities))
    return identities


def recompute_spine(
    node,
    epoch: int,
    digests: dict[int, str],
    sizes: dict[int, int],
    shapes: dict[int, str],
) -> tuple[set, bool]:
    """Splice fresh digests for ``node``'s subtree and its ancestor spine.

    The maps (one document's :func:`compute_index` output) are updated
    **in place**: the mutated subtree is fully re-derived (it may hold
    new or edited nodes), then the ancestor chain is rehashed bottom-up
    with an early exit as soon as an ancestor's digest, size and shape
    are all unchanged — above that point no payload can differ.  Spine
    nodes get their ``_digest`` slot restamped with ``epoch``; untouched
    nodes keep their old stamps, which stay valid under the document's
    ``_digest_floor`` scheme.

    Returns ``(changed_ids, world_changed)``: the ids whose digest
    actually changed (untouched descendants of the mutated node — same
    Merkle digest before and after — are *not* reported, so their memo
    entries survive) and whether the mutation changed the document's
    maximal world (shape digests differ at the mutated node — label or
    child-set edits; pure probability edits keep ``world_changed``
    false).
    """
    old_shape = shapes.get(node.node_id)
    sub_digests, sub_sizes, sub_shapes = compute_index(node, epoch)
    changed = {
        node_id
        for node_id, digest in sub_digests.items()
        if digests.get(node_id) != digest
    }
    world_changed = sub_shapes[node.node_id] != old_shape
    digests.update(sub_digests)
    sizes.update(sub_sizes)
    shapes.update(sub_shapes)
    current = node.parent
    while current is not None:
        node_id = current.node_id
        digest = _hash(_structural_payload(current, digests))
        size = 1 + sum(sizes[child.node_id] for child in current.children)
        shape = _hash(_shape_payload(current, shapes))
        if (
            digests.get(node_id) == digest
            and sizes.get(node_id) == size
            and shapes.get(node_id) == shape
        ):
            break
        digests[node_id] = digest
        sizes[node_id] = size
        shapes[node_id] = shape
        current._digest = (epoch, digest, size)
        changed.add(node_id)
        current = current.parent
    return changed, world_changed


def identity_spine(node, identities: dict[int, str]) -> None:
    """Splice Id-aware digests for ``node``'s subtree and ancestors.

    The :func:`compute_identity_index` map is updated in place, with the
    same bottom-up early exit as :func:`recompute_spine`.
    """
    identities.update(compute_identity_index(node))
    current = node.parent
    while current is not None:
        digest = _hash(_identity_payload(current, identities))
        if identities.get(current.node_id) == digest:
            break
        identities[current.node_id] = digest
        current = current.parent


def compute_positions(root, digests: dict[int, str]) -> dict[int, tuple]:
    """Canonical rank path for every node under ``root``.

    ``digests`` is the :func:`compute_index` digest map for the same
    (sub)tree.  Children are ranked by their digest sort key — the same
    ordering the parent digest hashes — so ranks are invariant under
    isomorphism: nodes of equal rank path in digest-equal trees
    correspond under a (label-, kind- and probability-preserving)
    isomorphism.  The root's path is the empty tuple; a child's path
    appends its rank among its siblings.

    One O(n log n) pass; see the module docstring for the soundness
    argument behind arbitrary tie-breaking.
    """
    positions: dict[int, tuple] = {root.node_id: ()}
    stack = [root]
    while stack:
        node = stack.pop()
        children = node.children
        if not children:
            continue
        base = positions[node.node_id]
        probabilities = node.probabilities
        if probabilities is None:
            ranked = sorted(children, key=lambda c: digests[c.node_id])
        else:
            ranked = sorted(
                children,
                key=lambda c: (
                    digests[c.node_id],
                    str(probabilities[c.node_id]),
                ),
            )
        for rank, child in enumerate(ranked):
            positions[child.node_id] = base + (rank,)
            stack.append(child)
    return positions
