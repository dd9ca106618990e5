"""Views: named tree-pattern queries (paper §3).

A view is a TP query together with a name drawn from a set ``V`` disjoint
from the label alphabet.  Its extension over a document is rooted at the
special label ``doc(v)``; original node identity is exposed through a
*provenance* side table (:mod:`repro.views.provenance`) instead of the
paper's structural ``Id(n)`` marker children — extensions are Id-free,
so isomorphic base documents yield digest-identical extensions that
share content-addressed memo entries.  Patterns pin nodes to provenance
anchor sets (:meth:`repro.views.extension.ProbabilisticViewExtension.
occurrence_copies`, :meth:`repro.views.provenance.ProvenanceTable.
anchor_positions`) where the paper matches ``Id(n)`` labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..tp.pattern import TreePattern

__all__ = ["View", "doc_label"]


def doc_label(view_name: str) -> str:
    """The special root label ``doc(v)`` of a view extension."""
    return f"doc({view_name})"


@dataclass(frozen=True)
class View:
    """A named view.

    Attributes:
        name: the view name from ``V``.
        pattern: the TP query defining the view.
    """

    name: str
    pattern: TreePattern = field(compare=False)

    @property
    def doc_label(self) -> str:
        return doc_label(self.name)

    def __repr__(self) -> str:
        return f"View({self.name}: {self.pattern.xpath()})"
