"""Unfolding a Coxeter quiver to a classical quiver with arrow provenance.

Vertices of the unfolded quiver are pairs (simple object, original vertex),
named "<simple-key>@<vertex-id>".  An arrow labelled n from i to j unfolds to
one arrow (B,i) -> (C,j) for every simple C in X_n ⊗ B, where X_n is the
class of the arrow (the label-n simple of index n-3).  Arrows coming from
different original arrows are distinct even between the same vertices.
"""

from __future__ import annotations

from math import prod
from operator import attrgetter

from ._values import Value, _set_slots
from .fusion import SimpleObject, _simple_mul, arrow_label_class, irr_enumerate, tlj_simples
from .quiver import Arrow, CoxeterQuiver, DynkinType, UnknownVertex, vertex_key
from .quiver import _classify_components, _grouped
from .rootsys import RootVector, _fold


class UnfoldedArrow(Value):
    __slots__ = ("id", "source", "target", "provenance")

    def __init__(self, id: str, source: str, target: str, provenance: str):
        _set_slots(self, id, source, target, provenance)


def vertex_name(simple: SimpleObject, v: str) -> str:
    return f"{simple.key}@{v}"


def unfolded_arrow_id(provenance: str, source: str, target: str) -> str:
    """The id of the unfolded arrow source -> target over the arrow `provenance`."""
    return f"{provenance}:{source}>{target}"


class UnfoldedQuiver(Value):
    """The classical quiver underlying a Coxeter quiver, with provenance."""

    __slots__ = ("source", "irr", "vertices", "parts", "arrows", "_in", "_out", "_over")

    def __init__(self, source: CoxeterQuiver, irr, vertices, parts, arrows):
        vertices, parts, arrows = tuple(vertices), dict(parts), tuple(arrows)
        into, out = (_grouped(vertices, arrows, attrgetter(end)) for end in ("target", "source"))
        over = _grouped(source.vertices, vertices, lambda u: parts[u][1])
        _set_slots(self, source, tuple(irr), vertices, parts, arrows, into, out, over)

    def in_arrows(self, name: str) -> tuple[UnfoldedArrow, ...]:
        return self._in[name]

    def out_arrows(self, name: str) -> tuple[UnfoldedArrow, ...]:
        return self._out[name]

    def arrow_set(self) -> frozenset[tuple[str, str, str]]:
        """Arrows as (provenance, source, target) triples."""
        return frozenset((a.provenance, a.source, a.target) for a in self.arrows)

    def vertices_over(self, v: str) -> tuple[str, ...]:
        """The unfolded vertices over v, in the order of `vertices`."""
        return self._over.get(str(v), ())

    def _state(self):
        return self.vertices, self.arrow_set()

    def to_coxeter(self) -> CoxeterQuiver:
        """Forget provenance: the same quiver with every arrow classical."""
        return CoxeterQuiver(
            self.vertices,
            [Arrow(a.id, a.source, a.target, 3) for a in self.arrows],
        )

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "arrows": [
                {
                    "id": a.id,
                    "source": a.source,
                    "target": a.target,
                    "label": 3,
                    "provenance": a.provenance,
                }
                for a in self.arrows
            ],
        }

    def __repr__(self):
        return (
            f"UnfoldedQuiver({len(self.vertices)} vertices, {len(self.arrows)} arrows)"
        )


def unfold(Q: CoxeterQuiver) -> UnfoldedQuiver:
    """Construct the unfolded classical quiver of Q.

    Vertices are ordered by simple key, then as in Q; arrows as in Q, then
    by (source, target) within each arrow's block."""
    labels = Q.label_set
    irr = irr_enumerate(labels)
    parts = {vertex_name(B, v): (B, v) for B in sorted(irr, key=lambda s: s.key) for v in Q.vertices}
    arrows = []
    for alpha in Q.arrows:
        (X,) = arrow_label_class(labels, alpha.label).coeffs
        block = sorted(
            (vertex_name(B, alpha.source), vertex_name(C, alpha.target))
            for B in irr
            for C in _simple_mul(X, B)
        )
        arrows += [UnfoldedArrow(unfolded_arrow_id(alpha.id, s, t), s, t, alpha.id) for s, t in block]
    return UnfoldedQuiver(Q, irr, list(parts), parts, arrows)


def _classify_unfolded(uq: UnfoldedQuiver) -> list[tuple[tuple[str, ...], DynkinType]]:
    """`classify_graph(uq.to_coxeter())`, read off the arrows uq stores at
    each vertex, every one labelled 3.  Its acyclicity check is not repeated:
    the unfolding of an acyclic quiver is acyclic."""
    adj = {
        u: [(a.source, 3) for a in uq.in_arrows(u)] + [(a.target, 3) for a in uq.out_arrows(u)]
        for u in uq.vertices
    }
    return _classify_components(sorted(uq.vertices, key=vertex_key), adj)


def unfolded_arrow_count(Q: CoxeterQuiver, arrow_id: str) -> int:
    """Number of unfolded arrows of a given arrow of Q.

    An arrow labelled n contributes 2(n-2) arrows per complement simple when n
    is even and (n-2) when n is odd; the complements are the simples over the
    other labels.
    """
    labels = {a.id: a.label for a in Q.arrows}
    if str(arrow_id) not in labels:
        raise UnknownVertex(f"unknown arrow id {arrow_id!r}")
    n = labels[str(arrow_id)]
    complements = prod(len(tlj_simples(m)) for m in Q.label_set if m != n)
    return complements * ((n - 2) if n % 2 else 2 * (n - 2))


def fold_dim(uq: UnfoldedQuiver, dims: dict[str, int]) -> RootVector:
    """Collapse unfolded dimensions to one fusion-ring class per original vertex."""
    coords = []
    for name, d in dims.items():
        if name not in uq.parts:
            raise UnknownVertex(f"unknown unfolded vertex {name!r}")
        if type(d) is not int:
            raise TypeError(f"dimensions must be integers, got {d!r}")
        if d < 0:
            raise ValueError("dimensions must be non-negative")
        coords.append((name, d))
    return _fold(uq, coords)
