"""Root systems over fusion rings.

The lattice is the free fusion-ring module on the vertices of the underlying
labelled graph; the symmetric form takes the value 2 on a diagonal pair and
minus the sum of the label classes on an edge pair.  Roots are the orbit of
the standard basis under all simple reflections; positive roots are the orbit
members with non-negative classes at every vertex.

Roots are integer tuples over the vertices (B, v) of the unfolded quiver,
in the order of `unfold(Q).vertices`, from the orbit to the printed bytes.
The simple reflection at i is the product of the commuting classical
reflections at the unfolded vertices over i (Etingof-Khovanov), and folding,
the class sum of x[(B, v)] [B] at each v, is a bijection, so the integer
orbit (`_int_orbit`) is the image of the fusion-valued one.  A simple X acts
by `_act`: e_{B@v} goes to the sum of e_{C@v} over the simples C in X ⊗ B.
The canonical twist of a positive root is the serialization-minimal member
of {x} ∪ {u·x} over the invertible simples u (`_positive`), and `_extend`
multiplies by every simple.  `_Layout` writes a tuple as `RootVector`
writes its fold: `serialize`, which is both the sort key and the text line,
through the shared `_write`, and `to_json`.

Tuples are folded to `RootVector`s (`_fold`) only where the public API
returns them; `extend_by_simples` unfolds its argument (`_coordinates`).
The CLI and the `indecs` cross-check work on the tuples.  `reflect` keeps
the fusion-valued rule as an independent route.  Both reflections are
local: `reflect` at i reads the arrows Q stores at i, one label class each,
and the integer reflection reads the arrows the unfolding stores at each
vertex over i.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _escape
from operator import itemgetter

from ._values import Value, _set_slots
from .fusion import (
    FusionElem,
    SimpleObject,
    _is_invertible,
    _simple_mul,
    arrow_label_class,
    is_positive_elem,
)
from .quiver import CoxeterQuiver


class MismatchedQuiver(Exception):
    """Root vector does not live over the given quiver's label set."""


class InvalidOrdering(Exception):
    """The vertex list is not a permutation of the quiver's vertices."""


class CapExceeded(Exception):
    """No depositivizing power was found below the cap."""


class OrbitBudgetExceeded(Exception):
    """Reflection orbit grew past the budget; carries the partial set."""

    def __init__(self, message: str, partial: "RootSet"):
        super().__init__(message)
        self.partial = partial

    def __reduce__(self):
        return type(self), (self.args[0], self.partial)


class RootVector(Value):
    """One fusion-ring class per vertex; zero entries are not stored."""

    __slots__ = ("labels", "entries", "_key")

    def __init__(self, labels, entries: dict[str, FusionElem]):
        labels = tuple(sorted(set(labels)))
        clean = {}
        for v, e in entries.items():
            if e.labels != labels:
                raise MismatchedQuiver(
                    f"entry at {v!r} over labels {e.labels}, expected {labels}"
                )
            if e:
                clean[str(v)] = e
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "entries", clean)
        object.__setattr__(self, "_key", None)

    @classmethod
    def zero(cls, labels) -> "RootVector":
        return cls(labels, {})

    @classmethod
    def basis(cls, Q: CoxeterQuiver, i: str) -> "RootVector":
        Q._require(i)
        labels = Q.label_set
        return cls(labels, {str(i): FusionElem.unit(labels)})

    def entry(self, v: str) -> FusionElem:
        return self.entries.get(str(v), FusionElem.zero(self.labels))

    def __add__(self, other: "RootVector") -> "RootVector":
        if self.labels != other.labels:
            raise MismatchedQuiver("label sets differ")
        out = dict(self.entries)
        for v, e in other.entries.items():
            out[v] = out[v] + e if v in out else e
        return RootVector(self.labels, out)

    def __sub__(self, other: "RootVector") -> "RootVector":
        return self + (-other)

    def __neg__(self) -> "RootVector":
        return RootVector(self.labels, {v: -e for v, e in self.entries.items()})

    def scale(self, x) -> "RootVector":
        """Multiply every entry by a fusion element or integer."""
        return RootVector(self.labels, {v: e * x for v, e in self.entries.items()})

    def __bool__(self):
        return bool(self.entries)

    def _state(self):
        return self.labels, self.key()

    def key(self) -> tuple:
        if self._key is None:
            object.__setattr__(
                self,
                "_key",
                tuple(sorted((v, e.key()) for v, e in self.entries.items())),
            )
        return self._key

    def serialize(self) -> str:
        """Compact JSON with sorted keys: the sort key of `RootSet.sorted`."""
        return _write([(v, _class_text(e)) for v, e in self.key()])

    def to_json(self) -> dict:
        return {v: e.to_json() for v, e in self.entries.items()}

    @classmethod
    def from_json(cls, obj, labels) -> "RootVector":
        labels = tuple(sorted(set(labels)))
        return cls(
            labels, {str(v): FusionElem.from_json(e, labels) for v, e in obj.items()}
        )

    def __repr__(self):
        if not self.entries:
            return "RootVector(0)"
        body = "; ".join(f"{v}: {e!r}" for v, e in sorted(self.entries.items()))
        return f"RootVector({body})"


def is_positive_vec(v: RootVector) -> bool:
    """Every stored entry is a positive class and the vector is non-zero."""
    return bool(v.entries) and all(is_positive_elem(e) for e in v.entries.values())


def _check_vector(Q: CoxeterQuiver, w: RootVector):
    if w.labels != Q.label_set:
        raise MismatchedQuiver("root vector over a different label set")
    for x in w.entries:
        Q._require(x)


def bilinear_form(Q: CoxeterQuiver, u: RootVector, v: RootVector) -> FusionElem:
    """Fusion-ring valued symmetric form: 2 on the diagonal, minus the sum of
    label classes over the edges between two distinct vertices."""
    _check_vector(Q, u)
    _check_vector(Q, v)
    labels = Q.label_set
    total = FusionElem.zero(labels)
    for x, ux in u.entries.items():
        vx = v.entries.get(x)
        if vx is not None:
            total = total + ux * vx * 2
    for a in Q.arrows:
        cross = u.entry(a.source) * v.entry(a.target) + u.entry(a.target) * v.entry(a.source)
        total = total - arrow_label_class(labels, a.label) * cross
    return total


def reflect(Q: CoxeterQuiver, i: str, v: RootVector) -> RootVector:
    """Simple reflection at i: subtract B(e_i, v) from the i-th entry, a sum
    over the arrows at i only."""
    i = str(i)
    Q._require(i)
    _check_vector(Q, v)
    new_i = -v.entry(i)
    for a in Q.incident_arrows(i):
        j = a.source if a.target == i else a.target
        new_i = new_i + arrow_label_class(v.labels, a.label) * v.entry(j)
    out = dict(v.entries)
    if new_i:
        out[i] = new_i
    else:
        out.pop(i, None)
    return RootVector(v.labels, out)


def _fold(uq, coords) -> RootVector:
    """The root vector of integer coordinates over the unfolded quiver uq,
    given as (unfolded vertex, int) pairs: the class at v is the sum of
    d [B] over the pairs ((B, v), d)."""
    labels = uq.source.label_set
    classes: dict[str, dict[SimpleObject, int]] = {}
    for name, d in coords:
        if d:
            simple, v = uq.parts[name]
            classes.setdefault(v, {})[simple] = d
    return RootVector(labels, {v: FusionElem._trusted(labels, c) for v, c in classes.items()})


def _int_reflections(uq) -> dict[str, tuple[tuple[int, tuple[int, ...]], ...]]:
    """The simple reflection at each vertex i of uq.source in integer
    coordinates over the vertices of its unfolding uq, the same in every
    orientation: for each unfolded u over i, the position of u and the
    positions of its neighbours, one per arrow at u in either direction."""
    index = {u: k for k, u in enumerate(uq.vertices)}

    def nbrs(u):
        return [index[a.source] for a in uq.in_arrows(u)] + [index[a.target] for a in uq.out_arrows(u)]

    return {i: tuple((index[u], tuple(nbrs(u))) for u in uq.vertices_over(i)) for i in uq.source.vertices}


def _int_reflect(x: tuple[int, ...], reflection) -> tuple[int, ...]:
    # x[u] becomes the sum over u's neighbours minus x[u]; the unfolded
    # vertices over one vertex are pairwise non-adjacent, so the order of the
    # pairs does not matter
    y = list(x)
    for u, nbrs in reflection:
        y[u] = sum([x[w] for w in nbrs]) - x[u]
    return tuple(y)


def _check_ordering(Q: CoxeterQuiver, ordering) -> tuple[str, ...]:
    ordering = tuple(str(x) for x in ordering)
    if sorted(ordering) != sorted(Q.vertices):
        raise InvalidOrdering("ordering is not a permutation of the vertices")
    return ordering


def coxeter_apply(Q: CoxeterQuiver, ordering, v: RootVector) -> RootVector:
    """Apply the Coxeter element of the ordering: reflections in list order."""
    ordering = _check_ordering(Q, ordering)
    for i in ordering:
        v = reflect(Q, i, v)
    return v


def coxeter_order(Q: CoxeterQuiver, ordering) -> int:
    """Order of the Coxeter element acting on the standard basis."""
    ordering = _check_ordering(Q, ordering)
    basis = [RootVector.basis(Q, i) for i in Q.vertices]
    current = list(basis)
    for power in range(1, 10000):
        current = [coxeter_apply(Q, ordering, w) for w in current]
        if current == basis:
            return power
    raise CapExceeded("Coxeter element order not found below 10000")


class RootSet(Value):
    """A deduplicated set of root vectors; closed means stable under all
    simple reflections (up to the sign filter used to build it)."""

    __slots__ = ("roots", "closed")

    def __init__(self, roots: frozenset[RootVector], closed: bool):
        _set_slots(self, roots, closed)

    def __len__(self):
        return len(self.roots)

    def sorted(self) -> list[RootVector]:
        return sorted(self.roots, key=lambda r: r.serialize())


DEFAULT_BUDGET = 10_000


def _int_orbit(uq, budget: int):
    """The reflection orbit of the simple roots of uq.source in integer
    coordinates over the vertices of its unfolding uq.

    Breadth first from the simple roots in vertex order, reflecting in vertex
    order: the image under `_fold` of the fusion-valued closure, member by
    member, so the budget trips at the same orbit size.  A member is
    positive iff its least coordinate is >= 0 (no member is zero)."""
    vertices = uq.source.vertices
    reflections = _int_reflections(uq)
    # the simple root at i is 1 at the unit simple over i
    start = {v: k for k, (B, v) in enumerate(map(uq.parts.get, uq.vertices)) if B.is_unit()}
    frontier = [tuple(int(k == start[i]) for k in range(len(uq.vertices))) for i in vertices]
    seen = set(frontier)
    while frontier:
        nxt = []
        for x in frontier:
            for i in vertices:
                y = _int_reflect(x, reflections[i])
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
                    if len(seen) > budget:
                        partial = frozenset(_fold(uq, zip(uq.vertices, z)) for z in seen if min(z) >= 0)
                        raise OrbitBudgetExceeded(f"orbit exceeded budget {budget}", RootSet(partial, False))
        frontier = nxt
    return seen


def root_orbit(Q: CoxeterQuiver, budget: int = DEFAULT_BUDGET) -> frozenset[RootVector]:
    """Closure of the simple roots under all simple reflections, both signs."""
    from .unfold import unfold  # unfold imports RootVector from here

    uq = unfold(Q)
    return frozenset(_fold(uq, zip(uq.vertices, x)) for x in _int_orbit(uq, budget))


def _product_tables(uq, simples) -> list[list[tuple[int, ...]]]:
    """For each simple X of `simples`, the table of multiplication by X in
    the coordinates of `_int_orbit`: at the position of B@v, the positions of
    C@v for the simples C in X ⊗ B, read off the one product of simples,
    `fusion._simple_mul`."""
    parts = [uq.parts[u] for u in uq.vertices]
    position = {part: k for k, part in enumerate(parts)}
    return [[tuple(position[C, v] for C in _simple_mul(X, B)) for B, v in parts] for X in simples]


def _act(table, x: tuple[int, ...]) -> tuple[int, ...]:
    """X · x for the `_product_tables` table of a simple X."""
    y = [0] * len(x)
    for k, c in enumerate(x):
        if c:
            for t in table[k]:
                y[t] += c
    return tuple(y)


def _positive(uq, budget: int) -> set[tuple[int, ...]]:
    """The positive roots of uq.source as integer tuples, one per class under
    the invertible simples: the serialization-minimal member of each class."""
    positive = [x for x in _int_orbit(uq, budget) if min(x) >= 0]
    units = [s for s in uq.irr if not s.is_unit() and _is_invertible(s)]
    if not units:
        return set(positive)
    tables = _product_tables(uq, units)
    serialize = _Layout(uq).serialize
    chosen, seen = set(), set()
    for x in positive:
        if x not in seen:
            twists = [x] + [_act(t, x) for t in tables]
            seen.update(twists)
            chosen.add(min(twists, key=serialize))
    return chosen


def _extend(uq, roots) -> set[tuple[int, ...]]:
    """All X · x for X a simple and x one of `roots`, deduplicated."""
    out = set(roots)
    tables = _product_tables(uq, [s for s in uq.irr if not s.is_unit()])
    for x in list(out):
        out.update([_act(t, x) for t in tables])
    return out


def _coordinates(uq, r: RootVector) -> tuple[int, ...]:
    """The integer tuple that `_fold` takes to r."""
    _check_vector(uq.source, r)
    position = {part: k for k, part in enumerate(map(uq.parts.__getitem__, uq.vertices))}
    x = [0] * len(uq.vertices)
    for v, e in r.entries.items():
        for B, c in e.coeffs.items():
            x[position[B, v]] = c
    return tuple(x)


def _class_text(pairs) -> str:
    """The serialized class at one vertex, without its braces: the (simple
    key, coefficient) pairs in key order, the zero coefficients left out."""
    return ",".join([f"{_escape(k)}:{c}" for k, c in pairs if c])


def _write(blocks) -> str:
    """The serialized form of a root, compact JSON with sorted keys, from
    its (vertex, `_class_text`) blocks in vertex order; the empty ones are
    left out."""
    return "{" + ",".join([f"{_escape(v)}:{{{text}}}" for v, text in blocks if text]) + "}"


class _Shared(dict):
    """A sub-document that a --json document may hold in several places: the
    CLI writer writes its text once per indent and then reuses it.  It is a
    plain dict to every other reader, so it must not be changed once built."""

    __slots__ = ()


class _Layout:
    """The serialized form and the JSON of the integer tuples over an
    unfolding, as `RootVector.serialize` and `to_json` give them for the
    folded root: the vertices of its source sorted by id, each with the
    positions of the simples over it sorted by key.  The class at a vertex
    is written once per distinct slice of coordinates and then looked up;
    `to_json` holds that one `_Shared` entry wherever the class recurs."""

    __slots__ = ("blocks",)

    def __init__(self, uq):
        over: dict[str, list] = {}
        for k, (B, v) in enumerate(map(uq.parts.__getitem__, uq.vertices)):
            over.setdefault(v, []).append((B.key, k))
        self.blocks = []
        for v, cells in sorted(over.items()):
            cells.sort()
            keys = tuple(key for key, _ in cells)
            self.blocks.append((v, keys, itemgetter(*(k for _, k in cells)), {}))

    @staticmethod
    def _class(block, x) -> tuple[str, dict]:
        _, keys, get, memo = block
        values = get(x)
        found = memo.get(values)
        if found is None:
            entry = _Shared({k: c for k, c in zip(keys, values if len(keys) > 1 else (values,)) if c})
            found = memo[values] = (_class_text(entry.items()), entry)
        return found

    def serialize(self, x: tuple[int, ...]) -> str:
        return _write([(block[0], self._class(block, x)[0]) for block in self.blocks])

    def to_json(self, x: tuple[int, ...]) -> dict:
        out = {}
        for block in self.blocks:
            entry = self._class(block, x)[1]
            if entry:
                out[block[0]] = entry
        return out


def _folded(uq, roots, closed: bool = True) -> RootSet:
    return RootSet(frozenset(_fold(uq, zip(uq.vertices, x)) for x in roots), closed)


def positive_roots(Q: CoxeterQuiver, budget: int = DEFAULT_BUDGET) -> RootSet:
    """Positive members of the reflection orbit of the simple roots, one per
    class under scaling by invertible simple classes.

    When an even label is present its top simple is an invertible involution
    and the raw orbit carries each root twice (the root and its twist); the
    canonical representative is the serialization-minimal one.  This is what
    makes positive root counts match the classical Coxeter tables and the
    extended positive roots a disjoint union over the simples.
    """
    from .unfold import unfold

    uq = unfold(Q)
    return _folded(uq, _positive(uq, budget))


def extended_positive_roots(Q: CoxeterQuiver, budget: int = DEFAULT_BUDGET) -> RootSet:
    """All products (simple class) * (positive root), deduplicated."""
    from .unfold import unfold

    uq = unfold(Q)
    return _folded(uq, _extend(uq, _positive(uq, budget)))


def extend_by_simples(Q: CoxeterQuiver, base: RootSet) -> RootSet:
    """All products (simple class) * r for r in the positive roots `base`."""
    from .unfold import unfold

    uq = unfold(Q)
    return _folded(uq, _extend(uq, [_coordinates(uq, r) for r in base.roots]), base.closed)


def depositivize_exponent(
    Q: CoxeterQuiver, ordering, v: RootVector, cap: int = 1000
) -> int:
    """Least r >= 1 with the r-th Coxeter power of v not positive."""
    ordering = _check_ordering(Q, ordering)
    if not is_positive_vec(v):
        raise ValueError("starting vector must be positive")
    w = v
    for r in range(1, cap + 1):
        w = coxeter_apply(Q, ordering, w)
        if not is_positive_vec(w):
            return r
    raise CapExceeded(f"no depositivizing exponent below {cap}")
