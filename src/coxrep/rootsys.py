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
orbit (`_int_orbit`) and `coxeter_order` run on the images of the
fusion-valued reflections, off one `_Walk`.  A simple X acts by `_act`:
e_{B@v} goes to the sum of e_{C@v} over the simples C in X ⊗ B.
The canonical twist of a positive root is the serialization-minimal member
of {x} ∪ {u·x} over the invertible simples u (`_positive`), and `_extend`
multiplies by every simple.

Tuples are folded to `RootVector`s (`_fold`) only where the public API
returns them, and read off them (`_coordinates`) where it takes them.
`reflect` keeps the fusion-valued rule, the tests' reference for the orbit
and `coxeter_order`; `coxeter_apply` and `depositivize_exponent` loop over
it, as one sparse vector needs no unfolding.  Both reflections are local:
`reflect` at i reads the arrows Q stores at i, one label class each, and
the integer reflection reads the arrows the unfolding stores over i.
"""

from __future__ import annotations

from functools import cached_property, reduce
from math import lcm
from json.encoder import encode_basestring_ascii as _escape
from operator import itemgetter, neg, sub

from ._jsontext import _INDENT, _obj, _Part
from ._values import Value, _set_slots
from .fusion import (
    FusionElem,
    SimpleObject,
    _is_invertible,
    _simple_mul,
    arrow_label_class,
    is_positive_elem,
)
from .quiver import CoxeterQuiver, classify_graph


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


def _gather(positions):
    """x -> the tuple of x at the positions (a list): a slice where they are
    evenly spaced, none or one included, and `itemgetter` otherwise."""
    if not positions:
        return itemgetter(slice(0, 0))
    step = positions[1] - positions[0] if len(positions) > 1 else 1
    if step > 0 and positions == list(range(positions[0], positions[-1] + 1, step)):
        return itemgetter(slice(positions[0], positions[-1] + 1, step))
    return itemgetter(*positions)


def _int_reflections(walk: "_Walk") -> dict[str, tuple]:
    """The simple reflection at each vertex i of Q = walk.uq.source in
    integer coordinates over the positions of the walk, the same in every
    orientation, compiled once for `_int_reflect` into `itemgetter`
    gathers.  Each unfolded u over i has the positions of its neighbours,
    one per arrow at u in either direction.  The u are kept in three lists:
    those with one neighbour (a gather of the neighbours and one of the u),
    those with several (a gather of the neighbours per u) and those with
    none (a gather of the u).  The last gather reads x followed by the new
    values, in that list order, and puts each new value at its u."""
    uq, position = walk.uq, walk.position
    n = len(position)
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for a in uq.arrows:
        s, t = position[uq.parts[a.source]], position[uq.parts[a.target]]
        nbrs[s].append(t)
        nbrs[t].append(s)
    out = {}
    for i in uq.source.vertices:
        one, many, none = [], [], []
        for u in sorted(position[B, i] for B in uq.irr):
            (many if len(nbrs[u]) > 1 else one if nbrs[u] else none).append(u)
        put = list(range(n))
        for k, u in enumerate(one + many + none, n):
            put[u] = k
        out[i] = (
            _gather([nbrs[u][0] for u in one]) if one else None,
            _gather(one),
            tuple((u, _gather(nbrs[u])) for u in many),
            _gather(none) if none else None,
            _gather(put),
        )
    return out


def _int_reflect(x: tuple[int, ...], reflection) -> tuple[int, ...]:
    # x[u] becomes the sum over u's neighbours minus x[u]; the unfolded
    # vertices over one vertex are pairwise non-adjacent, so every new value
    # reads x alone
    one_w, one_u, many, none, put = reflection
    new = list(map(sub, one_w(x), one_u(x))) if one_w else []
    for u, nbrs in many:
        new.append(sum(nbrs(x)) - x[u])
    if none:
        new += map(neg, none(x))
    return put(x + tuple(new))


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


_ORDER_CAP = 10000


def coxeter_order(Q: CoxeterQuiver, ordering) -> int:
    """Order of the Coxeter element on the standard basis: the lcm over the
    components, which commute, of the order on the walk of the component
    alone, which unfolds only the component's labels.  CapExceeded at once
    outside finite type (infinite order, Howlett 1982) and for a label
    m >= the cap, which in finite type labels a component I2(m) of Coxeter
    number m."""
    ordering = _check_ordering(Q, ordering)
    components = classify_graph(Q)
    if not all(t.is_dynkin for _, t in components) or max(Q.label_set, default=0) >= _ORDER_CAP:
        raise CapExceeded(f"Coxeter element order not found below {_ORDER_CAP}")
    order = 1
    for vertices, _ in components:
        walk = _walk(CoxeterQuiver(vertices, [a for a in Q.arrows if a.source in vertices]))
        steps = [walk.reflections[i] for i in ordering if i in vertices]
        current = basis = [walk.basis(i) for i in vertices]
        power = 1
        while power < _ORDER_CAP and (current := [reduce(_int_reflect, steps, x) for x in current]) != basis:
            power += 1
        order = lcm(order, power)
    if order >= _ORDER_CAP:
        raise CapExceeded(f"Coxeter element order not found below {_ORDER_CAP}")
    return order


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


def _int_orbit(walk: "_Walk", budget: int):
    """The reflection orbit of the simple roots of Q = walk.uq.source in
    integer coordinates over the vertices of its unfolding.

    Breadth first from the simple roots in vertex order, reflecting in vertex
    order: the image under `_fold` of the fusion-valued closure, member by
    member, so the budget trips at the same orbit size.  A member is not
    reflected at the vertex it came through: a reflection is an involution,
    so that gives back the member it came from, which is already seen.  A
    member is positive iff its least coordinate is >= 0 (no member is
    zero)."""
    Q = walk.uq.source
    steps = [(k, walk.reflections[i]) for k, i in enumerate(Q.vertices)]
    # the reflections after coming through vertex k, and (last) from a simple
    rest = [[step for step in steps if step[0] != k] for k in range(len(steps))] + [steps]
    frontier = [(walk.basis(i), -1) for i in Q.vertices]
    seen = {x for x, _ in frontier}
    while frontier:
        nxt = []
        for x, back in frontier:
            for k, reflection in rest[back]:
                y = _int_reflect(x, reflection)
                if y not in seen:
                    seen.add(y)
                    nxt.append((y, k))
                    if len(seen) > budget:
                        partial = frozenset(walk.fold(z) for z in seen if min(z) >= 0)
                        raise OrbitBudgetExceeded(f"orbit exceeded budget {budget}", RootSet(partial, False))
        frontier = nxt
    return seen


def root_orbit(Q: CoxeterQuiver, budget: int = DEFAULT_BUDGET) -> frozenset[RootVector]:
    """Closure of the simple roots under all simple reflections, both signs."""
    walk = _walk(Q)
    return frozenset(map(walk.fold, _int_orbit(walk, budget)))


def _support(x: tuple[int, ...]) -> list[tuple[int, int]]:
    """The (position, coordinate) pairs of x with a non-zero coordinate."""
    return [(k, c) for k, c in enumerate(x) if c]


def _act(table, support) -> tuple[int, ...]:
    """X · x for the `_Walk.table` of a simple X, from the `_support` of x."""
    y = [0] * len(table)
    for k, c in support:
        for t in table[k]:
            y[t] += c
    return tuple(y)


def _positive(walk: "_Walk", budget: int) -> set[tuple[int, ...]]:
    """The positive roots of walk.uq.source as integer tuples, one per class
    under the invertible simples: the serialization-minimal member of each
    class, serialized by the walk."""
    positive = [x for x in _int_orbit(walk, budget) if min(x) >= 0]
    tables = [walk.table(s) for s in walk.uq.irr if not s.is_unit() and _is_invertible(s)]
    if not tables:
        return set(positive)
    chosen, seen = set(), set()
    for x in positive:
        if x not in seen:
            support = _support(x)
            twists = [x] + [_act(t, support) for t in tables]
            seen.update(twists)
            chosen.add(min(twists, key=walk.serialize))
    return chosen


def _extend(walk: "_Walk", roots) -> set[tuple[int, ...]]:
    """All X · x for X a simple and x one of `roots`, deduplicated."""
    out = set(roots)
    tables = [walk.table(s) for s in walk.uq.irr if not s.is_unit()]
    if tables:
        for x in list(out):
            support = _support(x)
            out.update([_act(t, support) for t in tables])
    return out


def _coordinates(walk: "_Walk", r: RootVector) -> tuple[int, ...]:
    """The integer tuple that `_fold` takes to r."""
    _check_vector(walk.uq.source, r)
    x = [0] * len(walk.position)
    for v, e in r.entries.items():
        for B, c in e.coeffs.items():
            x[walk.position[B, v]] = c
    return tuple(x)


def _class_text(pairs) -> str:
    """The serialized class at one vertex, without its braces: the (simple
    key, coefficient) pairs in key order, the zero coefficients left out."""
    return ",".join([f"{_escape(k)}:{c}" for k, c in pairs if c])


def _write(blocks) -> str:
    """The serialized form of a root, compact JSON with sorted keys, from
    the (vertex, `_class_text`) blocks of its non-zero classes in vertex
    order."""
    return "{" + ",".join([f"{_escape(v)}:{{{text}}}" for v, text in blocks]) + "}"


class _Walk:
    """The compiled form of the unfolding uq that one call reads: the
    `position` of each pair (B, v) and, built on first use, the
    `reflections` (`_int_reflections`), each simple's product `table` and
    the layout `blocks`, the vertices of uq.source sorted by id, each with
    the simples over it sorted by key, as `RootVector.serialize` and
    `to_json` write a fold.  A class is read once per distinct slice of
    coordinates, and its serialized text, its (simple key, coefficient)
    pairs and its --json text at each indent are then looked up."""

    def __init__(self, uq):
        self.uq = uq
        self.position = {uq.parts[u]: k for k, u in enumerate(uq.vertices)}
        self.tables: dict[SimpleObject, list[tuple[int, ...]]] = {}

    @cached_property
    def reflections(self) -> dict[str, tuple]:
        return _int_reflections(self)

    @cached_property
    def blocks(self) -> list:
        simples = sorted(self.uq.irr, key=lambda B: B.key)
        keys = tuple(B.key for B in simples)
        return [(v, keys, _gather([self.position[B, v] for B in simples]), {}) for v in sorted(self.uq.source.vertices)]

    def basis(self, v: str, B: SimpleObject | None = None) -> tuple[int, ...]:
        """The unit vector at (B, v), at the unit simple by default."""
        k = self.position[B or SimpleObject.unit(self.uq.source.label_set), v]
        return tuple(int(j == k) for j in range(len(self.position)))

    def table(self, X: SimpleObject) -> list[tuple[int, ...]]:
        """At the position of B@v, those of the C@v for C in X ⊗ B."""
        table = self.tables.get(X)
        if table is None:
            position = self.position
            table = self.tables[X] = [tuple(position[C, v] for C in _simple_mul(X, B)) for B, v in position]
        return table

    def fold(self, x: tuple[int, ...]) -> RootVector:
        return _fold(self.uq, zip(self.uq.vertices, x))

    def _classes(self, x: tuple[int, ...]) -> list[tuple[str, tuple]]:
        """The (vertex, class) pairs of the non-zero classes of x, a class
        being its serialized text, its pairs and its texts by indent."""
        out = []
        for v, keys, get, memo in self.blocks:
            values = get(x)
            cls = memo.get(values)
            if cls is None:
                pairs = [(k, c) for k, c in zip(keys, values) if c]
                cls = memo[values] = (_class_text(pairs), pairs, {}) if pairs else ()
            if cls:
                out.append((v, cls))
        return out

    def serialize(self, x: tuple[int, ...]) -> str:
        return _write([(v, cls[0]) for v, cls in self._classes(x)])

    def part(self, x: tuple[int, ...]) -> _Part:
        return _Part(_root_json, self._classes(x))

    def keyed(self, x: tuple[int, ...]) -> tuple[str, _Part]:
        """The serialized form of x and its part, from one read of each block."""
        classes = self._classes(x)
        return _write([(v, cls[0]) for v, cls in classes]), _Part(_root_json, classes)


def _root_json(classes, pad: str) -> str:
    """The --json text at the indent pad of a root's non-zero `_Walk`
    classes, each class written once per indent."""
    inner = pad + _INDENT
    return _obj(pad, [(v, cls[2].get(inner) or _class_json(cls, inner)) for v, cls in classes])


def _class_json(cls, pad: str) -> str:
    """The --json text of a `_Walk` class at the indent pad, kept for the
    next root that holds the class there."""
    _, pairs, texts = cls
    text = texts[pad] = _obj(pad, [(k, str(c)) for k, c in pairs])
    return text


def _walk(Q: CoxeterQuiver) -> _Walk:
    from .unfold import unfold  # unfold imports RootVector from here
    return _Walk(unfold(Q))


def _folded(walk: _Walk, roots, closed: bool = True) -> RootSet:
    return RootSet(frozenset(map(walk.fold, roots)), closed)


def positive_roots(Q: CoxeterQuiver, budget: int = DEFAULT_BUDGET) -> RootSet:
    """Positive members of the reflection orbit of the simple roots, one per
    class under scaling by invertible simple classes.

    When an even label is present its top simple is an invertible involution
    and the raw orbit carries each root twice (the root and its twist); the
    canonical representative is the serialization-minimal one.  This is what
    makes positive root counts match the classical Coxeter tables and the
    extended positive roots a disjoint union over the simples.
    """
    walk = _walk(Q)
    return _folded(walk, _positive(walk, budget))


def extended_positive_roots(Q: CoxeterQuiver, budget: int = DEFAULT_BUDGET) -> RootSet:
    """All products (simple class) * (positive root), deduplicated."""
    walk = _walk(Q)
    return _folded(walk, _extend(walk, _positive(walk, budget)))


def extend_by_simples(Q: CoxeterQuiver, base: RootSet) -> RootSet:
    """All products (simple class) * r for r in the positive roots `base`."""
    walk = _walk(Q)
    return _folded(walk, _extend(walk, [_coordinates(walk, r) for r in base.roots]), base.closed)


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
