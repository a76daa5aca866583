"""Coxeter quivers: validation, sink orderings and Coxeter-Dynkin recognition.

A Coxeter quiver is a finite acyclic directed multigraph whose arrows carry
integer labels >= 3; label 3 is the classical unlabelled arrow.  Vertex ids are
arbitrary strings; ids of ASCII digits with an optional leading minus come
first, ordered by value.

Every walk reads the arrows into and out of a vertex from the tuples stored
at construction.  Each graph question is answered by one walk.  The admissible
sink ordering is Kahn's algorithm on the out-degrees, and the same walk is the
acyclicity check of every quiver built.  Components come from one search over
the incident arrows; a component is Coxeter-Dynkin only if it is a tree with
at most one vertex of degree 3, and its type is read off the label sequences
of the arms that leave that vertex, or of the path from its lowest end.
"""

from __future__ import annotations

import json
import re
from heapq import heappop, heappush
from operator import attrgetter

from ._values import Value, _set_slots


class QuiverError(Exception):
    """Base class for structural quiver errors."""


class CyclicQuiver(QuiverError):
    pass


class LoopArrow(QuiverError):
    pass


class InvalidLabel(QuiverError):
    pass


class UnknownVertex(QuiverError):
    pass


class QuiverParseError(Exception):
    """Malformed quiver text or JSON."""


_NUMERIC_ID = re.compile("-?[0-9]+")


def vertex_key(v: str):
    """Sort key, total and injective on strings: numeric ids (ASCII digits
    with an optional leading minus) come first, by value and then by text
    ("-0" before "0", "01" before "1"), then every other id by text."""
    s = str(v)
    if _NUMERIC_ID.fullmatch(s):
        return (0, int(s), s)
    return (1, 0, s)


def _grouped(keys, items, key) -> dict:
    """One tuple per key of the items x with key(x) == key, in item order."""
    groups = {k: [] for k in keys}
    for x in items:
        groups[key(x)].append(x)
    return {k: tuple(group) for k, group in groups.items()}


class Arrow(Value):
    __slots__ = ("id", "source", "target", "label")

    def __init__(self, id: str, source: str, target: str, label: int = 3):
        _set_slots(self, id, source, target, label)


class CoxeterQuiver(Value):
    """Immutable validated Coxeter quiver."""

    __slots__ = ("vertices", "arrows", "_out", "_in")

    def __init__(self, vertices, arrows):
        verts = [str(v) for v in vertices]
        if len(set(verts)) != len(verts):
            raise QuiverError("duplicate vertex id")
        verts = tuple(sorted(verts, key=vertex_key))
        vset = set(verts)
        arrs = []
        for a in arrows:
            if not isinstance(a, Arrow):
                a = Arrow(*a)
            if type(a.label) is not int:
                raise TypeError(f"arrow {a.id}: label {a.label!r} is not an integer")
            a = Arrow(str(a.id), str(a.source), str(a.target), a.label)
            if a.source not in vset:
                raise UnknownVertex(f"arrow {a.id}: unknown source {a.source!r}")
            if a.target not in vset:
                raise UnknownVertex(f"arrow {a.id}: unknown target {a.target!r}")
            if a.source == a.target:
                raise LoopArrow(f"arrow {a.id} is a loop at {a.source!r}")
            if a.label < 3:
                raise InvalidLabel(f"arrow {a.id}: label {a.label} < 3")
            arrs.append(a)
        if len({a.id for a in arrs}) != len(arrs):
            raise QuiverError("duplicate arrow id")
        arrs = tuple(sorted(arrs, key=lambda a: vertex_key(a.id)))
        out, into = (_grouped(verts, arrs, attrgetter(end)) for end in ("source", "target"))
        _set_slots(self, verts, arrs, out, into)
        admissible_sink_ordering(self)

    @property
    def label_set(self) -> tuple[int, ...]:
        return tuple(sorted({a.label for a in self.arrows}))

    def out_arrows(self, v: str) -> tuple[Arrow, ...]:
        return self._out[str(v)]

    def in_arrows(self, v: str) -> tuple[Arrow, ...]:
        return self._in[str(v)]

    def incident_arrows(self, v: str) -> tuple[Arrow, ...]:
        """The arrows into v, then the arrows out of v."""
        return self._in[str(v)] + self._out[str(v)]

    def is_sink(self, v: str) -> bool:
        self._require(v)
        return not self._out[str(v)]

    def is_source(self, v: str) -> bool:
        self._require(v)
        return not self._in[str(v)]

    def sinks(self) -> tuple[str, ...]:
        return tuple(v for v in self.vertices if not self._out[v])

    def sources(self) -> tuple[str, ...]:
        return tuple(v for v in self.vertices if not self._in[v])

    def _require(self, v: str):
        if str(v) not in self._out:
            raise UnknownVertex(f"unknown vertex {v!r}")

    def _state(self):
        return self.vertices, self.arrows

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "arrows": [
                {"id": a.id, "source": a.source, "target": a.target, "label": a.label}
                for a in self.arrows
            ],
        }

    @classmethod
    def from_json(cls, obj) -> "CoxeterQuiver":
        try:
            vertices, arrow_objs = obj["vertices"], obj.get("arrows", [])
            if type(vertices) is not list or type(arrow_objs) is not list:
                raise TypeError('"vertices" and "arrows" must be arrays')
            # an id is a string or an integer (no bool), read as str(2) == "2"
            ids = vertices + [a[k] for a in arrow_objs for k in ("id", "source", "target") if k in a]
            bad = [x for x in ids if type(x) not in (str, int)]
            if bad:
                raise TypeError(f"id {bad[0]!r} is not a string or an integer")
            vertices = [str(v) for v in vertices]
            arrows = []
            for k, a in enumerate(arrow_objs):
                label = a.get("label", 3)
                if type(label) is not int:
                    raise TypeError(f"label {label!r} is not an integer")
                arrows.append(
                    Arrow(str(a.get("id", f"a{k}")), str(a["source"]), str(a["target"]), label)
                )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise QuiverParseError(f"bad quiver JSON: {exc}") from exc
        return cls(vertices, arrows)

    def __repr__(self):
        return f"CoxeterQuiver({len(self.vertices)} vertices, {len(self.arrows)} arrows)"


def validate(vertices, arrows) -> CoxeterQuiver:
    """Canonicalize raw quiver data, rejecting cycles, loops and labels < 3."""
    return CoxeterQuiver(vertices, arrows)


def parse_quiver(text: str) -> CoxeterQuiver:
    """Parse the line format: `vertex <id>` and `arrow <src> <dst> [label]`.

    A missing label means 3.  Lines may carry `#` comments.  JSON input
    (detected by a leading brace) is parsed through :meth:`CoxeterQuiver.from_json`.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise QuiverParseError(f"bad JSON: {exc}") from exc
        return CoxeterQuiver.from_json(obj)
    vertices: list[str] = []
    arrows: list[Arrow] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertex" and len(parts) == 2:
            vertices.append(parts[1])
        elif parts[0] == "arrow" and len(parts) in (3, 4):
            label = 3
            if len(parts) == 4:
                try:
                    label = int(parts[3])
                except ValueError as exc:
                    raise QuiverParseError(
                        f"line {lineno}: label {parts[3]!r} is not an integer"
                    ) from exc
            arrows.append(Arrow(f"a{len(arrows)}", parts[1], parts[2], label))
        else:
            raise QuiverParseError(f"line {lineno}: cannot parse {raw!r}")
    declared = set(vertices)
    if any(a.source not in declared or a.target not in declared for a in arrows):
        raise QuiverParseError("arrow endpoint references an undeclared vertex")
    return CoxeterQuiver(vertices, arrows)


def reverse_at(Q: CoxeterQuiver, i: str) -> CoxeterQuiver:
    """Reverse every arrow incident to i, preserving ids and labels."""
    i = str(i)
    Q._require(i)
    arrows = [
        Arrow(a.id, a.target, a.source, a.label)
        if i in (a.source, a.target)
        else a
        for a in Q.arrows
    ]
    return CoxeterQuiver(Q.vertices, arrows)


def admissible_sink_ordering(Q: CoxeterQuiver) -> tuple[str, ...]:
    """Ordering v1..vk with v1 a sink and each vj a sink after reversing at
    the previous vertices; reversing at all of them restores Q.

    Equivalently a linear order in which every arrow points from a later
    vertex to an earlier one.  Ties break to the lowest vertex id.  Raises
    CyclicQuiver when some vertex never becomes a sink.
    """
    # Kahn's algorithm on the out-degrees; the heap holds positions in
    # Q.vertices, which is sorted by vertex_key
    position = {v: k for k, v in enumerate(Q.vertices)}
    outdeg = [len(Q._out[v]) for v in Q.vertices]
    ready = [k for k, d in enumerate(outdeg) if not d]
    placed: list[str] = []
    while ready:
        v = Q.vertices[heappop(ready)]
        placed.append(v)
        for a in Q._in[v]:
            k = position[a.source]
            outdeg[k] -= 1
            if not outdeg[k]:
                heappush(ready, k)
    if len(placed) != len(Q.vertices):
        raise CyclicQuiver("quiver contains a directed cycle")
    return tuple(placed)


class DynkinType(Value):
    """A Coxeter-Dynkin family with its rank or gonality, or NotDynkin."""

    __slots__ = ("family", "param")

    def __init__(self, family: str, param: int | None = None):
        _set_slots(self, family, param)

    @property
    def name(self) -> str:
        if self.family == "NotDynkin":
            return "NotDynkin"
        if self.family == "I2":
            return f"I2({self.param})"
        return f"{self.family}{self.param}"

    @property
    def is_dynkin(self) -> bool:
        return self.family != "NotDynkin"

    def __repr__(self):
        return self.name


NOT_DYNKIN = DynkinType("NotDynkin")


_E_ARMS = {(1, 2, 2): 6, (1, 2, 3): 7, (1, 2, 4): 8}


def _arm_labels(adj, start, w, label) -> list[int]:
    """Labels along the arm that leaves start through the edge (w, label),
    up to the first vertex whose degree is not 2."""
    labels, prev = [label], start
    while len(adj[w]) == 2:
        nxt = adj[w][0] if adj[w][0][0] != prev else adj[w][1]
        prev, (w, label) = w, nxt
        labels.append(label)
    return labels


def _classify_component(vertices, adj) -> DynkinType:
    """Type of a connected component; adj maps each of its vertices to its
    (neighbour, label) pairs, one per incident arrow."""
    n = len(vertices)
    if sum(len(adj[v]) for v in vertices) != 2 * (n - 1):
        return NOT_DYNKIN  # a cycle, possibly a multi-edge
    centres = [v for v in vertices if len(adj[v]) > 2]
    if len(centres) > 1 or any(len(adj[v]) > 3 for v in centres):
        return NOT_DYNKIN
    start = centres[0] if centres else next(v for v in vertices if len(adj[v]) < 2)
    arms = [_arm_labels(adj, start, w, label) for w, label in adj[start]]
    if centres:
        if any(label != 3 for arm in arms for label in arm):
            return NOT_DYNKIN
        lengths = tuple(sorted(map(len, arms)))
        if lengths[:2] == (1, 1):
            return DynkinType("D", n)
        return DynkinType("E", _E_ARMS[lengths]) if lengths in _E_ARMS else NOT_DYNKIN
    labels = arms[0] if arms else []
    high = [k for k, m in enumerate(labels) if m > 3]
    if not high:
        return DynkinType("A", n)
    if len(high) > 1:
        return NOT_DYNKIN
    k = high[0]
    m = labels[k]
    at_end = k in (0, n - 2)
    if n == 2:
        if m == 4:
            return DynkinType("B", 2)
        if m == 6:
            return DynkinType("G", 2)
        return DynkinType("I2", m)
    if m == 4 and at_end:
        return DynkinType("B", n)
    if m == 4 and n == 4 and k == 1:
        return DynkinType("F", 4)
    if m == 5 and at_end and n in (3, 4):
        return DynkinType("H", n)
    return NOT_DYNKIN


def classify_graph(Q: CoxeterQuiver) -> list[tuple[tuple[str, ...], DynkinType]]:
    """Coxeter-Dynkin type of each connected component of the underlying
    labelled graph (orientation forgotten, labels and multi-edges kept)."""
    adj = {
        v: [(a.source if a.target == v else a.target, a.label) for a in Q.incident_arrows(v)]
        for v in Q.vertices
    }
    return _classify_components(Q.vertices, adj)


def _classify_components(vertices, adj) -> list[tuple[tuple[str, ...], DynkinType]]:
    """`classify_graph` of the graph with the given vertices, in vertex_key
    order, and adjacency: adj maps each vertex to its (neighbour, label)
    pairs, one per incident arrow."""
    # one search labels every vertex with the first vertex of its component;
    # grouping in vertex order keeps both orders sorted by vertex_key
    root: dict[str, str] = {}
    for v in vertices:
        if v not in root:
            root[v] = v
            stack = [v]
            while stack:
                for w, _ in adj[stack.pop()]:
                    if w not in root:
                        root[w] = v
                        stack.append(w)
    comps: dict[str, list[str]] = {}
    for v in vertices:
        comps.setdefault(root[v], []).append(v)
    return [(tuple(comp), _classify_component(comp, adj)) for comp in comps.values()]


def is_finite_type(Q: CoxeterQuiver) -> bool:
    """True iff every component of the underlying graph is Coxeter-Dynkin."""
    return all(t.is_dynkin for _, t in classify_graph(Q))
