"""Coxeter quivers: validation, sink orderings and Coxeter-Dynkin recognition.

A Coxeter quiver is a finite acyclic directed multigraph whose arrows carry
integer labels >= 3; label 3 is the classical unlabelled arrow.  Vertex ids are
arbitrary strings, ordered numerically when they look like numbers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


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


def vertex_key(v: str):
    """Sort key: numeric ids before and among themselves by value."""
    s = str(v)
    if s.lstrip("-").isdigit():
        return (0, int(s), "")
    return (1, 0, s)


@dataclass(frozen=True)
class Arrow:
    id: str
    source: str
    target: str
    label: int = 3


class CoxeterQuiver:
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
            a = Arrow(str(a.id), str(a.source), str(a.target), int(a.label))
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
        out: dict[str, list[Arrow]] = {v: [] for v in verts}
        incoming: dict[str, list[Arrow]] = {v: [] for v in verts}
        for a in arrs:
            out[a.source].append(a)
            incoming[a.target].append(a)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "arrows", arrs)
        object.__setattr__(self, "_out", out)
        object.__setattr__(self, "_in", incoming)
        self._check_acyclic()

    def __setattr__(self, *args):
        raise AttributeError("CoxeterQuiver is immutable")

    def _check_acyclic(self):
        indeg = {v: len(self._in[v]) for v in self.vertices}
        queue = [v for v in self.vertices if indeg[v] == 0]
        seen = 0
        while queue:
            v = queue.pop()
            seen += 1
            for a in self._out[v]:
                indeg[a.target] -= 1
                if indeg[a.target] == 0:
                    queue.append(a.target)
        if seen != len(self.vertices):
            raise CyclicQuiver("quiver contains a directed cycle")

    @property
    def label_set(self) -> tuple[int, ...]:
        return tuple(sorted({a.label for a in self.arrows}))

    def out_arrows(self, v: str) -> tuple[Arrow, ...]:
        return tuple(self._out[str(v)])

    def in_arrows(self, v: str) -> tuple[Arrow, ...]:
        return tuple(self._in[str(v)])

    def incident_arrows(self, v: str) -> tuple[Arrow, ...]:
        return tuple(self._in[str(v)]) + tuple(self._out[str(v)])

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

    def __eq__(self, other):
        return (
            isinstance(other, CoxeterQuiver)
            and self.vertices == other.vertices
            and self.arrows == other.arrows
        )

    def __hash__(self):
        return hash((self.vertices, self.arrows))

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
            vertices = [str(v) for v in obj["vertices"]]
            arrows = []
            for k, a in enumerate(obj.get("arrows", [])):
                arrows.append(
                    Arrow(
                        str(a.get("id", f"a{k}")),
                        str(a["source"]),
                        str(a["target"]),
                        int(a.get("label", 3)),
                    )
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
    if any(a.source not in set(vertices) or a.target not in set(vertices) for a in arrows):
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
    vertex to an earlier one.  Ties break to the lowest vertex id.
    """
    placed: list[str] = []
    placed_set: set[str] = set()
    remaining = set(Q.vertices)
    while remaining:
        ready = [
            v
            for v in remaining
            if all(a.target in placed_set for a in Q.out_arrows(v))
        ]
        if not ready:
            raise CyclicQuiver("no admissible ordering: directed cycle")
        v = min(ready, key=vertex_key)
        placed.append(v)
        placed_set.add(v)
        remaining.discard(v)
    return tuple(placed)


@dataclass(frozen=True)
class DynkinType:
    """A Coxeter-Dynkin family with its rank or gonality, or NotDynkin."""

    family: str
    param: int | None = None

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


def _undirected_components(Q: CoxeterQuiver):
    adj: dict[str, set[str]] = {v: set() for v in Q.vertices}
    for a in Q.arrows:
        adj[a.source].add(a.target)
        adj[a.target].add(a.source)
    seen: set[str] = set()
    comps = []
    for v in sorted(Q.vertices, key=vertex_key):
        if v in seen:
            continue
        comp = []
        stack = [v]
        seen.add(v)
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(tuple(sorted(comp, key=vertex_key)))
    return comps


def _classify_component(vertices, edges) -> DynkinType:
    # vertices: list of ids; edges: list of (u, v, label), undirected, u != v
    n = len(vertices)
    if n == 1:
        return DynkinType("A", 1)
    pair_count: dict[frozenset, int] = {}
    for u, v, _ in edges:
        key = frozenset((u, v))
        pair_count[key] = pair_count.get(key, 0) + 1
    if any(c > 1 for c in pair_count.values()):
        return NOT_DYNKIN
    if len(edges) != n - 1:
        return NOT_DYNKIN  # connected with a cycle
    deg: dict[str, int] = {v: 0 for v in vertices}
    adj: dict[str, list[tuple[str, int]]] = {v: [] for v in vertices}
    for u, v, lab in edges:
        deg[u] += 1
        deg[v] += 1
        adj[u].append((v, lab))
        adj[v].append((u, lab))
    high = [lab for _, _, lab in edges if lab > 3]
    maxdeg = max(deg.values())
    if high:
        if maxdeg > 2 or len(high) > 1:
            return NOT_DYNKIN
        # walk the path from an endpoint and record edge labels in order
        start = min((v for v in vertices if deg[v] == 1), key=vertex_key)
        labels = []
        prev, cur = None, start
        while True:
            nxt = [(w, lab) for w, lab in adj[cur] if w != prev]
            if not nxt:
                break
            (w, lab) = nxt[0]
            labels.append(lab)
            prev, cur = cur, w
        m = high[0]
        idx = labels.index(m)
        at_end = idx in (0, len(labels) - 1)
        if n == 2:
            if m == 4:
                return DynkinType("B", 2)
            if m == 6:
                return DynkinType("G", 2)
            return DynkinType("I2", m)
        if m == 4 and at_end:
            return DynkinType("B", n)
        if m == 4 and n == 4 and idx == 1:
            return DynkinType("F", 4)
        if m == 5 and at_end and n in (3, 4):
            return DynkinType("H", n)
        return NOT_DYNKIN
    # simply laced: path, fork or exceptional star
    if maxdeg <= 2:
        return DynkinType("A", n)
    if maxdeg > 3 or sum(1 for v in vertices if deg[v] == 3) > 1:
        return NOT_DYNKIN
    branch = next(v for v in vertices if deg[v] == 3)
    arms = []
    for w, _ in adj[branch]:
        length = 1
        prev, cur = branch, w
        while True:
            nxt = [x for x, _ in adj[cur] if x != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    arms.sort()
    if arms[0] == 1 and arms[1] == 1:
        return DynkinType("D", n)
    if arms == [1, 2, 2]:
        return DynkinType("E", 6)
    if arms == [1, 2, 3]:
        return DynkinType("E", 7)
    if arms == [1, 2, 4]:
        return DynkinType("E", 8)
    return NOT_DYNKIN


def classify_graph(Q: CoxeterQuiver) -> list[tuple[tuple[str, ...], DynkinType]]:
    """Coxeter-Dynkin type of each connected component of the underlying
    labelled graph (orientation forgotten, labels and multi-edges kept)."""
    out = []
    for comp in _undirected_components(Q):
        cset = set(comp)
        edges = [
            (a.source, a.target, a.label) for a in Q.arrows if a.source in cset
        ]
        out.append((comp, _classify_component(comp, edges)))
    return out


def is_finite_type(Q: CoxeterQuiver) -> bool:
    """True iff every component of the underlying graph is Coxeter-Dynkin."""
    return all(t.is_dynkin for _, t in classify_graph(Q))
