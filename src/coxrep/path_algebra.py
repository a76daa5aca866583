"""Graded Grothendieck classes of the path algebra of a Coxeter quiver.

The path algebra is the tensor algebra of the arrow objects over the
semisimple vertex algebra, so the class of the length-n paths ending at w sums,
over the arrows a: v -> w, the class of the length-(n-1) paths ending at v
times the label class of a; grade zero has one unit summand per vertex.  A path
(a_n, ..., a_1) starts along a_1.  Acyclicity makes the total class finite.
The sweep over the lengths keeps one coefficient dict per vertex per length
and adds each arrow's product into it with the ring's multiply-accumulate
kernel, `fusion._mul_acc`; one `FusionElem` is built per grade.
"""

from __future__ import annotations

from itertools import islice

from ._values import Value, _set_slots
from .fusion import FusionElem, _mul_acc, arrow_label_class
from .quiver import CoxeterQuiver


class PathGrade(Value):
    """All paths of one length.

    For length 0 `paths` holds one vertex id per trivial path; for length
    n >= 1 it holds arrow-id tuples (a_n, ..., a_1) with the target of each
    arrow equal to the source of the next.
    """

    __slots__ = ("length", "paths")

    def __init__(self, length: int, paths: tuple):
        _set_slots(self, length, paths)


def enumerate_paths(Q: CoxeterQuiver, n: int) -> PathGrade:
    """All composable arrow sequences of length n (trivial paths for n = 0)."""
    if n < 0:
        raise ValueError("path length must be non-negative")
    if n == 0:
        return PathGrade(0, tuple(Q.vertices))
    arrows = {a.id: a for a in Q.arrows}
    current = [(a.id,) for a in Q.arrows]
    for _ in range(n - 1):
        nxt = []
        for path in current:
            tip = arrows[path[0]].target
            for a in Q.out_arrows(tip):
                nxt.append((a.id,) + path)
        current = nxt
        if not current:
            break
    return PathGrade(n, tuple(sorted(current)))


def _grades(Q: CoxeterQuiver):
    """The grade classes from length 0 up to the longest path.  `ending[v]`
    is the coefficient dict of the class of the paths of the current length
    that end at v, for the v that such a path ends at; each arrow v -> w
    adds its product into the dict at w through `fusion._mul_acc`, and only
    the yielded grades become `FusionElem`s.  Grade 0 is always yielded,
    even for the empty quiver."""
    labels = Q.label_set
    label_class = {n: arrow_label_class(labels, n).coeffs for n in labels}
    leaving = {v: [(a.target, label_class[a.label]) for a in Q.out_arrows(v)] for v in Q.vertices}
    ending = dict.fromkeys(Q.vertices, FusionElem.unit(labels).coeffs)
    while True:
        total: dict = {}
        for coeffs in ending.values():
            for s, c in coeffs.items():
                total[s] = total.get(s, 0) + c
        yield FusionElem._trusted(labels, {s: c for s, c in total.items() if c})
        nxt: dict = {}
        for v, x in ending.items():
            for w, y in leaving[v]:
                _mul_acc(nxt.setdefault(w, {}), x, y)
        if not nxt:
            return
        ending = nxt


def grade_class(Q: CoxeterQuiver, n: int) -> FusionElem:
    """Class of the n-th graded piece of the path algebra."""
    if n < 0:
        raise ValueError("path length must be non-negative")
    return next(islice(_grades(Q), n, None), FusionElem.zero(Q.label_set))


def path_algebra_class(Q: CoxeterQuiver) -> FusionElem:
    """Total class: sum of all graded pieces, finite by acyclicity."""
    return sum(_grades(Q), FusionElem.zero(Q.label_set))
