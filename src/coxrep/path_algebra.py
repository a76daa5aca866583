"""Graded Grothendieck classes of the path algebra of a Coxeter quiver.

The path algebra is the tensor algebra of the arrow objects over the
semisimple vertex algebra, so the class of the length-n paths ending at w sums,
over the arrows a: v -> w, the class of the length-(n-1) paths ending at v
times the label class of a; grade zero has one unit summand per vertex.  A path
(a_n, ..., a_1) starts along a_1.  Acyclicity makes the total class finite.
"""

from __future__ import annotations

from itertools import islice

from ._values import Value, _set_slots
from .fusion import FusionElem, arrow_label_class
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
    """The grade classes from length 0 up to the longest path: `ending[w]` is
    the class of the paths of the current length that end at w.  Grade 0 is
    always yielded, even for the empty quiver."""
    labels = Q.label_set
    zero = FusionElem.zero(labels)
    label_class = {n: arrow_label_class(labels, n) for n in labels}
    ending = dict.fromkeys(Q.vertices, FusionElem.unit(labels))
    while True:
        yield sum(ending.values(), zero)
        ending = {
            w: sum((ending[a.source] * label_class[a.label] for a in Q.in_arrows(w)), zero)
            for w in Q.vertices
        }
        if not any(ending.values()):
            return


def grade_class(Q: CoxeterQuiver, n: int) -> FusionElem:
    """Class of the n-th graded piece of the path algebra."""
    if n < 0:
        raise ValueError("path length must be non-negative")
    return next(islice(_grades(Q), n, None), FusionElem.zero(Q.label_set))


def path_algebra_class(Q: CoxeterQuiver) -> FusionElem:
    """Total class: sum of all graded pieces, finite by acyclicity."""
    return sum(_grades(Q), FusionElem.zero(Q.label_set))
