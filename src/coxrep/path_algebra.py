"""Graded Grothendieck classes of the path algebra of a Coxeter quiver.

Grade zero is the vertex algebra (one unit summand per vertex); grade n sums,
over all composable arrow sequences of length n, the product of the label
classes of the arrows.  Composition is read right to left: a path
(a_n, ..., a_1) starts along a_1.  Acyclicity makes the total class a finite
sum.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fusion import FusionElem, arrow_label_class
from .quiver import CoxeterQuiver


@dataclass(frozen=True)
class PathGrade:
    """All paths of one length.

    For length 0 `paths` holds one vertex id per trivial path; for length
    n >= 1 it holds arrow-id tuples (a_n, ..., a_1) with the target of each
    arrow equal to the source of the next.
    """

    length: int
    paths: tuple


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


def arrow_class(Q: CoxeterQuiver, arrow_id: str) -> FusionElem:
    """The fusion class attached to one arrow: the label-n simple of index n-3."""
    arrow = next(a for a in Q.arrows if a.id == str(arrow_id))
    return arrow_label_class(Q.label_set, arrow.label)


def grade_class(Q: CoxeterQuiver, n: int) -> FusionElem:
    """Class of the n-th graded piece of the path algebra."""
    labels = Q.label_set
    if n == 0:
        return FusionElem.unit(labels) * len(Q.vertices)
    classes = {a.id: arrow_class(Q, a.id) for a in Q.arrows}
    grade = enumerate_paths(Q, n)
    total = FusionElem.zero(labels)
    for path in grade.paths:
        term = FusionElem.unit(labels)
        for arrow_id in path:
            term = term * classes[arrow_id]
        total = total + term
    return total


def path_algebra_class(Q: CoxeterQuiver) -> FusionElem:
    """Total class: sum of all graded pieces, finite by acyclicity."""
    total = grade_class(Q, 0)
    n = 1
    # a non-empty grade sums products of simple classes, so it is non-zero
    while grade := grade_class(Q, n):
        total = total + grade
        n += 1
    return total
