import math
import random

import pytest

from coxrep import (
    Arrow,
    CoxeterQuiver,
    FusionElem,
    dim_vector,
    enumerate_indecomposables,
    enumerate_paths,
    grade_class,
    is_positive_vec,
    parse_quiver,
    path_algebra_class,
    pf_eval,
)
from coxrep.fusion import arrow_label_class
from coxrep.path_algebra import _grades
from families import family_quiver

A2 = parse_quiver("vertex 1\nvertex 2\narrow 1 2\n")
A3 = parse_quiver("vertex 1\nvertex 2\nvertex 3\narrow 3 2\narrow 2 1\n")
I25 = parse_quiver("vertex 1\nvertex 2\narrow 1 2 5\n")


def unit(Q):
    return FusionElem.unit(Q.label_set)


def test_enumerate_paths_trivial_grade():
    grade = enumerate_paths(A2, 0)
    assert grade.length == 0
    assert grade.paths == ("1", "2")


def test_enumerate_paths_golden():
    assert len(enumerate_paths(A2, 1).paths) == 1
    assert len(enumerate_paths(A3, 2).paths) == 1
    assert enumerate_paths(A3, 3).paths == ()


def test_enumerate_paths_composition_order():
    # the stored tuple reads right to left: last arrow first
    (path,) = enumerate_paths(A3, 2).paths
    arrows = {a.id: a for a in A3.arrows}
    last, first = path
    assert arrows[first].target == arrows[last].source


def test_grade_class_golden():
    assert grade_class(A2, 0) == unit(A2) * 2
    tau = FusionElem.from_json({"5:2": 1}, (5,))
    assert grade_class(I25, 1) == tau


def test_grade_class_two_label5_in_series():
    Q = parse_quiver("vertex 1\nvertex 2\nvertex 3\narrow 1 2 5\narrow 2 3 5\n")
    got = grade_class(Q, 2)
    assert got == FusionElem.from_json({"5:0": 1, "5:2": 1}, (5,))


def test_path_algebra_class_classical():
    assert path_algebra_class(A2) == unit(A2) * 3
    assert path_algebra_class(A3) == unit(A3) * 6


def test_path_algebra_class_i25():
    expected = unit(I25) * 2 + FusionElem.from_json({"5:2": 1}, (5,))
    assert path_algebra_class(I25) == expected


def random_acyclic(rng, n, classical=False):
    vertices = [str(i) for i in range(1, n + 1)]
    arrows = []
    k = 0
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if rng.random() < 0.4:
                lab = 3 if classical else rng.choice([3, 3, 4, 5])
                arrows.append(Arrow(f"a{k}", str(i), str(j), lab))
                k += 1
    return CoxeterQuiver(vertices, arrows)


def count_paths(Q):
    # independent dynamic program over the arrow list
    total = len(Q.vertices)
    frontier = {(a.id,): a for a in Q.arrows}
    while frontier:
        total += len(frontier)
        nxt = {}
        for path, last in frontier.items():
            for b in Q.out_arrows(last.target):
                nxt[path + (b.id,)] = b
        frontier = nxt
    return total


def longest_path(Q):
    depth = {v: 0 for v in Q.vertices}
    changed = True
    while changed:
        changed = False
        for a in Q.arrows:
            if depth[a.target] < depth[a.source] + 1:
                depth[a.target] = depth[a.source] + 1
                changed = True
    return max(depth.values(), default=0)


def test_classical_total_matches_path_count():
    rng = random.Random(21)
    for _ in range(20):
        Q = random_acyclic(rng, rng.randint(1, 5), classical=True)
        total = path_algebra_class(Q)
        expected = count_paths(Q)
        assert total == unit(Q) * expected
        assert pf_eval(total) == expected


def test_nilpotence_past_longest_path():
    rng = random.Random(22)
    for _ in range(25):
        Q = random_acyclic(rng, rng.randint(1, 5))
        bound = longest_path(Q)
        for n in range(bound + 1, bound + 3):
            assert not grade_class(Q, n)
            assert enumerate_paths(Q, n).paths == ()


def test_simple_dim_vectors_generate_positively():
    # every indecomposable's dimension vector is a non-negative combination of
    # the vertex basis over the fusion ring
    for name in ["A3", "I2(5)", "B3"]:
        Q = family_quiver(name)
        for V in enumerate_indecomposables(Q):
            assert is_positive_vec(dim_vector(V))


def reference_grade_class(Q, n):
    """The n-th grade as the sum over every listed path of the product of its
    arrow classes, independent of the per-vertex sweep."""
    labels = Q.label_set
    if n == 0:
        return FusionElem.unit(labels) * len(Q.vertices)
    arrows = {a.id: a for a in Q.arrows}
    total = FusionElem.zero(labels)
    for path in enumerate_paths(Q, n).paths:
        term = FusionElem.unit(labels)
        for arrow_id in path:
            term = term * arrow_label_class(labels, arrows[arrow_id].label)
        total = total + term
    return total


def random_dag(rng, n):
    vertices = [str(i) for i in range(1, n + 1)]
    arrows = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if rng.random() < 0.5:
                arrows.append(Arrow(f"a{len(arrows)}", str(i), str(j), rng.randint(3, 8)))
    return CoxeterQuiver(vertices, arrows)


def test_grades_match_path_listing():
    rng = random.Random(51)
    for _ in range(30):
        Q = random_dag(rng, rng.randint(1, 8))
        reference = [reference_grade_class(Q, n) for n in range(longest_path(Q) + 3)]
        assert [grade_class(Q, n) for n in range(len(reference))] == reference
        assert path_algebra_class(Q) == sum(reference, FusionElem.zero(Q.label_set))


def transitive_tournament(n, label=3):
    vertices = [str(i) for i in range(1, n + 1)]
    arrows = [
        Arrow(f"a{i}_{j}", str(i), str(j), label)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    ]
    return CoxeterQuiver(vertices, arrows)


def test_classical_tournament_closed_form():
    # the length-k paths of T_n are its (k+1)-subsets of vertices
    Q = transitive_tournament(20)
    assert list(_grades(Q)) == [unit(Q) * math.comb(20, k + 1) for k in range(20)]
    assert path_algebra_class(Q) == unit(Q) * (2**20 - 1)
    assert not grade_class(Q, 20)


def test_label5_tournament_closed_form():
    # every arrow has Perron-Frobenius dimension phi, the golden ratio
    phi = (1 + math.sqrt(5)) / 2
    Q = transitive_tournament(12, label=5)
    grades = list(_grades(Q))
    assert len(grades) == 12
    for k, grade in enumerate(grades):
        assert pf_eval(grade) == pytest.approx(math.comb(12, k + 1) * phi**k, rel=1e-9)


def test_zero_vertex_quiver():
    Q = CoxeterQuiver([], [])
    assert list(_grades(Q)) == [FusionElem.zero(())]
    assert not grade_class(Q, 0)
    assert not path_algebra_class(Q)


def test_vertices_without_arrows():
    Q = parse_quiver("vertex 1\nvertex 2\nvertex 3\n")
    assert list(_grades(Q)) == [unit(Q) * 3]
    assert not grade_class(Q, 1)
    assert path_algebra_class(Q) == unit(Q) * 3


def test_negative_length_raises():
    with pytest.raises(ValueError, match="path length must be non-negative"):
        grade_class(A3, -1)
