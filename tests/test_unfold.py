import random
import sys
from math import prod

import pytest

from coxrep import (
    Arrow,
    CapExceeded,
    CoxeterQuiver,
    FusionElem,
    classify_graph,
    enumerate_indecomposables,
    indecomposable_for,
    is_positive_vec,
    parse_quiver,
    reverse_at,
    tlj_simples,
    tlj_tensor,
    unfold,
    unfolded_arrow_count,
)
from coxrep import reps as reps_mod
from coxrep.fusion import SimpleObject, _simple_count, _simple_mul, irr_enumerate
from coxrep.quiver import vertex_key
from coxrep.reps import UnfoldedRep
from coxrep.unfold import UnfoldedArrow, UnfoldedQuiver, fold_dim, vertex_name
from families import all_orientations, family_quiver, path_quiver


def names(uq):
    return [t.name for _, t in classify_graph(uq.to_coxeter())]


def test_unfold_i2_5_is_a4_path():
    Q = parse_quiver("vertex 1\nvertex 2\narrow 1 2 5\n")
    uq = unfold(Q)
    assert len(uq.vertices) == 4
    assert len(uq.arrows) == 3
    assert names(uq) == ["A4"]
    # the path visits (unit,1) - (tau,2) - (tau,1) - (unit,2)
    triples = uq.arrow_set()
    assert ("a0", "5:0@1", "5:2@2") in triples
    assert ("a0", "5:2@1", "5:2@2") in triples
    assert ("a0", "5:2@1", "5:0@2") in triples


def test_unfold_i2_4_is_two_a3():
    Q = parse_quiver("vertex 1\nvertex 2\narrow 1 2 4\n")
    uq = unfold(Q)
    assert len(uq.vertices) == 6
    assert len(uq.arrows) == 4
    assert sorted(names(uq)) == ["A3", "A3"]


def test_unfold_classical_is_identity():
    Q = parse_quiver("vertex 1\nvertex 2\nvertex 3\narrow 1 2\narrow 3 2\n")
    uq = unfold(Q)
    assert len(uq.vertices) == len(Q.vertices)
    assert len(uq.arrows) == len(Q.arrows)
    got = {(a.provenance, uq.parts[a.source][1], uq.parts[a.target][1]) for a in uq.arrows}
    expect = {(a.id, a.source, a.target) for a in Q.arrows}
    assert got == expect


@pytest.mark.parametrize(
    "name,expected",
    [
        ("B2", ["A3", "A3"]),
        ("B3", ["A5", "D4"]),
        ("B4", ["A7", "D5"]),
        ("B5", ["A9", "D6"]),
        ("B6", ["A11", "D7"]),
        ("F4", ["E6", "E6"]),
        ("G2", ["A5", "A5"]),
        ("H3", ["D6"]),
        ("H4", ["E8"]),
        ("I2(4)", ["A3", "A3"]),
        ("I2(5)", ["A4"]),
        ("I2(6)", ["A5", "A5"]),
        ("I2(7)", ["A6"]),
        ("I2(8)", ["A7", "A7"]),
        ("I2(9)", ["A8"]),
        ("I2(10)", ["A9", "A9"]),
        ("I2(11)", ["A10"]),
        ("I2(12)", ["A11", "A11"]),
        ("I2(13)", ["A12"]),
    ],
)
def test_unfold_finite_type_table(name, expected):
    assert sorted(names(unfold(family_quiver(name)))) == sorted(expected)


def test_unfold_two_label4_arrows_into_middle():
    # both arrows labelled 4 pointing into a middle vertex: nine unfolded
    # vertices, eight arrows, one degree-four star and one four-cycle
    Q = parse_quiver("vertex 1\nvertex 2\nvertex 3\narrow 1 2 4\narrow 3 2 4\n")
    uq = unfold(Q)
    assert len(uq.vertices) == 9
    assert len(uq.arrows) == 8
    triples = uq.arrow_set()
    for prov, src in (("a0", "1"), ("a1", "3")):
        assert (prov, f"4:0@{src}", "4:1@2") in triples
        assert (prov, f"4:1@{src}", "4:0@2") in triples
        assert (prov, f"4:1@{src}", "4:2@2") in triples
        assert (prov, f"4:2@{src}", "4:1@2") in triples
    comps = classify_graph(uq.to_coxeter())
    sizes = sorted(len(vs) for vs, _ in comps)
    assert sizes == [4, 5]
    assert all(t.name == "NotDynkin" for _, t in comps)


def test_unfolded_arrow_count_golden():
    Q5 = parse_quiver("vertex 1\nvertex 2\narrow 1 2 5\n")
    assert unfolded_arrow_count(Q5, "a0") == 3
    Q4 = parse_quiver("vertex 1\nvertex 2\narrow 1 2 4\n")
    assert unfolded_arrow_count(Q4, "a0") == 4
    # classical arrow in a {3,5} quiver acquires one copy per complement
    Q35 = parse_quiver("vertex 1\nvertex 2\nvertex 3\narrow 1 2 5\narrow 2 3\n")
    assert unfolded_arrow_count(Q35, "a1") == 2


def test_simple_count_is_the_length_of_tlj_simples():
    assert [_simple_count(n) for n in range(3, 60)] == [len(tlj_simples(n)) for n in range(3, 60)]


def test_unfold_refuses_a_label_whose_simples_cannot_be_listed(monkeypatch):
    # 2^70 - 1 simples at label 2^70: list(range(...)) would raise
    # OverflowError, so the size is checked before any simple is enumerated
    big = 2**70
    Q = CoxeterQuiver(["1", "2", "3"], [Arrow("a", "1", "2", big), Arrow("b", "2", "3", 5)])

    def listed(labels):
        raise AssertionError("irr_enumerate called")

    # the module, which the package's `unfold` function shadows
    monkeypatch.setattr(sys.modules["coxrep.unfold"], "irr_enumerate", listed)
    with pytest.raises(CapExceeded, match=str(3 * 2 * (big - 1))):
        unfold(Q)
    # the arrow counts are counted the same way
    assert unfolded_arrow_count(Q, "a") == 2 * 2 * (big - 2)
    assert unfolded_arrow_count(Q, "b") == (big - 1) * 3


def test_unfolded_arrow_counts_sum():
    rng = random.Random(6)
    for _ in range(15):
        n = rng.randint(2, 4)
        vertices = [str(i) for i in range(1, n + 1)]
        arrows = []
        for k in range(2, n + 1):
            other = str(rng.randint(1, k - 1))
            arrows.append(Arrow(f"a{k}", other, str(k), rng.randint(3, 8)))
        Q = CoxeterQuiver(vertices, arrows)
        uq = unfold(Q)
        assert sum(unfolded_arrow_count(Q, a.id) for a in Q.arrows) == len(uq.arrows)


def test_sink_lifts_and_reversal_commutes():
    Q = parse_quiver("vertex 1\nvertex 2\nvertex 3\narrow 1 2 5\narrow 3 2\n")
    uq = unfold(Q)
    assert Q.is_sink("2")
    over = uq.vertices_over("2")
    assert over and all(not uq.out_arrows(v) for v in over)
    # unfolding the reversed quiver equals reversing all lifted vertices
    for i in Q.vertices:
        lifted = set(uq.vertices_over(i))
        uq_rev = unfold(reverse_at(Q, i))
        flipped = {
            (p, t, s) if (s in lifted or t in lifted) else (p, s, t)
            for p, s, t in uq.arrow_set()
        }
        assert uq_rev.arrow_set() == flipped
        assert uq_rev.vertices == uq.vertices


def test_source_lifts():
    Q = parse_quiver("vertex 1\nvertex 2\narrow 1 2 7\n")
    uq = unfold(Q)
    for v in uq.vertices_over("1"):
        assert not uq.in_arrows(v)


def test_stored_incidence_matches_a_scan():
    Q = parse_quiver("vertex 1\nvertex 2\nvertex 3\nvertex 4\narrow 1 2 5\narrow 3 2 4\narrow 3 4\n")
    uq = unfold(Q)
    for quiver in (Q, uq):
        for v in quiver.vertices:
            assert quiver.in_arrows(v) == tuple(a for a in quiver.arrows if a.target == v)
            assert quiver.out_arrows(v) == tuple(a for a in quiver.arrows if a.source == v)
    for v in Q.vertices:
        assert Q.incident_arrows(v) == Q.in_arrows(v) + Q.out_arrows(v)
        assert uq.vertices_over(v) == tuple(u for u in uq.vertices if uq.parts[u][1] == v)
    assert uq.vertices_over("zz") == ()


def test_parallel_labelled_arrows_unfold_infinite():
    # two-vertex quivers with parallel arrows never unfold to a disjoint
    # union of finite-type diagrams
    for m in range(3, 9):
        for n in range(3, 9):
            Q = CoxeterQuiver(
                ["1", "2"], [Arrow("a", "1", "2", m), Arrow("b", "1", "2", n)]
            )
            comps = classify_graph(unfold(Q).to_coxeter())
            assert any(not t.is_dynkin for _, t in comps), (m, n)


@pytest.mark.parametrize(
    "Q",
    [
        family_quiver("H4"),
        family_quiver("F4"),
        family_quiver("I2(8)"),
        # eleven vertices: unfold lists "@2" before "@10", vertex_key after
        path_quiver([10, 11, 12, 3, 3, 3, 3, 3, 3, 3], [True, False] * 5),
        path_quiver([5, 6, 7]),
        CoxeterQuiver(["1", "2"], [Arrow("a", "1", "2", 4), Arrow("b", "1", "2", 5)]),
        parse_quiver("vertex 1\nvertex 2\nvertex 3\narrow 1 2 4\narrow 3 2 4\n"),
    ],
    ids=["H4", "F4", "I2(8)", "path-10-11-12", "path-5-6-7", "parallel-4-5", "star-4-4"],
)
def test_classify_unfolded_matches_the_coxeter_route(Q):
    from coxrep.unfold import _classify_unfolded

    uq = unfold(Q)
    assert _classify_unfolded(uq) == classify_graph(uq.to_coxeter())


def test_fold_dim_golden():
    Q = parse_quiver("vertex 1\nvertex 2\narrow 1 2 5\n")
    uq = unfold(Q)
    rv = fold_dim(uq, {"5:0@1": 1, "5:2@1": 1})
    assert rv.entry("1") == FusionElem.from_json({"5:0": 1, "5:2": 1}, (5,))
    assert not rv.entry("2")
    assert is_positive_vec(rv)
    assert not fold_dim(uq, {})


def test_fold_dim_classical_identity():
    Q = parse_quiver("vertex 1\nvertex 2\narrow 1 2\n")
    uq = unfold(Q)
    rv = fold_dim(uq, {"3:0@1": 2, "3:0@2": 1})
    assert rv.entry("1") == FusionElem.unit((3,)) * 2
    assert rv.entry("2") == FusionElem.unit((3,))


def reference_unfold(Q):
    """The unfolding as it was before the arrows were read off X_n ⊗ B: the
    label-n component of B is replaced by each index of the tensor rule, and
    all names and all arrows are sorted at the end."""
    labels = Q.label_set
    irr = irr_enumerate(labels)
    names = []
    parts = {}
    for simple in irr:
        for v in Q.vertices:
            name = vertex_name(simple, v)
            names.append(name)
            parts[name] = (simple, v)
    names.sort(key=lambda nm: (parts[nm][0].key, vertex_key(parts[nm][1])))
    arrows = []
    for alpha in Q.arrows:
        n = alpha.label
        gen = n - 3
        for B in irr:
            for c in tlj_tensor(n, gen, B.index(n)):
                C = B.replace(n, c)
                src = vertex_name(B, alpha.source)
                tgt = vertex_name(C, alpha.target)
                arrows.append(UnfoldedArrow(f"{alpha.id}:{src}>{tgt}", src, tgt, alpha.id))
    arrows.sort(key=lambda a: (vertex_key(a.provenance), a.source, a.target))
    return UnfoldedQuiver(Q, irr, names, parts, arrows)


def assert_same_unfolding(got, expect):
    assert got.vertices == expect.vertices
    assert got.parts == expect.parts
    assert got.irr == expect.irr
    # ids, endpoints, provenance and order
    assert got.arrows == expect.arrows


_IDS = ["0", "1", "2", "01", "-0", "-1", "10", "a", "b", "a0", "²", "x.1"]


def random_quiver(rng):
    """A random acyclic quiver on ids that sort in every way vertex_key
    tells apart, with parallel arrows, labels 3..13 and at most 100 simples."""
    vertices = rng.sample(_IDS, rng.randint(1, 6))
    rank = {v: k for k, v in enumerate(rng.sample(vertices, len(vertices)))}
    arrows = []
    if len(vertices) > 1:
        for arrow_id in rng.sample(_IDS, rng.randint(0, 4)):
            s, t = sorted(rng.sample(vertices, 2), key=rank.__getitem__)
            arrows.append(Arrow(arrow_id, s, t, rng.randint(3, 13)))
    while prod(len(tlj_simples(n)) for n in {a.label for a in arrows}) > 100:
        arrows.pop()
    return CoxeterQuiver(vertices, arrows)


@pytest.mark.parametrize("name", ["A3", "B3", "D4", "F4", "G2", "H3", "H4", "I2(5)", "I2(8)"])
def test_unfold_matches_reference_on_every_orientation(name):
    for Q in all_orientations(family_quiver(name)):
        assert_same_unfolding(unfold(Q), reference_unfold(Q))


def test_unfold_matches_reference_on_random_quivers():
    rng = random.Random(10)
    for _ in range(1000):
        Q = random_quiver(rng)
        assert_same_unfolding(unfold(Q), reference_unfold(Q))


@pytest.mark.parametrize("name", ["D4", "B3"])
def test_one_unfolding_per_orientation(name, monkeypatch):
    # one unfolding per call, not one per orientation: the knitting plans
    # every orientation off the unfolding of Q and reverses no arrow.
    # `coxrep.unfold` is the function, so the module comes from sys.modules;
    # rootsys imports `unfold` from it at call time, reps at import time
    calls, reversals = [], []

    def counted(Q):
        calls.append(Q)
        return unfold(Q)

    def reversed_at(Q, i):
        reversals.append(i)
        return reverse_at(Q, i)

    monkeypatch.setattr(sys.modules["coxrep.unfold"], "unfold", counted)
    monkeypatch.setattr(reps_mod, "unfold", counted)
    monkeypatch.setattr(sys.modules["coxrep.quiver"], "reverse_at", reversed_at)
    monkeypatch.setattr(reps_mod, "reverse_at", reversed_at)
    Q = family_quiver(name)
    reps = enumerate_indecomposables(Q)
    assert calls == [Q]
    del calls[:]
    indecomposable_for(Q, reps_mod.dim_vector(reps[-1]))
    assert calls == [Q]
    assert reversals == []


def test_unfold_shares_the_stored_simples():
    Q = parse_quiver("vertex 1\nvertex 2\nvertex 3\narrow 1 2 4\narrow 2 3 5\n")
    uq = unfold(Q)
    assert all(t is u for t, u in zip(uq.irr, irr_enumerate(Q.label_set)))
    for name, (simple, _) in uq.parts.items():
        assert simple is SimpleObject.from_key(name.split("@")[0])


def test_unfold_reads_products_from_the_cache():
    # I2(5): the class 5:2 of the arrow times each of the two simples
    Q = parse_quiver("vertex 1\nvertex 2\narrow 1 2 5\n")
    _simple_mul.cache_clear()
    unfold(Q)
    assert _simple_mul.cache_info()[:2] == (0, 2)
    unfold(Q)
    assert _simple_mul.cache_info()[:2] == (2, 2)


@pytest.mark.parametrize(
    "build",
    [
        lambda uq: SimpleObject([(4.9, 1)]),
        lambda uq: SimpleObject([(4, True)]),
        # stored already: 4.0 == 4 and True == 1 would find 4:1 in the store
        lambda uq: SimpleObject([(4.0, 1)]),
        lambda uq: SimpleObject([(4, 0)]).replace(4, True),
        lambda uq: CoxeterQuiver([1, 2], [("a", 1, 2, 4.9)]),
        lambda uq: CoxeterQuiver([1, 2], [("a", 1, 2, "4")]),
        lambda uq: FusionElem((5,), {"5:0": 1.5}),
        lambda uq: FusionElem((5,), {"5:0": True}),
        lambda uq: UnfoldedRep(uq, {"3:0@1": 1.7}),
        lambda uq: UnfoldedRep(uq, {"3:0@1": "2"}),
        lambda uq: fold_dim(uq, {"3:0@1": 2.9}),
        lambda uq: fold_dim(uq, {"3:0@1": True}),
    ],
    ids=[
        "simple-float-label",
        "simple-bool-index",
        "simple-stored-float-label",
        "simple-replace-bool",
        "quiver-float-label",
        "quiver-str-label",
        "fusion-float-coeff",
        "fusion-bool-coeff",
        "rep-float-dim",
        "rep-str-dim",
        "fold-float-dim",
        "fold-bool-dim",
    ],
)
def test_integers_only_in_public_constructors(build):
    SimpleObject([(4, 1)])
    uq = unfold(parse_quiver("vertex 1\nvertex 2\narrow 1 2\n"))
    with pytest.raises(TypeError):
        build(uq)
