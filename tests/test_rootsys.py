import random
from itertools import product

import pytest

from coxrep import (
    Arrow,
    CoxeterQuiver,
    FusionElem,
    OrbitBudgetExceeded,
    RootVector,
    SimpleObject,
    bilinear_form,
    coxeter_apply,
    coxeter_order,
    depositivize_exponent,
    extended_positive_roots,
    RootSet,
    fold_dim,
    irr_enumerate,
    is_positive_vec,
    parse_quiver,
    positive_roots,
    reflect,
    root_orbit,
    tlj_tensor,
    unfold,
)
from coxrep.fusion import arrow_label_class, invertible_simples
from coxrep.rootsys import _int_reflect, _Walk
from ade_oracle import count_positive_roots_of_components
from families import expected_root_count, family_quiver, path_quiver

A2 = parse_quiver("vertex 1\nvertex 2\narrow 1 2\n")
I25 = parse_quiver("vertex 1\nvertex 2\narrow 1 2 5\n")


def unit(Q):
    return FusionElem.unit(Q.label_set)


def tau():
    return FusionElem((5,), {SimpleObject([(5, 2)]): 1})


def e(Q, i):
    return RootVector.basis(Q, i)


def test_bilinear_diagonal():
    assert bilinear_form(A2, e(A2, "1"), e(A2, "1")) == unit(A2) * 2
    assert bilinear_form(I25, e(I25, "2"), e(I25, "2")) == unit(I25) * 2


def test_bilinear_edge():
    assert bilinear_form(I25, e(I25, "1"), e(I25, "2")) == -tau()
    assert bilinear_form(A2, e(A2, "1"), e(A2, "2")) == -unit(A2)


def test_bilinear_non_adjacent():
    Q = parse_quiver("vertex 1\nvertex 2\nvertex 3\narrow 1 2\narrow 2 3\n")
    assert not bilinear_form(Q, e(Q, "1"), e(Q, "3"))


def test_bilinear_multi_edge_sums():
    Q = CoxeterQuiver(["1", "2"], [Arrow("a", "1", "2"), Arrow("b", "1", "2")])
    assert bilinear_form(Q, e(Q, "1"), e(Q, "2")) == unit(Q) * (-2)


def test_reflect_simple():
    assert reflect(A2, "1", e(A2, "1")) == -e(A2, "1")


def test_reflect_i25_golden():
    got = reflect(I25, "1", e(I25, "2"))
    assert got == e(I25, "2") + e(I25, "1").scale(tau())


def test_reflect_involution():
    rng = random.Random(3)
    Q = family_quiver("H3")
    simples = irr_enumerate(Q.label_set)
    for _ in range(25):
        entries = {}
        for v in Q.vertices:
            coeffs = {s: rng.randint(-2, 2) for s in simples}
            entries[v] = FusionElem(Q.label_set, coeffs)
        w = RootVector(Q.label_set, entries)
        for i in Q.vertices:
            assert reflect(Q, i, reflect(Q, i, w)) == w


def test_form_reflection_invariant():
    rng = random.Random(8)
    Q = family_quiver("B3")
    simples = irr_enumerate(Q.label_set)
    for _ in range(20):
        vs = []
        for _ in range(2):
            entries = {
                v: FusionElem(Q.label_set, {s: rng.randint(-2, 2) for s in simples})
                for v in Q.vertices
            }
            vs.append(RootVector(Q.label_set, entries))
        u, w = vs
        for i in Q.vertices:
            assert bilinear_form(Q, reflect(Q, i, u), reflect(Q, i, w)) == bilinear_form(
                Q, u, w
            )


def test_coxeter_apply_golden():
    v = e(A2, "1") + e(A2, "2")
    assert coxeter_apply(A2, ("1", "2"), v) == -e(A2, "2")
    assert not coxeter_apply(A2, ("1", "2"), RootVector.zero(A2.label_set))


def test_coxeter_order_returns_identity():
    for name, h in [("A2", 3), ("B2", 4), ("G2", 6), ("H3", 10), ("I2(7)", 7)]:
        Q = family_quiver(name)
        ordering = tuple(Q.vertices)
        assert coxeter_order(Q, ordering) == h
        v = e(Q, Q.vertices[0]) + e(Q, Q.vertices[-1])
        w = v
        for _ in range(h):
            w = coxeter_apply(Q, ordering, w)
        assert w == v


def test_positive_roots_a2():
    got = positive_roots(A2)
    expect = {e(A2, "1"), e(A2, "2"), e(A2, "1") + e(A2, "2")}
    assert got.roots == frozenset(expect)
    assert got.closed


def test_positive_roots_i25_golden():
    got = positive_roots(I25)
    t = tau()
    e1, e2 = e(I25, "1"), e(I25, "2")
    expect = {
        e1,
        e2,
        e1 + e2.scale(t),
        e1.scale(t) + e2,
        e1.scale(t) + e2.scale(t),
    }
    assert got.roots == frozenset(expect)


def test_positive_roots_h3_count():
    assert len(positive_roots(family_quiver("H3"))) == 15


def test_extended_equals_plain_for_classical():
    Q = family_quiver("A3")
    assert extended_positive_roots(Q).roots == positive_roots(Q).roots


def test_extended_counts():
    assert len(extended_positive_roots(I25)) == 10
    assert len(extended_positive_roots(family_quiver("F4"))) == 72


def test_extended_union_is_disjoint():
    for name in ["I2(5)", "B3", "H3", "G2"]:
        Q = family_quiver(name)
        base = positive_roots(Q)
        ext = extended_positive_roots(Q)
        assert len(ext) == len(irr_enumerate(Q.label_set)) * len(base)


def test_extended_matches_classical_oracle():
    for name in ["B2", "B4", "F4", "G2", "H3", "H4", "I2(7)", "I2(8)"]:
        Q = family_quiver(name)
        ext = extended_positive_roots(Q)
        assert len(ext) == count_positive_roots_of_components(unfold(Q))


def test_crystallographic_agreement():
    # at label 3 the fusion root system is the classical one
    from ade_oracle import positive_roots_ade

    for name in ["A4", "D4", "D5", "E6"]:
        Q = family_quiver(name)
        got = positive_roots(Q)
        one = unit(Q)
        classical = positive_roots_ade(
            list(Q.vertices), [(a.source, a.target) for a in Q.arrows]
        )
        translate = set()
        for vec in classical:
            entries = {
                v: one * c for v, c in zip(Q.vertices, vec)
            }
            translate.add(RootVector(Q.label_set, entries))
        assert got.roots == frozenset(translate)


def test_sign_dichotomy():
    for name in ["A3", "B3", "H3", "I2(7)"]:
        Q = family_quiver(name)
        orbit = root_orbit(Q)
        pos = {r for r in orbit if is_positive_vec(r)}
        neg = {-r for r in orbit if is_positive_vec(-r)}
        assert pos == neg
        assert len(orbit) == 2 * len(pos)
        for r in orbit:
            assert is_positive_vec(r) or is_positive_vec(-r)


def test_orbit_stable_under_reflections():
    Q = family_quiver("B3")
    orbit = root_orbit(Q)
    for i in Q.vertices:
        assert {reflect(Q, i, r) for r in orbit} == orbit


def test_is_positive_vec():
    assert is_positive_vec(e(A2, "1"))
    assert not is_positive_vec(RootVector.zero(A2.label_set))
    assert not is_positive_vec(e(A2, "1") - e(A2, "2"))


def test_depositivize_golden():
    v = e(A2, "1") + e(A2, "2")
    assert depositivize_exponent(A2, ("1", "2"), v) == 1
    assert depositivize_exponent(A2, ("1", "2"), e(A2, "2")) == 2


def test_depositivize_bounded_by_order():
    rng = random.Random(13)
    for name in ["A3", "B3", "H3", "I2(8)"]:
        Q = family_quiver(name)
        ordering = tuple(Q.vertices)
        h = coxeter_order(Q, ordering)
        simples = irr_enumerate(Q.label_set)
        for _ in range(20):
            entries = {
                v: FusionElem(Q.label_set, {s: rng.randint(0, 2) for s in simples})
                for v in Q.vertices
            }
            w = RootVector(Q.label_set, entries)
            if not is_positive_vec(w):
                continue
            assert depositivize_exponent(Q, ordering, w) <= h


def test_budget_exceeded_carries_partial():
    Q = CoxeterQuiver(["1", "2"], [Arrow("a", "1", "2"), Arrow("b", "1", "2")])
    with pytest.raises(OrbitBudgetExceeded) as info:
        positive_roots(Q, budget=40)
    partial = info.value.partial
    assert not partial.closed
    assert len(partial.roots) > 0


def test_root_vector_json_round_trip():
    t = tau()
    v = e(I25, "1").scale(t) + e(I25, "2")
    assert RootVector.from_json(v.to_json(), (5,)) == v


def test_bilinear_rejects_mismatched_labels():
    from coxrep import MismatchedQuiver

    with pytest.raises(MismatchedQuiver):
        bilinear_form(A2, e(I25, "1"), e(I25, "2"))


def test_reflect_rejects_entries_off_the_quiver():
    from coxrep import UnknownVertex

    v = RootVector(A2.label_set, {"1": unit(A2), "zz": unit(A2)})
    for call in (
        lambda: reflect(A2, "1", v),
        lambda: coxeter_apply(A2, ("1", "2"), v),
        lambda: bilinear_form(A2, v, v),
    ):
        with pytest.raises(UnknownVertex):
            call()


def test_reflection_builds_one_class_per_arrow_at_the_vertex(monkeypatch):
    import coxrep.rootsys

    calls = []

    def counted(labels, n):
        calls.append(n)
        return arrow_label_class(labels, n)

    monkeypatch.setattr(coxrep.rootsys, "arrow_label_class", counted)
    Q = family_quiver("E8")
    for i in Q.vertices:
        reflect(Q, i, e(Q, Q.vertices[0]))
    # the arrows at each vertex once, so every arrow twice
    assert len(calls) == 2 * len(Q.arrows) == 14


def test_coxeter_apply_rejects_bad_ordering():
    from coxrep import InvalidOrdering

    v = e(A2, "1")
    with pytest.raises(InvalidOrdering):
        coxeter_apply(A2, ("1",), v)
    with pytest.raises(InvalidOrdering):
        coxeter_apply(A2, ("1", "1"), v)


def test_depositivize_cap_exceeded_on_radical_vector():
    from coxrep import CapExceeded

    # the Kronecker quiver's diagonal vector is fixed by every reflection
    Q = CoxeterQuiver(["1", "2"], [Arrow("a", "1", "2"), Arrow("b", "1", "2")])
    v = e(Q, "1") + e(Q, "2")
    with pytest.raises(CapExceeded):
        depositivize_exponent(Q, ("1", "2"), v, cap=50)


# --- the integer orbit against a fusion-valued reference ---------------------
#
# The reference closes the orbit with the public, fusion-valued `reflect` and
# picks the twist representatives as `positive_roots` did before the orbit was
# closed in unfolded integer coordinates.


def reference_root_orbit(Q, budget=10_000):
    seen = set()
    frontier = [RootVector.basis(Q, i) for i in Q.vertices]
    seen.update(frontier)
    while frontier:
        nxt = []
        for w in frontier:
            for i in Q.vertices:
                r = reflect(Q, i, w)
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
                    if len(seen) > budget:
                        partial = RootSet(
                            frozenset(x for x in seen if is_positive_vec(x)), False
                        )
                        raise OrbitBudgetExceeded(
                            f"orbit exceeded budget {budget}", partial
                        )
        frontier = nxt
    return frozenset(seen)


def reference_positive_roots(Q, budget=10_000):
    units = [
        FusionElem.simple(Q.label_set, s)
        for s in invertible_simples(Q.label_set)
        if not s.is_unit()
    ]
    chosen = set()
    for r in reference_root_orbit(Q, budget):
        if is_positive_vec(r):
            chosen.add(min([r] + [r.scale(u) for u in units], key=lambda w: w.serialize()))
    return RootSet(frozenset(chosen), True)


def reference_extended_positive_roots(Q):
    base = reference_positive_roots(Q)
    return frozenset(
        r.scale(FusionElem.simple(Q.label_set, s))
        for s in irr_enumerate(Q.label_set)
        for r in base.roots
    )


FAMILY_NAMES = [
    "A1", "A2", "A5", "B2", "B3", "B5", "D4", "D6", "E6", "E7", "E8", "F4",
    "G2", "H3", "H4", "I2(5)", "I2(7)", "I2(8)", "I2(10)",
]

# B2 and I2(5) side by side: labels {4, 5}, Irr a product of 3 * 2 simples
B2_I25 = CoxeterQuiver(
    ["1", "2", "3", "4"], [Arrow("a", "1", "2", 4), Arrow("b", "4", "3", 5)]
)
KRONECKER = CoxeterQuiver(["1", "2"], [Arrow("a", "1", "2"), Arrow("b", "1", "2")])
AFFINE_D4 = CoxeterQuiver(
    ["c", "1", "2", "3", "4"], [Arrow(f"a{k}", str(k), "c") for k in range(1, 5)]
)


@pytest.mark.parametrize("name", FAMILY_NAMES + ["B2+I2(5)"])
def test_integer_orbit_matches_fusion_reference(name):
    Q = B2_I25 if name == "B2+I2(5)" else family_quiver(name)
    orbit = root_orbit(Q)
    assert orbit == reference_root_orbit(Q)
    base = positive_roots(Q)
    assert base == reference_positive_roots(Q)
    assert extended_positive_roots(Q).roots == reference_extended_positive_roots(Q)
    if name != "B2+I2(5)":
        assert len(base) == expected_root_count(name)


def test_disconnected_two_label_quiver():
    assert len(irr_enumerate(B2_I25.label_set)) == 6
    # B2 has 4 positive roots, I2(5) has 5, each carried by 6 simples
    assert len(positive_roots(B2_I25)) == 9
    assert len(extended_positive_roots(B2_I25)) == 6 * 9


@pytest.mark.parametrize(
    "Q, budget", [(KRONECKER, 10), (KRONECKER, 40), (AFFINE_D4, 200)], ids=["kronecker-10", "kronecker-40", "affine-d4-200"]
)
def test_budget_exceeded_matches_fusion_reference(Q, budget):
    with pytest.raises(OrbitBudgetExceeded) as expected:
        reference_root_orbit(Q, budget)
    for compute in (root_orbit, positive_roots, extended_positive_roots):
        with pytest.raises(OrbitBudgetExceeded) as got:
            compute(Q, budget)
        assert str(got.value) == str(expected.value)
        assert got.value.partial == expected.value.partial
        assert not got.value.partial.closed
        assert len(got.value.partial) > 0


@pytest.mark.parametrize("name", ["H3", "I2(7)", "B2+I2(5)"])
def test_every_budget_matches_fusion_reference(name):
    # the orbit skips the reflection a member came through; it must still
    # trip at the same member, with the same partial set, at every budget
    Q = B2_I25 if name == "B2+I2(5)" else family_quiver(name)
    size = len(reference_root_orbit(Q))
    for budget in range(size):
        with pytest.raises(OrbitBudgetExceeded) as expected:
            reference_root_orbit(Q, budget)
        for compute in (root_orbit, positive_roots, extended_positive_roots):
            with pytest.raises(OrbitBudgetExceeded) as got:
                compute(Q, budget)
            assert str(got.value) == str(expected.value)
            assert got.value.partial == expected.value.partial
    assert root_orbit(Q, size) == reference_root_orbit(Q, size)


def test_compiled_reflection_matches_plain_formula():
    # at every vertex, x[u] becomes the sum over u's neighbours minus x[u],
    # for unfolded vertices with no neighbour, one neighbour and several
    quivers = [family_quiver("A1"), B2_I25, family_quiver("H3"), path_quiver([10, 11, 12])]
    degrees = set()
    for Q in quivers:
        uq = unfold(Q)
        index = {u: k for k, u in enumerate(uq.vertices)}
        reflections = _Walk(uq).reflections
        rng = random.Random(len(uq.vertices))
        for i in Q.vertices:
            nbrs = {
                index[u]: [index[a.source] for a in uq.in_arrows(u)] + [index[a.target] for a in uq.out_arrows(u)]
                for u in uq.vertices_over(i)
            }
            degrees.update(min(len(w), 2) for w in nbrs.values())
            for _ in range(10):
                x = tuple(rng.randint(-9, 9) for _ in uq.vertices)
                y = list(x)
                for u, w in nbrs.items():
                    y[u] = sum(x[v] for v in w) - x[u]
                assert _int_reflect(x, reflections[i]) == tuple(y)
    assert degrees == {0, 1, 2}


@pytest.mark.parametrize("Q", [AFFINE_D4, KRONECKER], ids=["affine-d4", "kronecker"])
def test_coxeter_order_outside_finite_type_raises_at_once(Q, monkeypatch):
    import sys

    from coxrep import CapExceeded, InvalidOrdering, rootsys

    def built(*args):
        raise AssertionError("an unfolding was built or compiled")

    # `coxrep.unfold` is the function: the module comes from sys.modules
    monkeypatch.setattr(sys.modules["coxrep.unfold"], "unfold", built)
    monkeypatch.setattr(rootsys, "_int_reflections", built)
    monkeypatch.setattr(rootsys._Walk, "__init__", built)
    with pytest.raises(CapExceeded, match="^Coxeter element order not found below 10000$"):
        coxeter_order(Q, Q.vertices)
    # the ordering is checked first
    with pytest.raises(InvalidOrdering):
        coxeter_order(Q, Q.vertices[1:])


# --- the integer Coxeter element against loops over the fusion-valued reflect


def reference_coxeter_apply(Q, ordering, v):
    for i in ordering:
        v = reflect(Q, i, v)
    return v


def reference_coxeter_order(Q, ordering):
    basis = [e(Q, i) for i in Q.vertices]
    current = basis
    for power in range(1, 10000):
        current = [reference_coxeter_apply(Q, ordering, w) for w in current]
        if current == basis:
            return power
    raise AssertionError("no order below the cap")


def reference_depositivize_exponent(Q, ordering, v, cap=1000):
    w = v
    for r in range(1, cap + 1):
        w = reference_coxeter_apply(Q, ordering, w)
        if not is_positive_vec(w):
            return r
    return None


def random_vector(Q, rng, low, high):
    simples = irr_enumerate(Q.label_set)
    entries = {v: FusionElem(Q.label_set, {s: rng.randint(low, high) for s in simples}) for v in Q.vertices}
    return RootVector(Q.label_set, entries)


def refuse_fusion_reflect(monkeypatch):
    # coxeter_order runs on the integer reflections; the reference loops
    # call this module's own binding of `reflect`, which stays
    import coxrep.rootsys

    def refused(*args):
        raise AssertionError("the fusion-valued reflect was called")

    monkeypatch.setattr(coxrep.rootsys, "reflect", refused)


@pytest.mark.parametrize("name", ["B2+I2(5)", "H3", "path 4-5-6"])
def test_coxeter_apply_matches_fusion_reference(name):
    Q = {"B2+I2(5)": B2_I25, "path 4-5-6": path_quiver([4, 5, 6])}.get(name) or family_quiver(name)
    rng = random.Random(29)
    for _ in range(8):
        ordering = rng.sample(Q.vertices, len(Q.vertices))
        v = random_vector(Q, rng, -3, 3)
        assert coxeter_apply(Q, ordering, v) == reference_coxeter_apply(Q, ordering, v)
    assert not coxeter_apply(Q, Q.vertices, RootVector.zero(Q.label_set))


@pytest.mark.parametrize("name", ["A1", "A4", "B3", "B4", "H3", "H4", "I2(5)", "I2(8)", "I2(12)", "B2+I2(5)"])
def test_coxeter_order_and_depositivize_match_fusion_reference(name, monkeypatch):
    from coxrep import CapExceeded

    Q = B2_I25 if name == "B2+I2(5)" else family_quiver(name)
    rng = random.Random(name)
    for ordering in (Q.vertices, Q.vertices[::-1], rng.sample(Q.vertices, len(Q.vertices))):
        with monkeypatch.context() as m:
            refuse_fusion_reflect(m)
            h = coxeter_order(Q, ordering)
        assert h == reference_coxeter_order(Q, ordering)
        for cap in (h, 1):
            for _ in range(5):
                w = random_vector(Q, rng, 0, 2)
                if not is_positive_vec(w):
                    continue
                expect = reference_depositivize_exponent(Q, ordering, w, cap)
                if expect is None:
                    with pytest.raises(CapExceeded):
                        depositivize_exponent(Q, ordering, w, cap)
                else:
                    assert depositivize_exponent(Q, ordering, w, cap) == expect


def test_coxeter_functions_build_no_unfolding_for_one_vector(monkeypatch):
    # I2(2^70): an unfolding would have 2 * (2^70 - 1) vertices, but a class
    # of the label has one simple, so one vector is reflected in the fusion
    # ring; the Coxeter element has order 2^70, past the cap, known at once
    import sys

    from coxrep import CapExceeded

    def built(*args):
        raise AssertionError("an unfolding was built")

    monkeypatch.setattr(sys.modules["coxrep.unfold"], "unfold", built)
    m = 2**70
    Q = parse_quiver(f"vertex 1\nvertex 2\narrow 1 2 {m}\n")
    labels = Q.label_set
    label = arrow_label_class(labels, m)
    (X,) = label.coeffs
    assert X.components == ((m, m - 3),)
    image = RootVector(labels, {"1": -FusionElem.unit(labels), "2": -label})
    assert coxeter_apply(Q, ("1", "2"), e(Q, "1")) == image
    assert coxeter_apply(Q, ("2", "1"), e(Q, "2")) == reference_coxeter_apply(Q, ("2", "1"), e(Q, "2"))
    assert depositivize_exponent(Q, ("1", "2"), e(Q, "1")) == 1
    with pytest.raises(CapExceeded, match="^no depositivizing exponent below 5$"):
        depositivize_exponent(Q, ("2", "1"), e(Q, "1"), cap=5)
    with pytest.raises(CapExceeded, match="^Coxeter element order not found below 10000$"):
        coxeter_order(Q, ("1", "2"))


def test_coxeter_order_walks_each_component_alone(monkeypatch):
    # I2(6), I2(7), ..., I2(14): a walk of the whole quiver would unfold
    # 540540 simples per vertex, the product of the counts of the seven
    # labels; each component's walk has only the simples of its label, and
    # the order is the lcm of the Coxeter numbers m
    from coxrep import rootsys
    from coxrep.fusion import _simple_count

    labels = [6, 7, 8, 9, 10, 12, 14]
    Q = parse_quiver("".join(f"vertex a{m}\nvertex b{m}\narrow a{m} b{m} {m}\n" for m in labels))
    sizes = []
    init = rootsys._Walk.__init__

    def counted(self, uq):
        sizes.append(len(uq.vertices))
        init(self, uq)

    monkeypatch.setattr(rootsys._Walk, "__init__", counted)
    assert coxeter_order(Q, Q.vertices) == 2520
    assert coxeter_order(Q, Q.vertices[::-1]) == 2520
    assert sorted(sizes) == sorted(2 * [2 * _simple_count(m) for m in labels])


def test_coxeter_errors_check_the_ordering_then_positivity_then_the_vector():
    from coxrep import InvalidOrdering, MismatchedQuiver, UnknownVertex

    off = RootVector(A2.label_set, {"1": unit(A2), "zz": unit(A2)})
    negative = RootVector(A2.label_set, {"1": -unit(A2), "zz": unit(A2)})
    with pytest.raises(InvalidOrdering):
        coxeter_apply(A2, ("1",), off)
    with pytest.raises(InvalidOrdering):
        depositivize_exponent(A2, ("1",), negative)
    with pytest.raises(ValueError, match="^starting vector must be positive$"):
        depositivize_exponent(A2, ("1", "2"), negative)
    with pytest.raises(UnknownVertex):
        depositivize_exponent(A2, ("1", "2"), off)
    with pytest.raises(MismatchedQuiver):
        depositivize_exponent(A2, ("1", "2"), e(I25, "1"))
    with pytest.raises(MismatchedQuiver):
        coxeter_apply(A2, ("1", "2"), e(I25, "1"))


def test_fold_dim_matches_fusion_sum():
    Q = B2_I25
    uq = unfold(Q)
    rng = random.Random(5)
    for _ in range(20):
        dims = {u: rng.randint(0, 3) for u in uq.vertices}
        expect = RootVector.zero(Q.label_set)
        for u, d in dims.items():
            simple, v = uq.parts[u]
            expect = expect + RootVector(
                Q.label_set, {v: FusionElem.simple(Q.label_set, simple) * d}
            )
        assert fold_dim(uq, dims) == expect
    with pytest.raises(ValueError):
        fold_dim(uq, {uq.vertices[0]: -1})


def test_extend_by_simples_matches_scaling():
    # any root set, signs mixed: every simple class times every vector
    from coxrep.rootsys import extend_by_simples

    Q = B2_I25
    simples = irr_enumerate(Q.label_set)
    rng = random.Random(11)
    vectors = set()
    for _ in range(6):
        entries = {v: FusionElem(Q.label_set, {s: rng.randint(-2, 2) for s in simples}) for v in Q.vertices}
        vectors.add(RootVector(Q.label_set, entries))
    got = extend_by_simples(Q, RootSet(frozenset(vectors), False))
    assert not got.closed
    assert got.roots == frozenset(r.scale(FusionElem.simple(Q.label_set, s)) for s in simples for r in vectors)


def per_label_product(X, B):
    # X ⊗ B component by component, by the label-n rule at each label n
    return {
        SimpleObject(combo)
        for combo in product(*([(n, c) for c in tlj_tensor(n, a, B.index(n))] for n, a in X.components))
    }


@pytest.mark.parametrize("labels", [(4, 5), (6, 7), (3, 8)])
def test_product_tables_and_invertible_simples_follow_the_per_label_rule(labels):
    uq = unfold(path_quiver(list(labels)))
    position = {uq.parts[u]: k for k, u in enumerate(uq.vertices)}
    walk = _Walk(uq)
    tables = [walk.table(X) for X in uq.irr]
    for X, table in zip(uq.irr, tables):
        for k, u in enumerate(uq.vertices):
            B, v = uq.parts[u]
            assert sorted(table[k]) == sorted(position[C, v] for C in per_label_product(X, B))
    unit = SimpleObject.unit(labels)
    expected = [s for s in irr_enumerate(labels) if per_label_product(s, s) == {unit}]
    assert invertible_simples(labels) == invertible_simples(labels[::-1] + labels) == expected
    assert len(expected) == 2 ** sum(n % 2 == 0 for n in labels)
