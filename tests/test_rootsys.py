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
from coxrep.rootsys import _product_tables
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
    coxeter_apply(Q, Q.vertices, e(Q, Q.vertices[0]))
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
    tables = _product_tables(uq, uq.irr)
    for X, table in zip(uq.irr, tables):
        for k, u in enumerate(uq.vertices):
            B, v = uq.parts[u]
            assert sorted(table[k]) == sorted(position[C, v] for C in per_label_product(X, B))
    unit = SimpleObject.unit(labels)
    expected = [s for s in irr_enumerate(labels) if per_label_product(s, s) == {unit}]
    assert invertible_simples(labels) == invertible_simples(labels[::-1] + labels) == expected
    assert len(expected) == 2 ** sum(n % 2 == 0 for n in labels)
