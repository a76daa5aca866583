import copy
import math
import pickle
import random
from itertools import product

import pytest

from coxrep import (
    FusionElem,
    MismatchedLabelSets,
    SimpleObject,
    chebyshev,
    fusion_mul,
    irr_enumerate,
    is_positive_elem,
    pf_eval,
    tlj_simples,
    tlj_tensor,
)
from coxrep.fusion import _mul_acc, _simple_mul, arrow_label_class


def elem(labels, *pairs):
    return FusionElem(labels, {SimpleObject.from_key(k): c for k, c in pairs})


def random_elem(rng, labels, simples, max_terms=3, lo=-3, hi=3):
    coeffs = {}
    for _ in range(rng.randint(0, max_terms)):
        coeffs[rng.choice(simples)] = rng.randint(lo, hi)
    return FusionElem(labels, coeffs)


def test_chebyshev_base_cases():
    assert chebyshev(0) == [1]
    assert chebyshev(1) == [0, 1]


def test_chebyshev_one_step():
    assert chebyshev(2) == [-1, 0, 1]  # d^2 - 1


def test_chebyshev_degree_four():
    # iterating the recurrence by hand: d^4 - 3d^2 + 1
    assert chebyshev(4) == [1, 0, -3, 0, 1]


def test_chebyshev_recurrence_holds():
    for k in range(2, 15):
        prev, cur, nxt = chebyshev(k - 1), chebyshev(k), chebyshev(k + 1)
        shifted = [0] + cur
        expect = [s - (prev[i] if i < len(prev) else 0) for i, s in enumerate(shifted)]
        assert nxt == expect


@pytest.mark.parametrize(
    "n,expected",
    [(3, [0]), (4, [0, 1, 2]), (5, [0, 2]), (6, [0, 1, 2, 3, 4]), (7, [0, 2, 4])],
)
def test_tlj_simples(n, expected):
    assert tlj_simples(n) == expected


def test_tlj_tensor_golden():
    assert tlj_tensor(4, 1, 1) == (0, 2)
    assert tlj_tensor(5, 2, 2) == (0, 2)
    assert tlj_tensor(6, 4, 3) == (1,)  # top simple acts as an involution


def test_tlj_tensor_symmetry_and_reciprocity():
    for n in range(3, 13):
        rng_indices = range(n - 1)
        for a in rng_indices:
            for b in rng_indices:
                assert tlj_tensor(n, a, b) == tlj_tensor(n, b, a)
                for c in rng_indices:
                    # self duality: c in a*b iff b in a*c
                    assert (c in tlj_tensor(n, a, b)) == (b in tlj_tensor(n, a, c))


def test_tlj_tensor_unit_and_top():
    for n in range(3, 13):
        for b in range(n - 1):
            assert tlj_tensor(n, 0, b) == (b,)
            assert tlj_tensor(n, n - 2, b) == (n - 2 - b,)


def test_irr_enumerate_sizes():
    assert len(irr_enumerate({3})) == 1
    assert irr_enumerate({3})[0].is_unit()
    assert len(irr_enumerate({5})) == 2
    assert len(irr_enumerate({4, 5})) == 6
    assert len(irr_enumerate(set())) == 1


def test_irr_enumerate_order():
    keys = [s.key for s in irr_enumerate({4, 5})]
    assert keys == ["4:0|5:0", "4:0|5:2", "4:1|5:0", "4:1|5:2", "4:2|5:0", "4:2|5:2"]


def test_simple_object_rejects_odd_index_for_odd_label():
    with pytest.raises(ValueError):
        SimpleObject([(5, 1)])


def test_fusion_mul_unital():
    rng = random.Random(1)
    labels = (4, 5)
    simples = irr_enumerate(labels)
    one = FusionElem.unit(labels)
    for _ in range(20):
        x = random_elem(rng, labels, simples)
        assert fusion_mul(one, x) == x
        assert fusion_mul(x, one) == x


def test_fusion_mul_golden():
    x = elem((4,), ("4:1", 1))
    assert fusion_mul(x, x) == elem((4,), ("4:0", 1), ("4:2", 1))
    tau = elem((5,), ("5:2", 1))
    assert fusion_mul(tau, tau) == elem((5,), ("5:0", 1), ("5:2", 1))


def test_fusion_mul_label_mismatch():
    with pytest.raises(MismatchedLabelSets):
        fusion_mul(FusionElem.unit((4,)), FusionElem.unit((5,)))


def reference_mul(x, y):
    """x * y from the definition: the bilinear extension of the label-wise
    tensor rule `tlj_tensor`, one simple pair and one summand at a time."""
    out = FusionElem.zero(x.labels)
    for sx, cx in x.coeffs.items():
        for sy, cy in y.coeffs.items():
            per_label = [[(n, c) for c in tlj_tensor(n, a, sy.index(n))] for n, a in sx.components]
            for combo in product(*per_label):
                out = out + FusionElem(x.labels, {SimpleObject(combo): cx * cy})
    return out


def test_mul_matches_bilinear_reference():
    rng = random.Random(29)
    for labels in [(), (5,), (4, 5), (3, 6, 8)]:
        simples = irr_enumerate(labels)
        zero = FusionElem.zero(labels)
        for _ in range(40):
            x = random_elem(rng, labels, simples, max_terms=4)
            y = random_elem(rng, labels, simples, max_terms=4)
            for a, b in ((x, y), (x, -y), (x, zero), (zero, y)):
                assert a * b == reference_mul(a, b)
            # the kernel on raw dicts: it adds into what `out` holds, and a
            # zero coefficient in an operand contributes nothing
            start = {rng.choice(simples): rng.randint(-3, 3) for _ in range(2)}
            raw_x = dict.fromkeys(simples, 0)
            raw_x.update(x.coeffs)
            out = dict(start)
            _mul_acc(out, raw_x, y.coeffs)
            assert FusionElem(labels, out) == FusionElem(labels, start) + reference_mul(x, y)


def test_ring_laws_random():
    rng = random.Random(7)
    labels = (4, 5)
    simples = irr_enumerate(labels)
    for _ in range(60):
        x = random_elem(rng, labels, simples)
        y = random_elem(rng, labels, simples)
        z = random_elem(rng, labels, simples)
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


def test_presentation_identity_even_labels():
    # the ring at an even label is generated by the index-1 simple with the
    # degree n-1 relation
    for n in range(4, 13, 2):
        labels = (n,)
        gen = FusionElem(labels, {SimpleObject([(n, 1)]): 1})
        coeffs = chebyshev(n - 1)
        acc = FusionElem.zero(labels)
        power = FusionElem.unit(labels)
        for c in coeffs:
            acc = acc + power * c
            power = power * gen
        assert not acc


def test_positivity():
    labels = (5,)
    pos = elem(labels, ("5:0", 1), ("5:2", 1))
    assert is_positive_elem(pos)
    assert not is_positive_elem(FusionElem.zero(labels))
    assert not is_positive_elem(elem(labels, ("5:0", 1), ("5:2", -1)))


def test_positivity_closure():
    rng = random.Random(3)
    labels = (4, 7)
    simples = irr_enumerate(labels)
    for _ in range(40):
        x = random_elem(rng, labels, simples, lo=0, hi=3)
        y = random_elem(rng, labels, simples, lo=0, hi=3)
        if is_positive_elem(x) and is_positive_elem(y):
            assert is_positive_elem(x + y)
            assert is_positive_elem(x * y)


def test_pf_eval_golden():
    assert pf_eval(FusionElem.unit((5,))) == pytest.approx(1.0)
    golden = (1 + math.sqrt(5)) / 2
    assert pf_eval(elem((5,), ("5:2", 1))) == pytest.approx(golden, abs=1e-12)
    assert pf_eval(elem((4,), ("4:1", 1))) == pytest.approx(math.sqrt(2), abs=1e-12)


def test_pf_eval_is_ring_hom():
    rng = random.Random(11)
    labels = (4, 5)
    simples = irr_enumerate(labels)
    for _ in range(50):
        x = random_elem(rng, labels, simples)
        y = random_elem(rng, labels, simples)
        assert pf_eval(x * y) == pytest.approx(pf_eval(x) * pf_eval(y), abs=1e-9)
        assert pf_eval(x + y) == pytest.approx(pf_eval(x) + pf_eval(y), abs=1e-9)


def test_json_round_trip():
    labels = (4, 5)
    x = elem(labels, ("4:1|5:2", 2), ("4:0|5:0", -1))
    assert FusionElem.from_json(x.to_json(), labels) == x
    unit_empty = FusionElem.unit(())
    assert unit_empty.to_json() == {"": 1}
    assert FusionElem.from_json({"": 1}, ()) == unit_empty


def test_empty_label_set_is_integers():
    one = FusionElem.unit(())
    assert one * one == one
    assert (one + one) * (one + one) == one * 4


def rebuilt(x):
    """The same value built through the validating constructor."""
    return FusionElem(x.labels, {s.key: c for s, c in x.coeffs.items()})


def test_arithmetic_results_equal_validated_construction():
    rng = random.Random(17)
    for labels in [(), (5,), (4, 5), (3, 6)]:
        simples = irr_enumerate(labels)
        for _ in range(40):
            x = random_elem(rng, labels, simples)
            y = random_elem(rng, labels, simples)
            k = rng.randint(-3, 3)
            for z in (x + y, x - y, -x, x * y, x * k, k * x):
                assert z == rebuilt(z)
                assert z.labels == tuple(sorted(labels))
                assert all(type(c) is int and c for c in z.coeffs.values())
                assert all(s.labels == z.labels for s in z.coeffs)
                assert hash(z) == hash(rebuilt(z))


def test_arithmetic_drops_zero_coefficients():
    labels = (4, 5)
    zero = FusionElem.zero(labels)
    x = elem(labels, ("4:0|5:0", 2), ("4:1|5:2", -3), ("4:2|5:0", 1))
    for z in (x + (-x), x - x, x * 0, 0 * x, x * zero, -zero):
        assert not z
        assert z == zero
        assert z.coeffs == {}
    # partial cancellation keeps only the surviving simple
    y = elem(labels, ("4:0|5:0", -2), ("4:1|5:2", 3))
    assert x + y == elem(labels, ("4:2|5:0", 1))
    assert set((x + y).coeffs) == {SimpleObject.from_key("4:2|5:0")}
    # a product whose terms cancel: (t - 1) * (t + 1) = t^2 - 1 = t at label 5
    t = elem((5,), ("5:2", 1))
    one = FusionElem.unit((5,))
    assert (t - one) * (t + one) == t
    assert set(((t - one) * (t + one)).coeffs) == {SimpleObject.from_key("5:2")}


def test_one_object_per_simple():
    labels = (4, 5)
    s = SimpleObject([(5, 2), (4, 1)])
    assert SimpleObject(((4, 1), (5, 2))) is s
    assert SimpleObject.from_key("4:1|5:2") is s
    assert SimpleObject.unit(labels).replace(4, 1).replace(5, 2) is s
    irr = irr_enumerate(labels)
    assert all(t is u for t, u in zip(irr, irr_enumerate(labels)))
    assert [u for u in irr if u is s] == [s]
    by_key = {u.key: u for u in irr}
    for x in irr:
        for y in irr:
            assert all(z is by_key[z.key] for z in _simple_mul(x, y))
    (x,) = arrow_label_class(labels, 5).coeffs
    assert x is SimpleObject.from_key("4:0|5:2")
    # pickle and deepcopy hand back the stored object, not a copy
    for proto in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(s, proto)) is s
        assert all(t is u for t, u in zip(pickle.loads(pickle.dumps(irr, proto)), irr))
    assert copy.deepcopy(s) is s
    assert copy.copy(s) is s
    assert all(t is u for t, u in zip(copy.deepcopy(irr), irr))
    # equality and hashing are by identity: nothing overrides them
    assert "__eq__" not in vars(SimpleObject) and "__hash__" not in vars(SimpleObject)


def test_warm_arrow_label_class_stores_no_simple():
    from coxrep.fusion import _SIMPLES

    labels = (3, 4, 7)
    first = arrow_label_class(labels, 7)
    stored = len(_SIMPLES)
    second = arrow_label_class(labels, 7)
    assert len(_SIMPLES) == stored
    assert second == first and list(second.coeffs)[0] is list(first.coeffs)[0]


def test_replace_refuses_a_label_it_does_not_carry():
    s = SimpleObject.from_key("4:1|5:2")
    assert s.replace(5, 0) is SimpleObject.from_key("4:1|5:0")
    for n in (3, 6):
        with pytest.raises(KeyError) as info:
            s.replace(n, 0)
        assert info.value.args == (n,)
    with pytest.raises(KeyError):
        arrow_label_class((4,), 5)
    with pytest.raises(KeyError):
        SimpleObject.unit(()).replace(3, 0)
