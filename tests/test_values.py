"""Every value type is immutable, pickles at every protocol, copies and
deep-copies; the types made of plain fields construct, compare, hash and
print by those fields; every check on malformed input raises its own exception type.

Runs under pytest, and as a plain script (`PYTHONPATH=src python
tests/test_values.py`) on an interpreter without pytest.
"""

import copy
import pickle
from fractions import Fraction

from coxrep import (
    Arrow,
    CoxeterQuiver,
    DynkinType,
    FusionElem,
    Mat,
    MismatchedQuiver,
    OrbitBudgetExceeded,
    PathGrade,
    RootSet,
    RootVector,
    SimpleObject,
    SplittingFailed,
    UnfoldedRep,
    UnknownVertex,
    direct_sum,
    enumerate_indecomposables,
    enumerate_paths,
    fold_dim,
    hom_dim,
    parse_quiver,
    positive_roots,
    solve_all,
    unfold,
    zero_rep,
)
from coxrep._values import Frozen, Value
from coxrep.linalg import Solution
from coxrep.quiver import QuiverError
from coxrep.unfold import UnfoldedArrow

H2 = parse_quiver("vertex 1\nvertex 2\narrow 1 2 5\n")
A2 = parse_quiver("vertex 1\nvertex 2\narrow 1 2\n")


def _raises(exc_type, fn):
    """The exception fn() raises, which must be of exactly exc_type."""
    try:
        fn()
    except Exception as exc:
        assert type(exc) is exc_type, f"{type(exc).__name__}: {exc}, expected {exc_type.__name__}"
        return exc
    raise AssertionError(f"no {exc_type.__name__} raised")


def _slots(x) -> dict:
    names = [s for c in type(x).__mro__ for s in c.__dict__.get("__slots__", ())]
    return {s: getattr(x, s) for s in names}


def _samples() -> list:
    uq = unfold(H2)
    big = max(enumerate_indecomposables(H2), key=UnfoldedRep.total_dim)
    half = Mat.from_rows([[1, Fraction(1, 2)], [0, Fraction(-3, 4)]])
    half.data  # fills the cached Fractions
    elem = FusionElem((4, 5), {"4:1|5:2": 2, "4:0|5:0": -1})
    elem.key()  # fills the cached key
    return [
        SimpleObject.from_key("4:1|5:2"),
        elem,
        FusionElem.zero((5,)),
        positive_roots(H2).sorted()[-1],
        half,
        Mat.zeros(0, 3),
        solve_all(Mat.from_rows([[1, 1]]), Mat.from_rows([[2]])),
        H2,
        uq,
        big,
        H2.arrows[0],
        DynkinType("I2", 5),
        uq.arrows[0],
        positive_roots(H2),
        enumerate_paths(H2, 1),
    ]


def test_every_value_type_is_sampled():
    kinds, todo = set(), [Frozen]
    while todo:
        for cls in todo.pop().__subclasses__():
            kinds.add(cls)
            todo.append(cls)
    assert {type(x) for x in _samples()} == kinds - {Value} and len(kinds) == 14


def test_values_pickle_copy_and_deepcopy():
    copiers = [lambda x, p=p: pickle.loads(pickle.dumps(x, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    copiers += [copy.copy, copy.deepcopy]
    for x in _samples():
        for copier in copiers:
            # compare the slots before == fills a cached key on either side
            y = copier(x)
            assert type(y) is type(x)
            assert _slots(y) == _slots(x), type(x).__name__
            if isinstance(x, Solution):  # compares by identity
                continue
            assert y == x and not y != x
            if type(x).__hash__ is not None:
                assert hash(y) == hash(x)
    s = SimpleObject.from_key("4:1|5:2")
    assert pickle.loads(pickle.dumps(s)) is s and copy.deepcopy(s) is s


def test_copied_values_compute_like_the_originals():
    uq = unfold(H2)
    V = max(enumerate_indecomposables(H2), key=UnfoldedRep.total_dim)
    W = pickle.loads(pickle.dumps(V))
    assert hom_dim(W, V) == hom_dim(V, V) == 1
    assert direct_sum(W, W) == direct_sum(V, V)
    assert copy.deepcopy(uq).in_arrows(uq.vertices[-1]) == uq.in_arrows(uq.vertices[-1])
    Q = pickle.loads(pickle.dumps(H2))
    assert Q.out_arrows("1") == H2.out_arrows("1") and unfold(Q) == uq
    x = FusionElem.unit((5,)) + FusionElem((5,), {"5:2": 1})
    assert pickle.loads(pickle.dumps(x)) * x == x * x


def test_values_refuse_assignment_and_deletion():
    for x in _samples():
        name = type(x).__name__
        before = _slots(x)
        for attr in [*before, "extra"]:
            exc = _raises(AttributeError, lambda: setattr(x, attr, None))
            assert str(exc) == f"{name} is immutable"
            exc = _raises(AttributeError, lambda: delattr(x, attr))
            assert str(exc) == f"{name} is immutable"
        assert _slots(x) == before


def test_field_values_construct_compare_hash_and_print_by_their_fields():
    root = RootVector.basis(H2, "1")
    # each row: the positional arguments, the keyword arguments, the repr
    table = [
        (Arrow, ("a0", "1", "2", 3), {"id": "a0", "source": "1", "target": "2"},
         "Arrow(id='a0', source='1', target='2', label=3)"),
        (DynkinType, ("NotDynkin", None), {"family": "NotDynkin"}, "NotDynkin"),
        (DynkinType, ("I2", 5), {"param": 5, "family": "I2"}, "I2(5)"),
        (UnfoldedArrow, ("a0:5:0@1>5:2@2", "5:0@1", "5:2@2", "a0"),
         {"provenance": "a0", "target": "5:2@2", "source": "5:0@1", "id": "a0:5:0@1>5:2@2"},
         "UnfoldedArrow(id='a0:5:0@1>5:2@2', source='5:0@1', target='5:2@2', provenance='a0')"),
        (RootSet, (frozenset({root}), True), {"roots": frozenset({root}), "closed": True},
         "RootSet(roots=frozenset({RootVector(1: FusionElem(1*[5:0]))}), closed=True)"),
        (PathGrade, (1, (("a0",),)), {"length": 1, "paths": (("a0",),)},
         "PathGrade(length=1, paths=(('a0',),))"),
    ]
    for cls, args, kwargs, text in table:
        x = cls(*args)
        assert x == cls(**kwargs) and hash(x) == hash(cls(**kwargs))
        assert repr(x) == text
        assert hash(x) == hash(args) and x != args
    assert H2.arrows[0] == Arrow("a0", "1", "2", 5) != Arrow("a0", "1", "2")
    assert unfold(H2).arrows[0] == UnfoldedArrow("a0:5:0@1>5:2@2", "5:0@1", "5:2@2", "a0")


def test_unfolded_rep_is_unhashable():
    for V in (zero_rep(H2), max(enumerate_indecomposables(H2), key=UnfoldedRep.total_dim)):
        _raises(TypeError, lambda: hash(V))


def test_exceptions_with_data_survive_pickle():
    exc = _raises(OrbitBudgetExceeded, lambda: positive_roots(
        CoxeterQuiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")]), budget=40))
    fail = SplittingFailed(7)
    for p in range(pickle.HIGHEST_PROTOCOL + 1):
        got = pickle.loads(pickle.dumps(exc, p))
        assert type(got) is OrbitBudgetExceeded and str(got) == str(exc) == "orbit exceeded budget 40"
        assert got.partial == exc.partial and got.partial.roots
        got = pickle.loads(pickle.dumps(fail, p))
        assert type(got) is SplittingFailed and got.seed == 7
        assert str(got) == str(fail) == "no splitting endomorphism found (seed=7)"


def test_checks_raise_their_exception_types():
    uq = unfold(A2)
    u, w = uq.vertices
    (a,) = uq.arrows
    # each row: the exception type, a fragment of its message, the call
    table = [
        (ValueError, "non-negative", lambda: UnfoldedRep(uq, {u: -1})),
        (UnknownVertex, "vertices", lambda: UnfoldedRep(uq, {"nowhere": 1})),
        (UnknownVertex, "arrows", lambda: UnfoldedRep(uq, maps={"nothing": Mat.zeros(0, 0)})),
        (ValueError, "expected 1x1", lambda: UnfoldedRep(uq, {u: 1, w: 1}, {a.id: Mat.zeros(2, 1)})),
        (QuiverError, "vertex", lambda: CoxeterQuiver(["1", "1"], [])),
        (QuiverError, "arrow", lambda: CoxeterQuiver(["1", "2"], [("a", "1", "2"), ("a", "1", "2")])),
        (UnknownVertex, "source", lambda: CoxeterQuiver(["1"], [("a", "9", "1")])),
        (ValueError, "quivers", lambda: direct_sum(zero_rep(A2), zero_rep(H2))),
        (ValueError, "quivers", lambda: hom_dim(zero_rep(A2), zero_rep(H2))),
        (MismatchedQuiver, "labels", lambda: RootVector((5,), {"1": FusionElem.unit((4,))})),
        (ValueError, "negative", lambda: Mat(-1, 0)),
        (ValueError, "negative", lambda: Mat(0, -1)),
        (ValueError, "addition", lambda: Mat.zeros(1, 2) + Mat.zeros(2, 1)),
        (ValueError, "product", lambda: Mat.zeros(1, 2) * Mat.zeros(1, 2)),
        (ValueError, "hstack", lambda: Mat.zeros(1, 1).hstack(Mat.zeros(2, 1))),
        (ValueError, "vstack", lambda: Mat.zeros(1, 1).vstack(Mat.zeros(1, 2))),
        (ValueError, "shapes", lambda: solve_all(Mat.zeros(1, 1), Mat.zeros(2, 1))),
        (UnknownVertex, "vertex", lambda: fold_dim(uq, {"nowhere": 1})),
    ]
    for exc_type, fragment, fn in table:
        assert fragment in str(_raises(exc_type, fn)), fragment


if __name__ == "__main__":
    for _name, _test in list(globals().items()):
        if _name.startswith("test_"):
            _test()
            print("ok", _name)
