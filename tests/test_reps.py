import hashlib
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from coxrep import (
    Arrow,
    CapExceeded,
    CoxeterQuiver,
    FusionElem,
    NotAnExtendedRoot,
    NotASink,
    NotASource,
    NotFiniteType,
    RootVector,
    SimpleObject,
    SplittingFailed,
    apply_reflection_word,
    decompose,
    dim_vector,
    direct_sum,
    end_dim,
    endomorphism_basis,
    enumerate_indecomposables,
    extended_positive_roots,
    hom_dim,
    indecomposable_for,
    irr_enumerate,
    parse_quiver,
    positive_roots,
    reflect,
    reflect_minus,
    reflect_plus,
    reverse_at,
    simple_rep,
    unfold,
    zero_rep,
)
from coxrep.linalg import Mat, NoSolution, _reduced_kernel, charpoly, cokernel_projection, integer_roots, kernel_basis
from coxrep.linalg import solve_all
from coxrep import linalg as linalg_mod
from coxrep import reps as reps_mod
from coxrep.quiver import admissible_sink_ordering
from coxrep.reps import UnfoldedRep, _eigenvalues, _int_poly_at, _knit, _materialize, _plan, _reflection_step
from coxrep.reps import _restrict, _try_split
from coxrep.rootsys import _Walk
from coxrep.unfold import unfolded_arrow_id, vertex_name
from families import all_orientations, family_quiver

A2 = parse_quiver("vertex 1\nvertex 2\narrow 2 1\n")  # sink at 1
I25 = parse_quiver("vertex 1\nvertex 2\narrow 1 2 5\n")


def unit_simple(Q):
    return SimpleObject.unit(Q.label_set)


def tau_elem():
    return FusionElem((5,), {SimpleObject([(5, 2)]): 1})


def support(V):
    return {k: v for k, v in V.dims.items() if v}


def test_simple_rep_dims():
    S = simple_rep(A2, "1", unit_simple(A2))
    assert support(S) == {"3:0@1": 1}
    assert all(m.rows * m.cols == 0 for m in S.maps.values())


def test_simple_rep_with_nontrivial_simple():
    tau = SimpleObject([(5, 2)])
    S = simple_rep(I25, "2", tau)
    assert support(S) == {"5:2@2": 1}
    dv = dim_vector(S)
    assert dv == RootVector.basis(I25, "2").scale(tau_elem())


def test_dim_vector_additive():
    S1 = simple_rep(A2, "1", unit_simple(A2))
    S2 = simple_rep(A2, "2", unit_simple(A2))
    both = direct_sum(S1, S2)
    assert dim_vector(both) == dim_vector(S1) + dim_vector(S2)
    assert not dim_vector(zero_rep(A2))


def test_reflect_plus_kills_kernel():
    # dims (1,1) with the identity map reflects to (0,1) at the sink
    uq = unfold(A2)
    arrow = uq.arrows[0].id
    V = UnfoldedRep(uq, {"3:0@1": 1, "3:0@2": 1}, {arrow: Mat.identity(1)})
    R = reflect_plus(A2, "1", V)
    assert support(R) == {"3:0@2": 1}
    assert dim_vector(R) == reflect(A2, "1", dim_vector(V))


def test_reflect_plus_on_sink_simple_gives_zero():
    S = simple_rep(A2, "1", unit_simple(A2))
    assert reflect_plus(A2, "1", S).is_zero()


def test_reflect_plus_dim_identity_on_adjacent_simple():
    S = simple_rep(A2, "2", unit_simple(A2))
    R = reflect_plus(A2, "1", S)
    assert dim_vector(R) == reflect(A2, "1", dim_vector(S))


def test_reflect_requires_sink_or_source():
    with pytest.raises(NotASink):
        reflect_plus(A2, "2", simple_rep(A2, "1", unit_simple(A2)))
    with pytest.raises(NotASource):
        reflect_minus(A2, "1", simple_rep(A2, "1", unit_simple(A2)))


def test_reflect_minus_on_source_simple_gives_zero():
    S = simple_rep(A2, "2", unit_simple(A2))
    assert reflect_minus(A2, "2", S).is_zero()


def test_reflect_round_trip_when_epi():
    # an indecomposable that is not simple at the sink has epi assembly map,
    # so minus after plus recovers it
    v = RootVector.basis(A2, "1") + RootVector.basis(A2, "2")
    V = indecomposable_for(A2, v)
    R = reflect_plus(A2, "1", V)
    back = reflect_minus(reverse_at(A2, "1"), "1", R)
    assert dim_vector(back) == dim_vector(V)
    assert end_dim(back) == 1
    assert [dim_vector(W).serialize() for W in decompose(back)] == [
        dim_vector(V).serialize()
    ]


def reference_reflect_plus(Q, i, V):
    """The kernel construction at a sink, built independently of
    `reps._reflection_step`: at every u over i, the kernel of the blocks of
    the arrows into u placed side by side, cut into one slice per arrow."""
    uq = V.quiver
    over_i = set(uq.vertices_over(i))
    dims = dict(V.dims)
    maps = {a.id: V.maps[a.id] for a in uq.arrows if a.target not in over_i}
    for name in sorted(over_i):
        incoming = uq.in_arrows(name)
        xi = Mat.zeros(V.dims[name], 0)
        for a in incoming:
            xi = xi.hstack(V.maps[a.id])
        K = kernel_basis(xi)
        dims[name] = K.cols
        offset = 0
        for a in incoming:
            width = V.maps[a.id].cols
            maps[f"{a.provenance}:{a.target}>{a.source}"] = K.submatrix(range(offset, offset + width), range(K.cols))
            offset += width
    return UnfoldedRep(unfold(reverse_at(Q, i)), dims, maps)


def reference_reflect_minus(Q, i, V):
    """The cokernel construction at a source, built independently of
    `reps._reflection_step`: at every u over i, the cokernel projection of the
    blocks of the arrows out of u stacked vertically, cut into one slice per
    arrow."""
    uq = V.quiver
    over_i = set(uq.vertices_over(i))
    dims = dict(V.dims)
    maps = {a.id: V.maps[a.id] for a in uq.arrows if a.source not in over_i}
    for name in sorted(over_i):
        outgoing = uq.out_arrows(name)
        theta = Mat.zeros(0, V.dims[name])
        for a in outgoing:
            theta = theta.vstack(V.maps[a.id])
        P = cokernel_projection(theta)
        dims[name] = P.rows
        offset = 0
        for a in outgoing:
            height = V.maps[a.id].rows
            maps[f"{a.provenance}:{a.target}>{a.source}"] = P.submatrix(range(P.rows), range(offset, offset + height))
            offset += height
    return UnfoldedRep(unfold(reverse_at(Q, i)), dims, maps)


def assert_functors_match_reference(Q, V):
    # by full equality: every dimension, and every map with its shape, also
    # the zero maps that `to_json` leaves out
    for i in Q.sinks():
        assert reflect_plus(Q, i, V) == reference_reflect_plus(Q, i, V)
    for i in Q.sources():
        assert reflect_minus(Q, i, V) == reference_reflect_minus(Q, i, V)


@pytest.mark.parametrize("name", ["A3", "D4", "B3", "H3", "I2(5)", "G2", "F4"])
def test_reflection_functors_match_reference(name):
    # every sink and source of every indecomposable, of one direct sum and of
    # the largest indecomposable in a scrambled basis, whose dense integer
    # blocks go through both transposes of the sink functor, on every
    # orientation
    rng = random.Random(f"reference:{name}")
    for Q in all_orientations(family_quiver(name)):
        reps = enumerate_indecomposables(Q)
        largest = scrambled(max(reps, key=UnfoldedRep.total_dim), rng)
        for V in reps + [direct_sum(reps[0], reps[-1]), largest]:
            assert_functors_match_reference(Q, V)


@pytest.mark.parametrize("name", ["A3", "D4", "B3", "H3"])
def test_reflection_functors_match_reference_over_mixed_denominators(name):
    # every map scaled by its own rational: the blocks at a vertex have
    # different denominators, which the step brings to their lcm
    rng = random.Random(f"dens:{name}")
    mixed = 0
    for Q in all_orientations(family_quiver(name)):
        reps = enumerate_indecomposables(Q)
        for V in (max(reps, key=UnfoldedRep.total_dim), direct_sum(reps[0], reps[-1])):
            maps = {a: m.scale(Fraction(rng.choice([1, -2, 3]), rng.choice([1, 2, 3, 5]))) for a, m in V.maps.items()}
            W = UnfoldedRep(V.quiver, V.dims, maps)
            mixed += len({m.den for m in W.maps.values() if not m.is_zero()}) > 1
            assert_functors_match_reference(Q, W)
    assert mixed


def support_state(V):
    """V as the state of `_reflection_step`: its non-zero dimensions, and the
    maps between them as (integer rows, denominator)."""
    dims = {u: d for u, d in V.dims.items() if d}
    maps = {}
    for a in V.quiver.arrows:
        if a.source in dims and a.target in dims:
            maps[a.id] = (V.maps[a.id].num, V.maps[a.id].den)
    return dims, maps


def materialized(uq, dims, maps):
    """The state (dims, maps) over uq as an `UnfoldedRep`, checked against
    the validating constructor on `Fraction` entries."""
    ends = {a.id: (a.source, a.target) for a in uq.arrows}
    assert all(dims.values())
    exact = {}
    for a, (rows, den) in maps.items():
        s, t = ends[a]
        assert s in dims and t in dims
        exact[a] = Mat(dims[t], dims[s], [[Fraction(x, den) for x in r] for r in rows])
    V = _materialize(uq, dims, maps, {})
    assert UnfoldedRep(uq, dims, exact) == V
    return V


@pytest.mark.parametrize("name", ["A3", "D4", "B3", "H3", "I2(5)", "G2"])
def test_reflection_step_forms_agree(name):
    # a run of source steps, as in the knitting, carries the support state of
    # each representation through empty vertices; after every step it is a
    # valid support state and equals the reference cokernel functor.  One
    # memo serves every run, since a step depends only on its local input
    empty = 0
    solved = {}
    for Q in all_orientations(family_quiver(name)):
        reps = enumerate_indecomposables(Q)
        for V in reps + [direct_sum(reps[0], reps[-1])]:
            cur, full = Q, V
            dims, maps = support_state(V)
            for _ in range(2 * len(Q.vertices)):
                i = sorted(cur.sources())[0]
                uq2 = unfold(reverse_at(cur, i))
                empty += len(dims) < len(uq2.vertices)
                _reflection_step(_plan(full.quiver, i, at_sink=False), dims, maps, solved)
                full = reference_reflect_minus(cur, i, full)
                assert materialized(uq2, dims, maps) == full
                cur = uq2.source
    assert empty


def plan_off_the_orientation(uq, i, at_sink):
    # the plan of a reflection at i read off the unfolding of the orientation
    # in which i is a sink (at_sink) or a source: the arrows into or out of
    # each u over i, as the unfolding stores them
    return tuple(
        (
            u,
            tuple(
                (a.source if at_sink else a.target, a.id, unfolded_arrow_id(a.provenance, a.target, a.source))
                for a in (uq.in_arrows(u) if at_sink else uq.out_arrows(u))
            ),
        )
        for u in uq.vertices_over(i)
    )


def pointed(Q, i, out):
    # Q with every arrow at i pointing out of i (out) or into i
    return CoxeterQuiver(
        Q.vertices,
        [Arrow(a.id, a.target, a.source, a.label) if i == (a.target if out else a.source) else a for a in Q.arrows],
    )


@pytest.mark.parametrize("name", ["A3", "B3", "D4", "F4", "H3", "I2(5)"])
def test_plan_does_not_depend_on_the_orientation(name):
    # the knitting plans the step at every vertex i off one unfolding, where
    # i may be neither a sink nor a source: the plan equals the one read off
    # the orientation where i is a source (a sink), such as reverse_at(Q, i)
    # at a sink (source) i of Q
    mixed = 0
    for Q in all_orientations(family_quiver(name)):
        uq = unfold(Q)
        for i in Q.vertices:
            mixed += not (Q.is_sink(i) or Q.is_source(i))
            for at_sink in (False, True):
                expected = plan_off_the_orientation(unfold(pointed(Q, i, not at_sink)), i, at_sink)
                assert _plan(uq, i, at_sink) == expected
                if Q.is_source(i) if at_sink else Q.is_sink(i):
                    assert expected == plan_off_the_orientation(unfold(reverse_at(Q, i)), i, at_sink)
    assert mixed or len(Q.vertices) == 2


@pytest.mark.parametrize("name", ["D4", "H3", "E8", "H4"])
def test_knit_steps_on_the_support(name, monkeypatch):
    # no kernel of an empty vertex with empty neighbours, and no system
    # solved twice in one knitting; one `Mat` per distinct map of the members
    # yielded, shared by them, so none between the members; and an
    # `UnfoldedRep` built, unchecked, only for each member yielded.  The maps
    # are read off the blocks: the full view `maps` builds fresh zero
    # matrices on each read
    Q = family_quiver(name)
    calls, inits, mats = [], [], []
    kernel_vectors = reps_mod._kernel_vectors
    init = UnfoldedRep.__init__
    mat_init = Mat._init

    def recorded(rows, ncols):
        calls.append((tuple(map(tuple, rows)), ncols))
        return kernel_vectors(rows, ncols)

    def counted(self, *args, **kwargs):
        inits.append(args)
        init(self, *args, **kwargs)

    def built(self, *args):
        mats.append(self)
        mat_init(self, *args)

    uq = unfold(Q)
    n_roots = len(extended_positive_roots(Q))
    monkeypatch.setattr(reps_mod, "_kernel_vectors", recorded)
    monkeypatch.setattr(UnfoldedRep, "__init__", counted)
    monkeypatch.setattr(Mat, "_init", built)
    members = list(_knit(_Walk(uq), n_roots))
    assert calls and ((), 0) not in calls
    assert len(set(calls)) == len(calls)
    assert len(members) == n_roots
    assert inits == []
    maps = [m for W in members for m in W.blocks.values()]
    assert len(mats) == len(set(maps))
    assert {id(m) for m in maps} <= {id(M) for M in mats}


def test_knitting_and_functors_build_no_zero_matrix(monkeypatch):
    # a representation is held on its support: the knitting and the public
    # functors fill in no zero map, while the full view `maps` still lists
    # one matrix per unfolded arrow
    zeros = []
    build_zeros = Mat.zeros.__func__

    def counted(cls, rows, cols):
        zeros.append((rows, cols))
        return build_zeros(cls, rows, cols)

    members = {}
    for name in ["E8", "H4", "F4", "B4", "I2(12)"]:
        Q = family_quiver(name)
        walk = _Walk(unfold(Q))
        monkeypatch.setattr(Mat, "zeros", classmethod(counted))
        members[name] = list(_knit(walk, len(extended_positive_roots(Q))))
        monkeypatch.undo()
        assert zeros == []
        assert all(all(W.support.values()) for W in members[name])
    for name in ["D4", "H3"]:
        for Q in all_orientations(family_quiver(name)):
            reps = enumerate_indecomposables(Q)
            monkeypatch.setattr(Mat, "zeros", classmethod(counted))
            for V in reps:
                for i in Q.sinks():
                    reflect_plus(Q, i, V)
                for i in Q.sources():
                    reflect_minus(Q, i, V)
            monkeypatch.undo()
            assert zeros == []
    W = members["E8"][-1]
    assert list(W.dims) == list(W.quiver.vertices) and list(W.maps) == [a.id for a in W.quiver.arrows]
    assert len(W.support) < len(W.dims) and len(W.blocks) < len(W.maps)
    assert [list(f) for f in endomorphism_basis(W)] == [list(W.quiver.vertices)]


@pytest.mark.parametrize("name", ["B3", "H3"])
def test_one_reflection_compile_per_call(name, monkeypatch):
    # the root orbit, the twist, the extension and the knitting of one call
    # read one walk, which compiles the integer reflections at most once: in
    # the enumeration, in indecomposable_for, in coxeter_order and in the
    # public root functions
    from coxrep import coxeter_order, rootsys

    Q = family_quiver(name)
    walks, compiled = [], []
    init = rootsys._Walk.__init__
    compile_reflections = rootsys._int_reflections

    def counted(self, uq):
        walks.append(uq)
        init(self, uq)

    def compile_counted(walk):
        compiled.append(walk)
        return compile_reflections(walk)

    monkeypatch.setattr(rootsys._Walk, "__init__", counted)
    monkeypatch.setattr(rootsys, "_int_reflections", compile_counted)

    def one_each():
        assert len(walks) == len(compiled) == 1
        walks.clear()
        compiled.clear()

    found = enumerate_indecomposables(Q)
    one_each()
    W = indecomposable_for(Q, dim_vector(found[-1]))
    one_each()
    assert dim_vector(W) == dim_vector(found[-1])
    assert coxeter_order(Q, Q.vertices) > 1
    one_each()
    # the reflections are compiled on first use: the extension reads none
    base = rootsys.positive_roots(Q)
    one_each()
    assert len(rootsys.extend_by_simples(Q, base)) >= len(base)
    assert len(walks) == 1 and compiled == []


def test_reflect_plus_at_zero_sink():
    # V_1 = 0: the kernel at the sink is all of V_2 and the new map is 1
    S = simple_rep(A2, "2", unit_simple(A2))
    R = reflect_plus(A2, "1", S)
    assert support(R) == {"3:0@1": 1, "3:0@2": 1}
    assert [m.to_json() for m in R.maps.values()] == [[["1"]]]
    assert_functors_match_reference(A2, S)


def test_reflect_minus_next_to_zero_space():
    # source 2 with V_2 = 0 and V_3 = 0: the arrow 2 -> 3 has a block with no
    # rows, and its reversed map 3 -> 2 is 1 x 0
    Q = parse_quiver("vertex 1\nvertex 2\nvertex 3\narrow 2 1\narrow 2 3\n")
    S = simple_rep(Q, "1", unit_simple(Q))
    R = reflect_minus(Q, "2", S)
    assert support(R) == {"3:0@1": 1, "3:0@2": 1}
    shapes = sorted((k.split(":")[0], m.rows, m.cols, m.to_json()) for k, m in R.maps.items())
    assert shapes == [("a0", 1, 1, [["1"]]), ("a1", 1, 0, [[]])]
    assert_functors_match_reference(Q, S)


def test_apply_reflection_word_round_trip():
    v = RootVector.basis(A2, "1") + RootVector.basis(A2, "2")
    V = indecomposable_for(A2, v)
    W = apply_reflection_word(A2, V, [("1", "+"), ("1", "-")])
    assert dim_vector(W) == dim_vector(V)
    with pytest.raises(NotASink):
        apply_reflection_word(A2, V, [("2", "+")])


def test_end_dim_golden():
    v = RootVector.basis(A2, "1") + RootVector.basis(A2, "2")
    P = indecomposable_for(A2, v)
    assert end_dim(P) == 1
    assert end_dim(direct_sum(P, P)) == 4
    assert end_dim(zero_rep(A2)) == 0


def test_endomorphism_basis_size_matches():
    S = simple_rep(A2, "1", unit_simple(A2))
    assert len(endomorphism_basis(direct_sum(S, S))) == 4


def test_hom_dim_between_different_simples():
    S1 = simple_rep(A2, "1", unit_simple(A2))
    S2 = simple_rep(A2, "2", unit_simple(A2))
    assert hom_dim(S1, S2) == 0
    assert hom_dim(S1, S1) == 1


def test_end_dim_additivity_with_homs():
    rng = random.Random(17)
    for name in ["A3", "I2(4)", "I2(5)"]:
        Q = family_quiver(name)
        reps = enumerate_indecomposables(Q)
        for _ in range(6):
            V = rng.choice(reps)
            W = rng.choice(reps)
            lhs = end_dim(direct_sum(V, W))
            rhs = end_dim(V) + end_dim(W) + hom_dim(V, W) + hom_dim(W, V)
            assert lhs == rhs


def test_hom_and_end_have_integer_certificates():
    # Gabriel's theorem on the unfolding: for indecomposables X, Y of a
    # Dynkin quiver, hom_dim(X, Y) = max(0, <x, y>) under the Euler form
    # <x, y> = sum_u x_u y_u - sum_{a: s -> t} x_s y_t, and each dimension
    # vector x is a real root, q(x) = <x, x> = 1.  Neither shares code with
    # the Hom system.  The Euler form misses a sign flip in the system, which
    # a +-1 rescaling per vertex of a tree absorbs; every element of
    # End(X + X) must then still be a morphism, f_t M_a = M_a f_s.  All
    # pairs of the small families, 3000 seeded pairs of F4, H4 and E8
    rng = random.Random("hom certificates")
    pairs = 0
    for name in ["A3", "D4", "B3", "H3", "I2(7)", "G2", "E6", "F4", "H4", "E8"]:
        members = enumerate_indecomposables(family_quiver(name))
        uq = members[0].quiver
        ends = [(a.source, a.target) for a in uq.arrows]
        dims = [X.dims for X in members]

        def euler(x, y):
            return sum(x[u] * y[u] for u in uq.vertices) - sum(x[s] * y[t] for s, t in ends)

        assert all(euler(x, x) == 1 for x in dims)
        if name in ("F4", "H4", "E8"):
            chosen = [(rng.randrange(len(members)), rng.randrange(len(members))) for _ in range(3000)]
        else:
            chosen = [(i, j) for i in range(len(members)) for j in range(len(members))]
        # End(X + X) = M_2(Q) is solved on twice the dimension: a sample of
        # the two largest families keeps the test within its time
        for X in rng.sample(members, 24) if name in ("H4", "E8") else members:
            S = direct_sum(X, X)
            maps = S.maps
            for f in endomorphism_basis(S):
                assert all(f[a.target] * maps[a.id] == maps[a.id] * f[a.source] for a in uq.arrows)
        for i, j in chosen:
            assert hom_dim(members[i], members[j]) == max(0, euler(dims[i], dims[j]))
        pairs += len(chosen)
    assert pairs == 13446


def test_indecomposable_for_simple_case():
    tau = SimpleObject([(5, 2)])
    v = RootVector.basis(I25, "2").scale(tau_elem())
    V = indecomposable_for(I25, v)
    assert support(V) == {"5:2@2": 1}


def test_indecomposable_for_a2_projective():
    v = RootVector.basis(A2, "1") + RootVector.basis(A2, "2")
    V = indecomposable_for(A2, v)
    assert support(V) == {"3:0@1": 1, "3:0@2": 1}
    nonzero = [m for m in V.maps.values() if m.rows and m.cols]
    assert len(nonzero) == 1 and nonzero[0].data[0][0] != 0


def test_indecomposable_for_i25_golden():
    t = tau_elem()
    e1, e2 = RootVector.basis(I25, "1"), RootVector.basis(I25, "2")
    # tau at both vertices: the middle A4 root, total unfolded dimension 2
    V = indecomposable_for(I25, e1.scale(t) + e2.scale(t))
    assert V.total_dim() == 2
    assert dim_vector(V) == e1.scale(t) + e2.scale(t)
    # tau times the root e1 + tau e2 has total unfolded dimension 3
    one = FusionElem.unit((5,))
    W = indecomposable_for(I25, e1.scale(t) + e2.scale(t * t))
    assert W.total_dim() == 3
    assert end_dim(W) == 1


def test_indecomposable_for_rejects_non_roots():
    e1, e2 = RootVector.basis(I25, "1"), RootVector.basis(I25, "2")
    with pytest.raises(NotAnExtendedRoot):
        indecomposable_for(I25, e1 + e2)  # not a root over the golden ring


def test_indecomposable_requires_finite_type():
    from coxrep import Arrow, CoxeterQuiver

    bad = CoxeterQuiver(["1", "2"], [Arrow("a", "1", "2"), Arrow("b", "1", "2")])
    with pytest.raises(NotFiniteType):
        enumerate_indecomposables(bad)
    with pytest.raises(NotFiniteType):
        indecomposable_for(bad, RootVector.basis(bad, "1"))


def test_enumerate_single_vertex():
    Q = parse_quiver("vertex 1\n")
    reps = enumerate_indecomposables(Q)
    assert len(reps) == 1
    assert reps[0].total_dim() == 1


def test_enumerate_a2():
    reps = enumerate_indecomposables(A2)
    assert len(reps) == 3
    dvs = {dim_vector(W).serialize() for W in reps}
    assert len(dvs) == 3
    # the chain from the simple at 2 takes 3 steps, over the bound 2 * 1
    with pytest.raises(CapExceeded):
        list(_knit(_Walk(unfold(A2)), 1))


def reference_knit(Q, n_roots, steps=None):
    """The knitting on full representations through `reference_reflect_minus`:
    every chain runs on until its representation vanishes.  Each step appends
    to `steps` whether it vanished."""
    ordering = admissible_sink_ordering(Q)
    n = len(ordering)
    quivers = [Q]
    for j in ordering[:-1]:
        quivers.append(reverse_at(quivers[-1], j))
    max_steps = n * n_roots
    for k, vk in enumerate(ordering):
        uq = unfold(quivers[k])
        for A in uq.irr:
            W = UnfoldedRep(uq, {vertex_name(A, vk): 1})
            p = k
            for _ in range(max_steps):
                if p == 0:
                    yield W
                p = (p - 1) % n
                # v_p is a source of Q_{p+1}, and Q_n = Q_0
                W = reference_reflect_minus(quivers[(p + 1) % n], ordering[p], W)
                if steps is not None:
                    steps.append(W.is_zero())
                if W.is_zero():
                    break
            else:
                raise CapExceeded(f"knitting chain exceeded {max_steps} steps")


@pytest.mark.parametrize("name", ["A3", "D4", "B3", "H3", "I2(5)", "G2"])
def test_knit_matches_reference_step_for_step(name, monkeypatch):
    steps = []

    def counted(plan, dims, maps, *rest):
        _reflection_step(plan, dims, maps, *rest)
        steps.append(not dims)

    monkeypatch.setattr(reps_mod, "_reflection_step", counted)
    for Q in all_orientations(family_quiver(name)):
        n_roots = len(extended_positive_roots(Q))
        reference_steps = []
        expect = list(reference_knit(Q, n_roots, reference_steps))
        assert list(_knit(_Walk(unfold(Q)), n_roots)) == expect
        # every chain of the reference ends in exactly one step that
        # vanishes, and the knitting takes the same steps in the same order
        assert reference_steps.count(True) == len(Q.vertices) * len(unfold(Q).irr)
        assert steps == reference_steps
        del steps[:]


def test_knit_cap_matches_reference():
    # the chain from the simple at 2 takes 3 steps to vanish: over the bound
    # 2 * 1, within 2 * 2
    with pytest.raises(CapExceeded) as expected:
        list(reference_knit(A2, 1))
    with pytest.raises(CapExceeded) as got:
        list(_knit(_Walk(unfold(A2)), 1))
    assert str(got.value) == str(expected.value)
    assert list(_knit(_Walk(unfold(A2)), 2)) == list(reference_knit(A2, 2))


def test_enumerate_i25():
    reps = enumerate_indecomposables(I25)
    assert len(reps) == 10
    assert all(end_dim(W) == 1 for W in reps)


def test_enumerate_h3():
    Q = family_quiver("H3")
    reps = enumerate_indecomposables(Q)
    assert len(reps) == 30
    ext = extended_positive_roots(Q).roots
    assert {dim_vector(W) for W in reps} == set(ext)


def test_enumerate_matches_ext_roots_all_orientations_small():
    for base in ["A3", "I2(4)", "B3", "H3", "I2(5)"]:
        Q0 = family_quiver(base)
        ext = extended_positive_roots(Q0).roots
        for Q in all_orientations(Q0):
            reps = enumerate_indecomposables(Q)
            assert len(reps) == len(ext)
            assert {dim_vector(W) for W in reps} == set(ext)


def test_dim_reflection_identity_over_orientations():
    # reflection functors match simple reflections on dimension vectors for
    # non-simple indecomposables
    for base in ["A3", "I2(5)", "B3"]:
        for Q in all_orientations(family_quiver(base)):
            reps = enumerate_indecomposables(Q)
            for V in reps:
                dv = dim_vector(V)
                for i in Q.sinks():
                    if V.total_dim() == 1 and support(V).popitem()[0].endswith(f"@{i}"):
                        continue  # simple at the reflected vertex drops to zero
                    R = reflect_plus(Q, i, V)
                    assert dim_vector(R) == reflect(Q, i, dv)
                for i in Q.sources():
                    if V.total_dim() == 1 and support(V).popitem()[0].endswith(f"@{i}"):
                        continue
                    R = reflect_minus(Q, i, V)
                    assert dim_vector(R) == reflect(Q, i, dv)


def test_decompose_indecomposable_is_itself():
    v = RootVector.basis(A2, "1") + RootVector.basis(A2, "2")
    V = indecomposable_for(A2, v)
    parts = decompose(V)
    assert len(parts) == 1
    assert dim_vector(parts[0]) == dim_vector(V)


def test_decompose_two_simples():
    S1 = simple_rep(A2, "1", unit_simple(A2))
    S2 = simple_rep(A2, "2", unit_simple(A2))
    parts = decompose(direct_sum(S1, S2))
    assert sorted(str(sorted(support(W).items())) for W in parts) == sorted(
        str(sorted(support(W).items())) for W in (S1, S2)
    )


def test_decompose_zero_map_rep_splits():
    # dims (1,1) with the zero map is the direct sum of the two simples
    uq = unfold(A2)
    V = UnfoldedRep(uq, {"3:0@1": 1, "3:0@2": 1})
    parts = decompose(V)
    assert len(parts) == 2
    assert all(W.total_dim() == 1 for W in parts)


def test_decompose_isotypic_pair():
    S = simple_rep(A2, "1", unit_simple(A2))
    parts = decompose(direct_sum(S, S))
    assert len(parts) == 2
    assert all(support(W) == {"3:0@1": 1} for W in parts)


def test_decompose_triple_mixed():
    v = RootVector.basis(A2, "1") + RootVector.basis(A2, "2")
    P = indecomposable_for(A2, v)
    S = simple_rep(A2, "2", unit_simple(A2))
    V = direct_sum(direct_sum(P, S), P)
    parts = decompose(V)
    assert sorted(W.total_dim() for W in parts) == [1, 2, 2]
    assert all(end_dim(W) == 1 for W in parts)


def test_decompose_sum_of_all_a3_indecomposables():
    Q = family_quiver("A3")
    reps = enumerate_indecomposables(Q)
    total = reps[0]
    for W in reps[1:]:
        total = direct_sum(total, W)
    parts = decompose(total)
    assert sorted(dim_vector(W).serialize() for W in parts) == sorted(
        dim_vector(W).serialize() for W in reps
    )
    assert all(end_dim(W) == 1 for W in parts)


def scalar_endomorphism(V, vertex, rows):
    """The endomorphism of V that is the given matrix at one vertex, 0 elsewhere."""
    return {
        u: Mat.from_rows(rows) if u == vertex else Mat.zeros(d, d) for u, d in V.dims.items()
    }


def test_try_split_needs_a_rational_eigenvalue():
    S = simple_rep(A2, "1", unit_simple(A2))
    rotation = scalar_endomorphism(direct_sum(S, S), "3:0@1", [[0, -1], [1, 0]])
    assert _try_split(direct_sum(S, S), rotation) is None


def test_try_split_generalized_eigenspaces():
    S = simple_rep(A2, "1", unit_simple(A2))
    SSS = direct_sum(direct_sum(S, S), S)
    # eigenvalues 1/2 and -2/3 (D = 6): one part per eigenvalue, in increasing order
    f = scalar_endomorphism(SSS, "3:0@1", [[Fraction(1, 2), 1, 0], [0, Fraction(1, 2), 0], [0, 0, Fraction(-2, 3)]])
    assert [W.dims["3:0@1"] for W in _try_split(SSS, f)] == [1, 2]
    # eigenvalues 0 and +-i: the rational eigenspace, then the rest
    f = scalar_endomorphism(SSS, "3:0@1", [[0, -1, 0], [1, 0, 0], [0, 0, 0]])
    assert [W.dims["3:0@1"] for W in _try_split(SSS, f)] == [1, 2]
    # a single rational eigenvalue does not split
    f = scalar_endomorphism(SSS, "3:0@1", [[-3, 1, 0], [0, -3, 0], [0, 0, -3]])
    assert _try_split(SSS, f) is None


def is_triangular(g):
    d = len(g)
    return all(not g[i][j] for i in range(d) for j in range(i)) or all(
        not g[i][j] for i in range(d) for j in range(i + 1, d)
    )


def test_eigenvalues_read_off_triangular_blocks(monkeypatch):
    rng = random.Random("triangular")
    cases = []
    for d in (1, 2, 3, 5, 7):
        for _ in range(6):
            # repeated, zero and negative diagonal entries
            diagonal = [rng.choice([-3, -1, 0, 0, 2, 2, 5]) for _ in range(d)]
            g = [[diagonal[i] if i == j else (rng.randint(-4, 4) if j > i else 0) for j in range(d)] for i in range(d)]
            cases += [g, [list(r) for r in zip(*g)]]  # upper, and its transpose
    expected = [integer_roots(charpoly(g)) for g in cases]
    monkeypatch.setattr(reps_mod, "charpoly", None)  # a triangular block computes no polynomial
    assert [_eigenvalues(g) for g in cases] == expected
    monkeypatch.undo()
    # every other block takes the characteristic polynomial
    for g in ([[1, 2], [3, 4]], [[0, 1, 0], [0, 0, 1], [1, 0, 0]], [[2, 0, 1], [0, 2, 0], [1, 0, 2]]):
        assert not is_triangular(g)
        assert _eigenvalues(g) == integer_roots(charpoly(g))


def restrict_by_solving(V, bases):
    """`_restrict` as it was: each map solved from B_t X = M_a B_s, and the
    part built by the public constructor.  The bases are given on V's
    support; off it V_u = 0, whose only subspace has the empty basis."""
    full = {u: bases.get(u) or (Mat.zeros(0, 0), []) for u in V.quiver.vertices}
    dims = {u: B.cols for u, (B, _) in full.items()}
    M = V.maps
    maps = {a.id: solve_all(full[a.target][0], M[a.id] * full[a.source][0]).particular for a in V.quiver.arrows}
    return UnfoldedRep(V.quiver, dims, maps)


@pytest.mark.parametrize("name", ["A3", "D4", "B3", "I2(5)", "H3"])
def test_restrict_reads_parts_off_reduced_kernel_bases(name, monkeypatch):
    # the invariant parts of every split of a scrambled sum
    calls = []
    restrict = reps_mod._restrict

    def recorded(V, bases):
        part = restrict(V, bases)
        calls.append((V, bases, part))
        return part

    monkeypatch.setattr(reps_mod, "_restrict", recorded)
    decompose(scrambled_pair(name)[0])
    assert len(calls) >= 2
    for V, bases, part in calls:
        expected = restrict_by_solving(V, bases)
        assert part == expected
        assert list(part.dims) == list(expected.dims) and list(part.maps) == list(expected.maps)
        assert list(part.support) == list(expected.support) and list(part.blocks) == list(expected.blocks)
        assert json.dumps(part.to_json()) == json.dumps(expected.to_json())
        assert [(m.num, m.den) for m in part.maps.values()] == [(m.num, m.den) for m in expected.maps.values()]


def test_restrict_refuses_a_subspace_that_is_not_invariant():
    # A2 with the identity map on Q^2; the span of e_0 at the source is not
    # mapped into the span of e_1 at the target, nor into 0
    uq = unfold(A2)
    (arrow,) = uq.arrows
    V = UnfoldedRep(uq, {"3:0@1": 2, "3:0@2": 2}, {arrow.id: Mat.identity(2)})
    e0, e1 = _reduced_kernel([[0, 1]], 2), _reduced_kernel([[1, 0]], 2)
    assert e0[1] == [0] and e1[1] == [1]
    for target in (e1, (Mat.zeros(2, 0), ())):
        bases = {arrow.source: e0, arrow.target: target}
        with pytest.raises(NoSolution):
            restrict_by_solving(V, bases)
        with pytest.raises(NoSolution):
            _restrict(V, bases)
    # the span of e_0 at both ends is invariant
    bases = {arrow.source: e0, arrow.target: e0}
    assert _restrict(V, bases) == restrict_by_solving(V, bases)


def test_decompose_solves_no_system_and_no_triangular_polynomial(monkeypatch):
    reps = enumerate_indecomposables(family_quiver("D4"))
    total = reps[0]
    for W in reps[1:]:
        total = direct_sum(total, W)
    V = scrambled(total, random.Random("counting:D4"))
    solved, blocks, polynomials = [], [], []
    eigenvalues, poly = reps_mod._eigenvalues, reps_mod.charpoly

    def counted_solve(A, B):
        solved.append(A)
        return solve_all(A, B)

    def counted_eigenvalues(g):
        blocks.append(g)
        return eigenvalues(g)

    def counted_charpoly(g):
        polynomials.append(g)
        return poly(g)

    monkeypatch.setattr(linalg_mod, "solve_all", counted_solve)
    monkeypatch.setattr(reps_mod, "_eigenvalues", counted_eigenvalues)
    monkeypatch.setattr(reps_mod, "charpoly", counted_charpoly)
    assert_splits_into(V, reps)
    assert solved == []
    assert not any(map(is_triangular, polynomials))
    assert 0 < len(polynomials) < len(blocks)
    assert len(blocks) - len(polynomials) == sum(map(is_triangular, blocks))


def scrambled(V, rng):
    """V after a random unimodular change of basis P_u at every unfolded
    vertex u: each arrow map M becomes P_t M P_s^-1."""
    change = {}
    for u, d in V.dims.items():
        P = [[int(i == j) for j in range(d)] for i in range(d)]
        P_inv = [list(r) for r in P]
        for _ in range(3 * d if d > 1 else 0):
            i, j = rng.sample(range(d), 2)
            c = rng.choice([-2, -1, 1, 2])
            P[i] = [x + c * y for x, y in zip(P[i], P[j])]  # P <- E P
            for r in P_inv:  # P_inv <- P_inv E^-1
                r[j] -= c * r[i]
        change[u] = (Mat.from_rows(P), Mat.from_rows(P_inv))
        assert change[u][0] * change[u][1] == Mat.identity(d)
    maps = {
        a.id: change[a.target][0] * V.maps[a.id] * change[a.source][1] for a in V.quiver.arrows
    }
    return UnfoldedRep(V.quiver, V.dims, maps)


def assert_splits_into(V, summands):
    parts = decompose(V)
    assert sorted(dim_vector(W).serialize() for W in parts) == sorted(
        dim_vector(W).serialize() for W in summands
    )
    assert all(end_dim(W) == 1 for W in parts)
    return parts


def leaves_sha256(leaves) -> str:
    return hashlib.sha256(json.dumps([W.to_json() for W in leaves], sort_keys=True).encode()).hexdigest()


# sha256 of the `to_json()` of every leaf, in order, over all inputs of a
# scrambled-basis test; recorded before `Mat` held integer numerators over a
# shared denominator, so the split matrices themselves are pinned, not only
# their dimensions
LEAVES_SHA256 = {
    ("powers", "A3"): "65840e720310fa35b7873c8795284dbe8ea0bc22fbdef224e6cdf613778e9765",
    ("powers", "D4"): "1a3c12908a5a15185cfd02c778ab4a1bfc5ddb4c02ff1aaffd4d8226b511bf61",
    ("powers", "B3"): "f309ff1865f3cd152c58f9dedde5988c1ca9ed4825cf73ff82b65c489a9c789f",
    ("powers", "I2(5)"): "f00a4eaf8ca262dd3a11407a2e5195e371d006fb275d9f2dad5e34018d823cdc",
    ("sum", "A3"): "5f18a6bd13bc025a52a07ac8a4c8dd37a3f44e63d3eddcef894f2d38366dbb40",
    ("sum", "D4"): "e47c29c8c9c38dee701af898eb1519d697c81dc24f1ab7bd5c92f289a88ada8c",
    ("sum", "B3"): "c0d838da50d43825b758b30c20995bfaa74db1544f33f2b2c9b6ea206a587b7f",
    ("sum", "I2(5)"): "0db0b1dd361fa1b3ca22addb1c0305e71dc9bf5f4fc80b029f5444de1dcf3b56",
}


@pytest.mark.parametrize("name", ["A3", "D4", "B3", "I2(5)"])
def test_decompose_scrambled_powers(name):
    rng = random.Random(f"powers:{name}")
    reps = enumerate_indecomposables(family_quiver(name))
    largest = max(reps, key=lambda W: W.total_dim())
    leaves = []
    for V in [largest, rng.choice(reps)]:
        for k in (1, 2, 3):
            total = V
            for _ in range(k - 1):
                total = direct_sum(total, V)
            leaves += assert_splits_into(scrambled(total, rng), [V] * k)
    assert leaves_sha256(leaves) == LEAVES_SHA256["powers", name]


@pytest.mark.parametrize("name", ["A3", "D4", "B3", "I2(5)"])
def test_decompose_scrambled_sum_of_all(name):
    reps = enumerate_indecomposables(family_quiver(name))
    total = reps[0]
    for W in reps[1:]:
        total = direct_sum(total, W)
    leaves = assert_splits_into(scrambled(total, random.Random(f"sum:{name}")), reps)
    assert leaves_sha256(leaves) == LEAVES_SHA256["sum", name]


def scrambled_pair(name):
    """A scrambled sum of the largest indecomposable of a family and another."""
    rng = random.Random(f"lazy:{name}")
    reps = enumerate_indecomposables(family_quiver(name))
    V = direct_sum(max(reps, key=lambda W: W.total_dim()), rng.choice(reps))
    return scrambled(V, rng), rng


@pytest.mark.parametrize("name", ["A3", "D4", "B3", "I2(5)", "H3"])
def test_lazy_end_basis_equals_endomorphism_basis(name):
    V, rng = scrambled_pair(name)
    expected = endomorphism_basis(V)
    basis = reps_mod._EndBasis(V)
    assert len(basis) == len(expected) == end_dim(V) > 1
    # drawn one at a time in a shuffled order, each element is the same
    # (num, den) at every vertex as in the basis computed all at once
    order = list(range(len(basis)))
    rng.shuffle(order)
    drawn = {t: basis[t] for t in order}
    for t, elem in enumerate(expected):
        assert list(drawn[t]) == list(elem) == list(V.quiver.vertices)
        assert [(m.num, m.den) for m in drawn[t].values()] == [(m.num, m.den) for m in elem.values()]
        assert basis[t] is drawn[t]
    assert list(basis) == expected


def test_end_basis_eliminates_only_up_to_the_columns_it_reads(monkeypatch):
    # a scrambled W^3 + W' + S^3 over D4, W and W' the two largest
    # indecomposables and S a simple: the shape of the largest decompose job
    reps = sorted(enumerate_indecomposables(family_quiver("D4")), key=lambda W: W.total_dim())
    W, W2, S = reps[-1], reps[-2], reps[0]
    total = W
    for X in [W, W, W2, S, S, S]:
        total = direct_sum(total, X)
    V = scrambled(total, random.Random("partial:D4"))
    eliminated = []
    eliminate = linalg_mod._eliminate

    def counted(row, prow, pc, nonzero):
        eliminated.append(pc)
        return eliminate(row, prow, pc, nonzero)

    monkeypatch.setattr(linalg_mod, "_eliminate", counted)
    basis = reps_mod._EndBasis(V)
    first = basis[0]
    # whether V is a leaf asks for a second free column, not the nullity
    assert basis.reaches(1)
    partial = len(eliminated)
    len(basis)  # runs the elimination to the end
    # (14 of 819 row eliminations; the first two free columns are 4 and 5
    # of 130)
    assert 0 < partial < len(eliminated) / 2
    monkeypatch.undo()
    assert len(basis) == end_dim(V)
    expected = endomorphism_basis(V)[0]
    assert list(first) == list(expected) == list(V.quiver.vertices)
    assert [(m.num, m.den) for m in first.values()] == [(m.num, m.den) for m in expected.values()]


def test_int_poly_at_is_the_sum_of_powers():
    rng = random.Random("poly")
    for d in (1, 2, 4):
        g = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
        G = Mat.from_rows(g)
        for coeffs in ([1, 0], [1, -2], [2, 0, -1, 5], [1, 0, 0, 0, 0], [-3, 1, 4, 1, 5, 9]):
            acc, power = Mat.zeros(d, d), Mat.identity(d)
            for c in reversed(coeffs):
                acc, power = acc + power.scale(c), power * G
            assert _int_poly_at(coeffs, g) == [list(r) for r in acc.num]


def test_decompose_back_substitutes_only_the_elements_it_tries(monkeypatch):
    drawn = []
    back_substitute = reps_mod._back_substitute

    def counted(rows, pivots, supports, ncols, cols):
        cols = list(cols)
        drawn.extend(cols)
        return back_substitute(rows, pivots, supports, ncols, cols)

    S1 = simple_rep(A2, "1", unit_simple(A2))
    S2 = simple_rep(A2, "2", unit_simple(A2))
    V = direct_sum(S1, S2)
    assert _try_split(V, endomorphism_basis(V)[0]) is not None
    leaf = decompose(scrambled_pair("D4")[0])[0]
    monkeypatch.setattr(reps_mod, "_back_substitute", counted)
    # a leaf reads its End dimension off the echelon form
    assert decompose(leaf) == [leaf] and drawn == []
    # so does hom_dim
    assert hom_dim(V, V) == 2 and hom_dim(leaf, leaf) == 1 and drawn == []
    # V splits at the first candidate, basis element 0, into two leaves
    assert [support(W) for W in decompose(V)] == [support(S1), support(S2)]
    assert len(drawn) == 1


def test_decompose_zero_rep():
    assert decompose(zero_rep(A2)) == []


@pytest.mark.xfail(
    strict=True,
    raises=SplittingFailed,
    reason="known fault: no sampled endomorphism splits this W^2 (ROADMAP item 2)",
)
def test_decompose_e8_highest_root_squared():
    reps = enumerate_indecomposables(family_quiver("E8"))
    W = max(reps, key=lambda V: min(V.dims.values()))
    assert W.total_dim() == 29
    assert_splits_into(scrambled(direct_sum(W, W), random.Random("E8:2:2")), [W, W])


def test_decompose_does_not_import_sympy():
    code = (
        "import sys\n"
        "from coxrep import decompose, direct_sum, parse_quiver, simple_rep, SimpleObject\n"
        "Q = parse_quiver('vertex 1\\nvertex 2\\narrow 2 1\\n')\n"
        "A = SimpleObject.unit(Q.label_set)\n"
        "parts = decompose(direct_sum(simple_rep(Q, '1', A), simple_rep(Q, '2', A)))\n"
        "assert len(parts) == 2, parts\n"
        "assert 'sympy' not in sys.modules\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-c", code], env={"PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr


def test_indecomposable_for_agrees_with_enumeration():
    for name in ["I2(5)", "B3"]:
        Q = family_quiver(name)
        ext = extended_positive_roots(Q).roots
        by_dim = {dim_vector(W).serialize(): W for W in enumerate_indecomposables(Q)}
        for v in sorted(ext, key=lambda r: r.serialize()):
            W = indecomposable_for(Q, v)
            assert dim_vector(W) == v
            assert W.dims == by_dim[v.serialize()].dims


def test_decompose_respects_seed_determinism():
    S = simple_rep(A2, "1", unit_simple(A2))
    V = direct_sum(S, S)
    a = [support(W) for W in decompose(V, seed=123)]
    b = [support(W) for W in decompose(V, seed=123)]
    assert a == b


def test_decompose_reads_no_environment(monkeypatch):
    # without a seed argument the splitter uses DEFAULT_SEED, whatever the
    # environment holds
    P = indecomposable_for(A2, RootVector.basis(A2, "1") + RootVector.basis(A2, "2"))
    V = direct_sum(direct_sum(P, simple_rep(A2, "2", unit_simple(A2))), P)
    expected = decompose(V, seed=reps_mod.DEFAULT_SEED)
    monkeypatch.setenv("COXREP_SEED", "bogus")
    assert decompose(V) == expected


def test_rep_json_round_trip():
    v = RootVector.basis(I25, "1").scale(tau_elem()) + RootVector.basis(
        I25, "2"
    ).scale(tau_elem())
    V = indecomposable_for(I25, v)
    W = UnfoldedRep.from_json(V.to_json())
    assert W.quiver == V.quiver
    assert W.dims == V.dims
    assert W.maps == V.maps
