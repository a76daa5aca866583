"""Representations in unfolded coordinates and their reflection functors.

A representation is stored as one rational dimension per unfolded vertex and
one rational matrix per unfolded arrow.  Reflection at a sink of the Coxeter
quiver acts as the classical kernel construction at every unfolded vertex
lying over it, and matches the simple reflection on dimension vectors.
Reflection at a source is its transpose dual, F-_i = D F+_i D with D the
transpose of every matrix (Bernstein-Gelfand-Ponomarev): the cokernel of the
map out of V_u is the transposed kernel of the transposed map.  Both are one
step (`_reflection_step`) on a representation held on its support: its
non-zero dimensions, and the maps between them as integer rows over a
denominator.  A plan (`_plan`) lists the vertices over i with their arrows.
Only the direction of the arrows at i differs between orientations, so the
knitting plans each of its orientations once, off the `rootsys._Walk` of
the original orientation, whose reflections run each chain's dimension
vectors ahead of it.  At each vertex over i the step stacks only the blocks
of the arrows whose other end is non-zero, solves one integer system if the
vertex itself is non-zero, takes the identity if it is zero, and skips it if
it and all its neighbours are zero; it slices the kernel vectors straight
into the new maps, with no `Mat` in between.
Indecomposables of finite-type quivers are knitted forward from the simples:
the source step carries each one-dimensional representation around the cycle
of orientations of an admissible ordering until it vanishes, and every
representation met on the original orientation is indecomposable, one per
extended positive root.  The local steps repeat within one knitting, so a
knitting call solves each distinct local input once and builds one `Mat` per
distinct map, which its members share.  An `UnfoldedRep` is built
(`_materialize`, through the unchecked constructors `Mat._trusted` and
`UnfoldedRep._trusted`) only for the members yielded over the original
orientation, and for the result of a public reflection functor.

Hom and End spaces are the kernels of one integer linear system per pair of
representations (`_hom_rows`); their dimensions are read off its echelon
form.  The splitter eliminates the End system only up to the last free
column it has drawn, and back-substitutes an element of End(V) only when it
tries it (`_EndBasis`).  Krull-Schmidt splitting uses Fitting's lemma
in integers only: an endomorphism scaled to integer matrices splits the
representation into its generalized eigenspaces for the integer roots of the
blockwise characteristic polynomials, plus one part for all other
eigenvalues.  It solves only what the endomorphism does not already show: a
triangular block has its diagonal for eigenvalues, a vertex that is a single
generalized eigenspace is whole (Cayley-Hamilton), and a part's maps are
read off its reduced kernel bases, with no linear solve.

Everything here runs on the integer core of `Mat`: each matrix is integer
rows `num` over one denominator `den`, and the reflection step, the Hom/End
rows, direct sums and the splitting scale blocks to a common denominator and
work on the numerators, so no Fraction is built between parsing a
representation and reading its entries.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from itertools import chain, islice
from math import lcm
from operator import mul
from sys import maxsize

from ._values import Value, _set_slots
from .fusion import SimpleObject
from .linalg import Mat, NoSolution, _back_substitute, _echelon, _echelon_steps, _kernel_vectors, _reduced_kernel
from .linalg import charpoly, int_kernel, integer_roots
from .quiver import CoxeterQuiver, UnknownVertex, admissible_sink_ordering, is_finite_type, reverse_at, vertex_key
from .rootsys import DEFAULT_BUDGET, CapExceeded, MismatchedQuiver, RootVector
from .rootsys import _coordinates, _extend, _int_reflect, _positive, _walk, _Walk
from .unfold import UnfoldedQuiver, fold_dim, unfold, unfolded_arrow_id, vertex_name

DEFAULT_SEED = 7
_SPLIT_ATTEMPTS = 64


class NotASink(Exception):
    pass


class NotASource(Exception):
    pass


class NotAnExtendedRoot(Exception):
    pass


class NotFiniteType(Exception):
    pass


class SplittingFailed(Exception):
    def __init__(self, seed: int):
        super().__init__(f"no splitting endomorphism found (seed={seed})")
        self.seed = seed

    def __reduce__(self):
        return type(self), (self.seed,)


class UnfoldedRep(Value):
    """Dimensions and matrices over the unfolded quiver of a Coxeter quiver."""

    __slots__ = ("quiver", "dims", "maps")
    __hash__ = None  # the state holds dicts

    def __init__(self, quiver: UnfoldedQuiver, dims=None, maps=None):
        dims = dims or {}
        maps = maps or {}
        rest = dict(dims)
        for name in quiver.vertices:
            d = rest.pop(name, 0)
            if type(d) is not int:
                raise TypeError(f"dimensions must be integers, got {d!r}")
            if d < 0:
                raise ValueError("dimensions must be non-negative")
            if d > maxsize:
                # no list, and so no matrix, has that many rows or columns
                raise CapExceeded(f"dimension {d} at {name} is more than {maxsize}")
        if rest:
            raise UnknownVertex(f"unknown unfolded vertices {sorted(rest)}")
        rest = dict(maps)
        for a in quiver.arrows:
            rows = dims.get(a.target, 0)
            cols = dims.get(a.source, 0)
            m = rest.pop(a.id, None)
            if m is not None and (m.rows, m.cols) != (rows, cols):
                raise ValueError(
                    f"arrow {a.id}: matrix is {m.rows}x{m.cols}, expected {rows}x{cols}"
                )
        if rest:
            raise UnknownVertex(f"unknown unfolded arrows {sorted(rest)}")
        # every vertex not given has dimension 0 and every arrow not given
        # the zero matrix of its shape
        full_dims = {u: dims.get(u, 0) for u in quiver.vertices}
        full_maps = {}
        for a in quiver.arrows:
            m = maps.get(a.id)
            if m is None:
                m = Mat.zeros(full_dims[a.target], full_dims[a.source])
            full_maps[a.id] = m
        _set_slots(self, quiver, full_dims, full_maps)

    @classmethod
    def _trusted(cls, quiver: UnfoldedQuiver, dims: dict[str, int], maps: dict[str, Mat]) -> "UnfoldedRep":
        """The representation with the given dimensions and maps, one per
        vertex and arrow of quiver in its order, taken as they are."""
        V = object.__new__(cls)
        _set_slots(V, quiver, dims, maps)
        return V

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def is_zero(self) -> bool:
        return self.total_dim() == 0

    def _state(self):
        return self.quiver, self.dims, self.maps

    def to_json(self) -> dict:
        return self._json(self.quiver.source.to_json(), Mat.to_json)

    def _json(self, quiver_doc: dict, mat_doc) -> dict:
        """The `to_json` document with quiver_doc as its source quiver and
        mat_doc(m) as the document of each non-zero map m, so that one
        quiver document, and one document per matrix, can serve many
        representations."""
        return {
            "quiver": quiver_doc,
            "dims": {k: v for k, v in self.dims.items() if v},
            "maps": {k: mat_doc(m) for k, m in self.maps.items() if not m.is_zero()},
        }

    @classmethod
    def from_json(cls, obj) -> "UnfoldedRep":
        Q = CoxeterQuiver.from_json(obj["quiver"])
        uq = unfold(Q)
        dims_obj, maps_obj = obj.get("dims", {}), obj.get("maps", {})
        if not isinstance(dims_obj, dict) or not isinstance(maps_obj, dict):
            raise TypeError('"dims" and "maps" must be objects keyed by unfolded vertex and arrow')
        bad = [d for d in dims_obj.values() if type(d) is not int]
        if bad:
            raise TypeError(f"dimensions must be integers, got {bad[0]!r}")
        dims = {str(k): v for k, v in dims_obj.items()}
        arrows = {a.id: a for a in uq.arrows}
        maps = {}
        for k, rows in maps_obj.items():
            arrow = arrows.get(k)
            if arrow is None:
                raise UnknownVertex(f"unknown unfolded arrow {k!r}")
            maps[k] = Mat.from_json(
                rows, dims.get(arrow.target, 0), dims.get(arrow.source, 0)
            )
        return cls(uq, dims, maps)

    def __repr__(self):
        support = {k: v for k, v in self.dims.items() if v}
        return f"UnfoldedRep({support})"


def zero_rep(Q: CoxeterQuiver) -> UnfoldedRep:
    return UnfoldedRep(unfold(Q))


def simple_rep(Q: CoxeterQuiver, i: str, A: SimpleObject) -> UnfoldedRep:
    """The one-dimensional representation supported at the unfolded vertex (A, i)."""
    uq = unfold(Q)
    i = str(i)
    Q._require(i)
    name = vertex_name(A, i)
    if name not in uq.parts:
        raise UnknownVertex(f"{A!r} is not a simple object over labels {Q.label_set}")
    return UnfoldedRep(uq, {name: 1})


def dim_vector(V: UnfoldedRep) -> RootVector:
    """Fold the unfolded dimensions to one fusion-ring class per vertex."""
    return fold_dim(V.quiver, V.dims)


def direct_sum(V: UnfoldedRep, W: UnfoldedRep) -> UnfoldedRep:
    if V.quiver != W.quiver:
        raise ValueError("summands live over different quivers")
    dims = {u: V.dims[u] + W.dims[u] for u in V.quiver.vertices}
    maps = {}
    for a in V.quiver.arrows:
        mv, mw = V.maps[a.id], W.maps[a.id]
        den = lcm(mv.den, mw.den)
        num = [r + [0] * mw.cols for r in mv.num_over(den)]
        num += [[0] * mv.cols + r for r in mw.num_over(den)]
        maps[a.id] = Mat._trusted(mv.rows + mw.rows, mv.cols + mw.cols, num, den)
    return UnfoldedRep(V.quiver, dims, maps)


def _reflect(Q: CoxeterQuiver, i: str, V: UnfoldedRep, at_sink: bool) -> UnfoldedRep:
    """Check that V lives over Q and that i is a sink (at_sink) or a source
    of Q, then reflect V at i."""
    i = str(i)
    Q._require(i)
    if V.quiver.source != Q:
        raise ValueError("representation does not live over the given quiver")
    if at_sink and not Q.is_sink(i):
        raise NotASink(f"vertex {i!r} is not a sink")
    if not at_sink and not Q.is_source(i):
        raise NotASource(f"vertex {i!r} is not a source")
    dims = {u: d for u, d in V.dims.items() if d}
    maps = {}
    for a in V.quiver.arrows:
        if a.source in dims and a.target in dims:
            m = V.maps[a.id]
            maps[a.id] = (m.num, m.den)
    _reflection_step(_plan(V.quiver, i, at_sink), at_sink, dims, maps, {})
    return _materialize(unfold(reverse_at(Q, i)), dims, maps, {})


def reflect_plus(Q: CoxeterQuiver, i: str, V: UnfoldedRep) -> UnfoldedRep:
    """Reflection functor at a sink: kernel construction at every vertex over i."""
    return _reflect(Q, i, V, at_sink=True)


def reflect_minus(Q: CoxeterQuiver, i: str, V: UnfoldedRep) -> UnfoldedRep:
    """Reflection functor at a source: cokernel construction at every vertex over i."""
    return _reflect(Q, i, V, at_sink=False)


def _plan(uq: UnfoldedQuiver, i: str, at_sink: bool) -> tuple:
    """The reflection at the sink (at_sink) or source i, laid out for
    `_reflection_step`: for each unfolded vertex u over i, in the order of
    `vertices_over`, every arrow of uq at u as (its other end, its id into u
    at a sink or out of u at a source, the id of its reversal).  Only the
    arrows at i change direction between orientations, so uq may unfold any
    of them: one block per arrow of the quiver in turn, each sorted by its
    other end, is the order of the arrows at u where i is a sink or source."""
    plan = []
    for u in uq.vertices_over(i):
        arrows = []
        for a in sorted(uq.in_arrows(u) + uq.out_arrows(u), key=lambda a: vertex_key(a.provenance)):
            other = a.source if a.target == u else a.target
            into, out_of = unfolded_arrow_id(a.provenance, other, u), unfolded_arrow_id(a.provenance, u, other)
            arrows.append((other, into, out_of) if at_sink else (other, out_of, into))
        plan.append((u, tuple(arrows)))
    return tuple(plan)


def _reflection_step(plan: tuple, at_sink: bool, dims: dict[str, int], maps: dict[str, tuple], solved: dict) -> None:
    """Apply, in place, the reflection functor that `plan` lays out
    (`_plan`): the kernel functor at a sink (at_sink), the cokernel functor
    at a source.

    (dims, maps) is a representation on its support: the non-zero
    dimensions, and (integer rows, den) for each arrow whose two ends are
    both non-zero, the rows as tuples of int tuples; every other vertex and
    arrow is zero, and the step keeps it so.  At each u of the plan the live
    arrows are those whose other end is non-zero (an arrow of width 0 would
    add no column).  With no live arrow u becomes 0, so a u that is 0 with
    all its neighbours 0 is skipped.  Otherwise the live blocks, over a
    common denominator, give one integer row per basis vector r of V_u (row
    r of every block at a sink, column r at a source), and their kernel
    vectors (`_kernel_vectors`; the unit vectors if V_u = 0) span the new
    space at u.  The new map of a reversed arrow holds the slices of the
    kernel vectors at its other end's coordinates: one row per vector at a
    source, transposed at a sink (the cokernel functor is the transpose dual
    of the kernel functor).  Rows are not brought to lowest terms;
    `Mat._trusted` does that when a member is materialized.

    The step at u depends only on its live blocks in plan order (their
    widths if V_u = 0), so `solved` maps them, exactly as held, to the new
    dimension at u and the new blocks, and each stacked system (a tuple of
    int tuples, which never equals a tuple of blocks or of widths) to its
    kernel vectors, since blocks split into arrows differently can stack to
    the same system.  So each distinct local input is stepped, and each
    distinct system solved, once per dict; one dict serves one direction
    only."""
    for u, arrows in plan:
        live = []
        width = 0
        for other, a, new in arrows:
            w = dims.get(other)
            if w:
                live.append((new, a, w))
                width += w
        d = dims.pop(u, 0)
        if not live:
            continue
        key = tuple([maps.pop(a) for _, a, _ in live]) if d else tuple([w for _, _, w in live])
        step = solved.get(key)
        if step is None:
            if d:
                den = lcm(*(k for _, k in key))
                blocks = [b if k == den else [[x * (den // k) for x in r] for r in b] for b, k in key]
                if at_sink:
                    rows = [[x for b in blocks for x in b[r]] for r in range(d)]
                else:
                    rows = [[row[r] for b in blocks for row in b] for r in range(d)]
                system = tuple(map(tuple, rows))
                kernel = solved.get(system)
                if kernel is None:
                    kernel = solved[system] = _kernel_vectors(rows, width)
                vecs, den = kernel
            else:
                vecs, den = [[int(r == c) for r in range(width)] for c in range(width)], 1
            if at_sink:
                K = tuple(zip(*vecs))  # the kernel vectors as columns
            else:
                vecs = list(map(tuple, vecs))
            out = []
            offset = 0
            for _, _, w in live:
                if at_sink:
                    out.append((K[offset : offset + w], den))
                else:
                    out.append((tuple([x[offset : offset + w] for x in vecs]), den))
                offset += w
            step = solved[key] = (len(vecs), out)
        e, out = step
        if e:
            dims[u] = e
            for (new, _, _), block in zip(live, out):
                maps[new] = block


def _materialize(uq: UnfoldedQuiver, dims: dict[str, int], maps: dict[str, tuple], mats: dict) -> UnfoldedRep:
    """The representation over uq held on its support as (dims, maps) (see
    `_reflection_step`), built unchecked.  `mats` maps each block to its
    `Mat`, in lowest terms, and each zero shape to its `Mat.zeros`, so one
    dict builds one `Mat` per distinct map and shares it (a `Mat` is
    immutable)."""
    full_dims = {u: dims.get(u, 0) for u in uq.vertices}
    full = {}
    for a in uq.arrows:
        block = maps.get(a.id)
        key = block or (full_dims[a.target], full_dims[a.source])
        M = mats.get(key)
        if M is None:
            if block:
                rows, den = block
                M = Mat._trusted(len(rows), len(rows[0]), rows, den)
            else:
                M = Mat.zeros(*key)
            mats[key] = M
        full[a.id] = M
    return UnfoldedRep._trusted(uq, full_dims, full)


def apply_reflection_word(Q: CoxeterQuiver, V: UnfoldedRep, word) -> UnfoldedRep:
    """Apply a sequence of (vertex, sign) reflection functors.

    Each step requires its vertex to be a sink (for "+") or a source (for "-")
    of the current orientation; the orientation is reversed as we go.
    """
    cur_Q = Q
    for vertex, sign in word:
        if sign == "+":
            V = reflect_plus(cur_Q, vertex, V)
        elif sign == "-":
            V = reflect_minus(cur_Q, vertex, V)
        else:
            raise ValueError(f"bad sign {sign!r}")
        cur_Q = V.quiver.source
    return V


def _hom_rows(V: UnfoldedRep, W: UnfoldedRep) -> tuple[list[list[int]], dict[str, int], int]:
    """Integer rows of the linear system whose solutions are the morphisms
    V -> W: f_t MV_a = MW_a f_s for every arrow a: s -> t.

    The unknowns are the entries of the blocks f_u (W.dims[u] x V.dims[u],
    row-major) from offset base[u]; returns (rows, base, unknowns).  The
    equations of an arrow are scaled by the lcm of the denominators of its two
    matrices, so every row is integral."""
    uq = V.quiver
    base: dict[str, int] = {}
    n_unknowns = 0
    for u in uq.vertices:
        base[u] = n_unknowns
        n_unknowns += W.dims[u] * V.dims[u]
    rows = []
    for a in uq.arrows:
        s, t = a.source, a.target
        MV, MW = V.maps[a.id], W.maps[a.id]
        ds_v, dt_v = V.dims[s], V.dims[t]
        ds_w, dt_w = W.dims[s], W.dims[t]
        L = lcm(MV.den, MW.den)
        mv, mw = MV.num_over(L), MW.num_over(L)
        for r in range(dt_w):
            for c in range(ds_v):
                row = [0] * n_unknowns
                # f_t[r, k] * MV[k, c]
                for k in range(dt_v):
                    coeff = mv[k][c]
                    if coeff:
                        row[base[t] + r * dt_v + k] = coeff
                # - MW[r, k] * f_s[k, c]
                for k in range(ds_w):
                    coeff = mw[r][k]
                    if coeff:
                        row[base[s] + k * ds_v + c] -= coeff
                rows.append(row)
    return rows, base, n_unknowns


def hom_dim(V: UnfoldedRep, W: UnfoldedRep) -> int:
    """Dimension of the space of morphisms V -> W over the rationals: the
    nullity of the echelon form of the Hom system, with no kernel vector
    computed."""
    if V.quiver != W.quiver:
        raise ValueError("representations live over different quivers")
    rows, _, n_unknowns = _hom_rows(V, W)
    return len(_echelon(rows, n_unknowns)[3])


def end_dim(V: UnfoldedRep) -> int:
    """Dimension of the endomorphism algebra; 1 certifies indecomposability."""
    return hom_dim(V, V)


class _EndBasis:
    """The basis of End(V) that `endomorphism_basis` lists, drawn lazily.

    The End system (`_hom_rows`) is eliminated only as far as the columns
    read so far (`_echelon_steps`, suspended in between): in the reduced
    basis, the element of free column f has x_f = 1 and is supported on f
    and the pivot columns before f, whose rows are final once the
    elimination has passed f.  So element t needs the elimination only up
    to the t-th free column; it is back-substituted through the pivot rows
    before that column the first time it is read, cut into one block per
    vertex and kept, and is the same as in `endomorphism_basis`.  Indexing
    past the last element raises IndexError, so iteration is lazy too;
    `reaches` asks whether there is an element t, and the length, the
    nullity, runs the elimination to the end."""

    __slots__ = ("V", "base", "rows", "pivots", "supports", "n_unknowns", "free", "steps", "drawn")

    def __init__(self, V: UnfoldedRep):
        self.rows, self.base, self.n_unknowns = _hom_rows(V, V)
        self.V = V
        self.pivots: list[int] = []
        self.supports: list[list[int]] = []
        self.free: list[int] = []
        self.steps = _echelon_steps(self.rows, self.n_unknowns, self.pivots, self.supports)
        self.drawn: dict[int, dict[str, Mat]] = {}

    def reaches(self, t: int) -> bool:
        """Whether End(V) has an element t: the elimination advances to the
        t-th free column, or to its end."""
        free = self.free
        if len(free) <= t:
            free.extend(islice(self.steps, t + 1 - len(free)))
        return len(free) > t

    def __len__(self) -> int:
        self.free.extend(self.steps)
        return len(self.free)

    def __getitem__(self, t: int) -> dict[str, Mat]:
        elem = self.drawn.get(t)
        if elem is None:
            if not self.reaches(t):
                raise IndexError(t)
            elem = self.drawn[t] = self.draw([self.free[t]])[0]
        return elem

    def draw(self, cols: list[int]) -> list[dict[str, Mat]]:
        """The endomorphisms of the given free columns, which the elimination
        has passed, from one back-substitution through the pivot rows before
        the last of them; they are not kept."""
        pivots = self.pivots[: bisect_left(self.pivots, max(cols, default=0))]
        vecs, den = _back_substitute(self.rows, pivots, self.supports, self.n_unknowns, cols)
        dims, base = self.V.dims, self.base
        return [
            {
                u: Mat._trusted(d, d, [x[base[u] + r * d : base[u] + r * d + d] for r in range(d)], den)
                for u, d in dims.items()
            }
            for x in vecs
        ]


def endomorphism_basis(V: UnfoldedRep) -> list[dict[str, Mat]]:
    """A basis of End(V) as tuples of matrices, one per unfolded vertex: the
    kernel vectors of the End system, one per free column of its echelon
    form, all back-substituted at once."""
    basis = _EndBasis(V)
    len(basis)  # the elimination run to the end lists every free column
    return basis.draw(basis.free)


def _knit(walk: _Walk, n_roots: int):
    """Yield the indecomposables of the finite-type quiver Q = uq.source,
    knitted forward from the simples; uq = walk.uq is the unfolding of Q.

    With the admissible ordering v_0, ..., v_{n-1}, let Q_k be Q reversed at
    v_0, ..., v_{k-1}.  For each k and simple A the chain starts at the
    one-dimensional representation at (A, v_k) over Q_k and applies the
    cokernel functor at v_{k-1}, ..., v_0, v_{n-1}, ..., v_0, ... up to its
    last member over Q_0 = Q, yielding each member over Q.  Where that is
    comes from the chain of unfolded dimension vectors, run ahead of it by
    `_last_landing`; a chain longer than n * n_roots steps raises
    CapExceeded.

    The step to Q_p is the cokernel functor at v_p, a source of Q_{p+1}
    (Q_n = Q_0); its plan is read off uq, once per orientation and call.  A
    chain is carried on its support, as integer rows, through the module
    global `_reflection_step`; only a member over Q is materialized
    (`_materialize`), which is once per extended positive root.  Two dicts
    live for the call: `solved`, through which each distinct local input is
    stepped and each distinct system solved once, and `mats`, through which
    each distinct map is one `Mat`, shared by the members.
    """
    uq = walk.uq
    ordering = admissible_sink_ordering(uq.source)
    n = len(ordering)
    plans = [_plan(uq, vp, at_sink=False) for vp in ordering]
    solved, mats = {}, {}
    for k, vk in enumerate(ordering):
        for A in uq.irr:
            steps = _last_landing(walk, ordering, k, walk.basis(vk, A), n * n_roots)
            dims, maps = {vertex_name(A, vk): 1}, {}
            p = k
            for _ in range(steps):
                if p == 0:
                    yield _materialize(uq, dims, maps, mats)
                p = (p - 1) % n
                _reflection_step(plans[p], False, dims, maps, solved)
            yield _materialize(uq, dims, maps, mats)


def _last_landing(walk: _Walk, ordering, k: int, x: tuple[int, ...], max_steps: int) -> int:
    """The number of cokernel steps from the simple over Q_k of dimension
    vector x to the last member of its knitting chain over Q_0.

    The dimension vector of a step is the integer reflection of the one
    before, and the step vanishes exactly when that has a negative
    coordinate: the chain is indecomposable, and over the unfolded vertices
    of one vertex the functor is a product of classical reflection functors,
    which kill only the simple at their vertex.  The first k steps reflect
    away from v_k and keep the coordinate 1 of x, so every chain lands
    on Q_0 at least once."""
    n = len(ordering)
    reflections = walk.reflections
    p = k
    last = 0
    for step in range(max_steps):
        if p == 0:
            last = step
        p = (p - 1) % n
        x = _int_reflect(x, reflections[ordering[p]])
        if min(x) < 0:
            return last
    raise CapExceeded(f"knitting chain exceeded {max_steps} steps")


def _dims(uq: UnfoldedQuiver, W: UnfoldedRep) -> tuple[int, ...]:
    """W's dimensions as an integer tuple in the order of uq.vertices."""
    return tuple(map(W.dims.__getitem__, uq.vertices))


def indecomposable_for(Q: CoxeterQuiver, v: RootVector, budget: int = DEFAULT_BUDGET) -> UnfoldedRep:
    """The indecomposable representation whose dimension vector is the given
    extended positive root, taken from the forward knitting of the simples."""
    if not is_finite_type(Q):
        raise NotFiniteType("indecomposables are only enumerated in finite type")
    walk = _walk(Q)
    roots = _extend(walk, _positive(walk, budget))
    try:
        x = _coordinates(walk, v)
    except (MismatchedQuiver, UnknownVertex):
        x = None
    if x not in roots:
        raise NotAnExtendedRoot(f"{v!r} is not an extended positive root")
    for W in _knit(walk, len(roots)):
        if _dims(walk.uq, W) == x:
            return W
    raise AssertionError("knitting did not reach an extended positive root")


def _indecomposables_with_dims(
    Q: CoxeterQuiver, budget: int
) -> tuple[_Walk, list[tuple[str, tuple[int, ...], UnfoldedRep]]]:
    """The triples (serialized dimension vector, unfolded dimensions,
    indecomposable) behind `enumerate_indecomposables`, in its order, and
    the walk that serializes the dimensions; the serialized form is both
    the sort key and the printed text line.  The knitted dimensions are
    checked against the extended positive roots, as integer tuples.  The
    root orbit, the twist, the extension and the knitting read one walk."""
    if not is_finite_type(Q):
        raise NotFiniteType("enumeration requires a finite-type quiver")
    walk = _walk(Q)
    roots = _extend(walk, _positive(walk, budget))
    found = [(_dims(walk.uq, W), W) for W in _knit(walk, len(roots))]
    if len(found) != len(roots) or {x for x, _ in found} != roots:
        raise AssertionError("knitted dimension vectors differ from the extended roots")
    return walk, sorted(((walk.serialize(x), x, W) for x, W in found), key=lambda triple: triple[0])


def enumerate_indecomposables(Q: CoxeterQuiver, budget: int = DEFAULT_BUDGET) -> list[UnfoldedRep]:
    """One representative per extended positive root, sorted by the serialized
    dimension vector, knitted forward from the simples.  The knitted dimension
    vectors are checked against the extended positive roots."""
    return [W for _, _, W in _indecomposables_with_dims(Q, budget)[1]]


def _restrict(V: UnfoldedRep, bases: dict[str, tuple[Mat, list[int]]]) -> UnfoldedRep:
    """The subrepresentation of V on the given subspaces, one per vertex u
    as (B_u, F_u): a basis B_u of columns (d_u x e_u) that is the identity
    at its rows F_u (`_reduced_kernel`; every row for the identity basis).

    The map of an arrow a: s -> t is the X with B_t X = M_a B_s; it is the
    image M_a B_s read at the rows F_t, and B_t X must give the image back
    (NoSolution if the subspaces are not invariant).  The product is skipped
    if B_s is the identity, and the check if B_t is."""
    maps = {}
    for a in V.quiver.arrows:
        M = V.maps[a.id]
        (Bs, Fs), (Bt, Ft) = bases[a.source], bases[a.target]
        if len(Fs) == Bs.rows:
            image, den = M.num, M.den
        else:
            cols = Bs._transposed_num()
            image, den = [[sum(map(mul, row, col)) for col in cols] for row in M.num], M.den * Bs.den
        X = [image[r] for r in Ft]
        if len(Ft) < Bt.rows:
            # B_t X = image, with B_t = Bt.num / Bt.den: Bt.num X = Bt.den image
            cols = list(zip(*X)) if X else [()] * Bs.cols
            for brow, irow in zip(Bt.num, image):
                if any(sum(map(mul, brow, col)) != Bt.den * x for col, x in zip(cols, irow)):
                    raise NoSolution("the subspaces are not invariant")
        maps[a.id] = Mat._trusted(Bt.cols, Bs.cols, X, den)
    return UnfoldedRep._trusted(V.quiver, {u: bases[u][0].cols for u in V.quiver.vertices}, maps)


def _int_poly_at(coeffs: list[int], g: list[list[int]]) -> list[list[int]]:
    """Evaluate an integer polynomial of positive degree (highest degree
    first) at a square integer matrix by Horner's rule, from c_0 g + c_1 I:
    a polynomial of degree k costs k - 1 products."""
    d = len(g)
    cols = list(zip(*g))
    c0 = coeffs[0]
    out = [[c0 * x for x in row] for row in g]
    for i in range(d):
        out[i][i] += coeffs[1]
    for c in coeffs[2:]:
        out = [[sum(map(mul, row, col)) for col in cols] for row in out]
        for i in range(d):
            out[i][i] += c
    return out


def _eigenvalues(g: list[list[int]]) -> tuple[list[tuple[int, int]], list[int]]:
    """`integer_roots(charpoly(g))` for a square integer matrix g; for a
    triangular g, the diagonal entries with their multiplicities and the
    cofactor [1], read off with no polynomial."""
    if all(not any(row[:i]) for i, row in enumerate(g)) or all(not any(row[i + 1 :]) for i, row in enumerate(g)):
        diagonal = [row[i] for i, row in enumerate(g)]
        return [(mu, diagonal.count(mu)) for mu in sorted(set(diagonal))], [1]
    return integer_roots(charpoly(g))


def _try_split(V: UnfoldedRep, f: dict[str, Mat]) -> list[UnfoldedRep] | None:
    """Fitting's lemma for the endomorphism f: V is the direct sum of the
    generalized eigenspaces of f for its rational eigenvalues and of one more
    part for all the other eigenvalues.  None if that is a single part.

    With D the common denominator of f, g = D f is integral, and its rational
    eigenvalues mu = D lambda are the integer roots of the characteristic
    polynomials of the blocks g_u (`_eigenvalues`: the diagonal of a
    triangular block).  The part for mu is ker (g_u - mu)^e at each vertex,
    e the multiplicity of mu in charpoly(g_u); the last part is the kernel
    of the cofactor of those roots.  The parts are counted off the roots
    before any kernel is computed.  Where V_u is a single generalized
    eigenspace (one root of multiplicity d_u, or no root), that polynomial
    kills g_u (Cayley-Hamilton), and the kernel is the identity basis, taken
    with no power and no elimination.  Each part is read off its reduced
    kernel bases (`_restrict`)."""
    D = lcm(*(m.den for m in f.values()))
    blocks = []
    mus: set[int] = set()
    other = False
    for u in V.quiver.vertices:
        d = V.dims[u]
        if d:
            g = f[u].num_over(D)
            roots, rest = _eigenvalues(g)
            blocks.append((u, d, g, roots, rest))
            mus.update(mu for mu, _ in roots)
            other = other or len(rest) > 1
    if len(mus) + other < 2:
        return None
    eigenspaces: dict[int, dict[str, tuple[Mat, list[int]]]] = {}
    rest_space: dict[str, tuple[Mat, list[int]]] = {}
    for u, d, g, roots, rest in blocks:
        if len(roots) + (len(rest) > 1) == 1:  # V_u is one generalized eigenspace
            whole = (Mat.identity(d), list(range(d)))
            if roots:
                eigenspaces.setdefault(roots[0][0], {})[u] = whole
            else:
                rest_space[u] = whole
            continue
        for mu, e in roots:
            shifted = [[x - mu if i == j else x for j, x in enumerate(row)] for i, row in enumerate(g)]
            eigenspaces.setdefault(mu, {})[u] = _reduced_kernel(_int_poly_at([1] + [0] * e, shifted), d)
        if len(rest) > 1:
            rest_space[u] = _reduced_kernel(_int_poly_at(rest, g), d)
    spaces = [eigenspaces[mu] for mu in sorted(eigenspaces)] + ([rest_space] if rest_space else [])
    parts = [
        _restrict(V, {u: space.get(u) or (Mat.zeros(d, 0), []) for u, d in V.dims.items()})
        for space in spaces
    ]
    if sum(p.total_dim() for p in parts) != V.total_dim():
        raise AssertionError("generalized eigenspaces do not fill the representation")
    return parts


def _split_candidates(basis, rng):
    for b in basis:
        yield b
    vertices = list(basis[0]) if basis else []
    for i in range(len(basis)):
        for j in range(len(basis)):
            if i != j:
                yield {u: basis[i][u] * basis[j][u] for u in vertices}
    while True:
        coeffs = [rng.randint(-3, 3) for _ in basis]
        if not any(coeffs):
            continue
        yield _combination(basis, coeffs)


def _combination(basis, coeffs):
    elem = {}
    for u in basis[0]:
        acc = basis[0][u].scale(coeffs[0])
        for t in range(1, len(coeffs)):
            if coeffs[t]:
                acc = acc + basis[t][u].scale(coeffs[t])
        elem[u] = acc
    return elem


def _annihilator_candidates(V, basis, rng):
    """Candidates from the left ideal of End(V) that kills the first basis
    vector at a vertex u of least positive dimension.  They are singular at
    u, so unless nilpotent they have the eigenvalue 0 and another one and
    split V.  The ideal is non-zero whenever dim End(V) exceeds dim V_u, for
    instance for W^k with k > dim W_u, where End(V) is a full matrix algebra
    and sampled elements seldom have rational eigenvalues."""
    u = min((u for u in V.quiver.vertices if V.dims[u]), key=V.dims.__getitem__)
    d = V.dims[u]
    den = lcm(*(b[u].den for b in basis))
    ann = int_kernel([[b[u].num[r][0] * (den // b[u].den) for b in basis] for r in range(d)], len(basis))
    # combinations by the kernel's numerators: scaling every candidate by the
    # same positive ann.den moves no eigenspace and keeps their order
    ideal = [_combination(basis, coeffs) for coeffs in zip(*ann.num)]
    if ideal:
        yield from _split_candidates(ideal, rng)


def decompose(V: UnfoldedRep, seed: int | None = None) -> list[UnfoldedRep]:
    """Indecomposable summands of V by repeated Fitting splitting.

    The End system of V is eliminated once, and only as far as needed: V
    is a leaf unless the elimination finds a second free column.
    Endomorphisms f are then tried deterministically: the basis elements of
    End(V), their products, and seeded random combinations of them; basis
    element t is back-substituted, with the elimination advanced to its free
    column, only when a candidate first reads it (`_EndBasis`).  Each f is
    scaled by the common denominator D of its entries to integer blocks
    g_u = D f_u.  The integer eigenvalues mu of a triangular block (the
    eigenvalues lambda = mu / D of f) are its diagonal entries; for every
    other block the characteristic polynomial is computed by Berkowitz's
    division-free algorithm, and its integer roots come from its square-free
    part.  V splits into the generalized eigenspaces ker (g_u - mu)^e, one
    per root, and, if some eigenvalue is not rational, the kernel of the
    cofactor of those roots; f is used when that gives at least two parts.
    A vertex that is one generalized eigenspace is taken whole, and each
    part's maps are read off its reduced kernel bases (`_try_split`).  Each
    part is split again until its endomorphism algebra is one-dimensional,
    which certifies the leaf as indecomposable; a leaf reads that off the
    whole echelon form and computes no endomorphism.  Leaves are sorted by
    dimension vector.
    """
    if seed is None:
        seed = DEFAULT_SEED
    if V.is_zero():
        return []
    basis = _EndBasis(V)
    if not basis.reaches(1):
        return [V]
    rng = random.Random(seed)
    candidates = chain(
        islice(_split_candidates(basis, rng), _SPLIT_ATTEMPTS),
        islice(_annihilator_candidates(V, basis, rng), _SPLIT_ATTEMPTS),
    )
    for f in candidates:
        parts = _try_split(V, f)
        if parts is not None:
            leaves: list[UnfoldedRep] = []
            for part in parts:
                leaves.extend(decompose(part, seed))
            leaves.sort(key=lambda W: dim_vector(W).serialize())
            return leaves
    raise SplittingFailed(seed)
