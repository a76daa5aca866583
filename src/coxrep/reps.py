"""Representations in unfolded coordinates and their reflection functors.

A representation is stored as one rational dimension per unfolded vertex and
one rational matrix per unfolded arrow.  Reflection at a sink (source) of the
Coxeter quiver acts as the classical kernel (cokernel) construction at every
unfolded vertex lying over it, and matches the simple reflection on dimension
vectors.  Indecomposables of finite-type quivers are knitted forward from the
simples (Bernstein-Gelfand-Ponomarev): cokernel reflection functors carry each
one-dimensional representation around the cycle of orientations of an
admissible ordering until it vanishes, and every representation met on the
original orientation is indecomposable, one per extended positive root.
"""

from __future__ import annotations

import os
import random

from .fusion import SimpleObject
from .linalg import Mat, cokernel_projection, kernel_basis, solve_all
from .quiver import CoxeterQuiver, UnknownVertex, admissible_sink_ordering, is_finite_type, reverse_at
from .rootsys import CapExceeded, RootVector, extended_positive_roots
from .unfold import UnfoldedQuiver, fold_dim, unfold, vertex_name

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


class UnfoldedRep:
    """Dimensions and matrices over the unfolded quiver of a Coxeter quiver."""

    __slots__ = ("quiver", "dims", "maps")

    def __init__(self, quiver: UnfoldedQuiver, dims=None, maps=None):
        dims = dict(dims or {})
        maps = dict(maps or {})
        full_dims = {}
        for name in quiver.vertices:
            d = int(dims.pop(name, 0))
            if d < 0:
                raise ValueError("dimensions must be non-negative")
            full_dims[name] = d
        if dims:
            raise UnknownVertex(f"unknown unfolded vertices {sorted(dims)}")
        full_maps = {}
        for a in quiver.arrows:
            rows = full_dims[a.target]
            cols = full_dims[a.source]
            m = maps.pop(a.id, None)
            if m is None:
                m = Mat.zeros(rows, cols)
            if (m.rows, m.cols) != (rows, cols):
                raise ValueError(
                    f"arrow {a.id}: matrix is {m.rows}x{m.cols}, expected {rows}x{cols}"
                )
            full_maps[a.id] = m
        if maps:
            raise UnknownVertex(f"unknown unfolded arrows {sorted(maps)}")
        object.__setattr__(self, "quiver", quiver)
        object.__setattr__(self, "dims", full_dims)
        object.__setattr__(self, "maps", full_maps)

    def __setattr__(self, *args):
        raise AttributeError("UnfoldedRep is immutable")

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def is_zero(self) -> bool:
        return self.total_dim() == 0

    def __eq__(self, other):
        return (
            isinstance(other, UnfoldedRep)
            and self.quiver == other.quiver
            and self.dims == other.dims
            and self.maps == other.maps
        )

    def to_json(self) -> dict:
        return {
            "quiver": self.quiver.source.to_json(),
            "dims": {k: v for k, v in sorted(self.dims.items()) if v},
            "maps": {
                k: m.to_json() for k, m in sorted(self.maps.items()) if not m.is_zero()
            },
        }

    @classmethod
    def from_json(cls, obj) -> "UnfoldedRep":
        Q = CoxeterQuiver.from_json(obj["quiver"])
        uq = unfold(Q)
        dims = {str(k): int(v) for k, v in obj.get("dims", {}).items()}
        maps = {}
        for k, rows in obj.get("maps", {}).items():
            arrow = next((a for a in uq.arrows if a.id == k), None)
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
        rows = [
            list(r) + [0] * mw.cols for r in mv.data
        ] + [
            [0] * mv.cols + list(r) for r in mw.data
        ]
        maps[a.id] = Mat(mv.rows + mw.rows, mv.cols + mw.cols, rows)
    return UnfoldedRep(V.quiver, dims, maps)


def _reflected_arrow_id(a, reverse: bool) -> str:
    if reverse:
        return f"{a.provenance}:{a.target}>{a.source}"
    return a.id


def reflect_plus(Q: CoxeterQuiver, i: str, V: UnfoldedRep) -> UnfoldedRep:
    """Reflection functor at a sink: kernel construction at every vertex over i."""
    i = str(i)
    Q._require(i)
    if V.quiver.source != Q:
        raise ValueError("representation does not live over the given quiver")
    if not Q.is_sink(i):
        raise NotASink(f"vertex {i!r} is not a sink")
    uq = V.quiver
    uq2 = unfold(reverse_at(Q, i))
    dims = dict(V.dims)
    maps: dict[str, Mat] = {}
    over_i = set(uq.vertices_over(i))
    for a in uq.arrows:
        if a.target not in over_i:
            maps[a.id] = V.maps[a.id]
    for name in sorted(over_i):
        incoming = uq.in_arrows(name)
        target_dim = V.dims[name]
        blocks = [V.maps[a.id] for a in incoming]
        xi = Mat.zeros(target_dim, 0)
        for b in blocks:
            xi = xi.hstack(b)
        K = kernel_basis(xi)
        dims[name] = K.cols
        offset = 0
        for a, b in zip(incoming, blocks):
            piece = K.submatrix(range(offset, offset + b.cols), range(K.cols))
            offset += b.cols
            maps[_reflected_arrow_id(a, True)] = piece
    return UnfoldedRep(uq2, dims, maps)


def reflect_minus(Q: CoxeterQuiver, i: str, V: UnfoldedRep) -> UnfoldedRep:
    """Reflection functor at a source: cokernel construction at every vertex over i."""
    i = str(i)
    Q._require(i)
    if V.quiver.source != Q:
        raise ValueError("representation does not live over the given quiver")
    if not Q.is_source(i):
        raise NotASource(f"vertex {i!r} is not a source")
    return _cokernel_step(unfold(reverse_at(Q, i)), i, V)


def _cokernel_step(uq2: UnfoldedQuiver, i: str, V: UnfoldedRep) -> UnfoldedRep:
    # i is a source of V's quiver; uq2 is the unfolding of that quiver reversed at i
    uq = V.quiver
    dims = dict(V.dims)
    maps: dict[str, Mat] = {}
    over_i = set(uq.vertices_over(i))
    for a in uq.arrows:
        if a.source not in over_i:
            maps[a.id] = V.maps[a.id]
    for name in sorted(over_i):
        outgoing = uq.out_arrows(name)
        source_dim = V.dims[name]
        blocks = [V.maps[a.id] for a in outgoing]
        theta = Mat.zeros(0, source_dim)
        for b in blocks:
            theta = theta.vstack(b)
        P = cokernel_projection(theta)
        dims[name] = P.rows
        offset = 0
        for a, b in zip(outgoing, blocks):
            piece = P.submatrix(range(P.rows), range(offset, offset + b.rows))
            offset += b.rows
            maps[_reflected_arrow_id(a, True)] = piece
    return UnfoldedRep(uq2, dims, maps)


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
        cur_Q = reverse_at(cur_Q, vertex)
    return V


def hom_dim(V: UnfoldedRep, W: UnfoldedRep) -> int:
    """Dimension of the space of morphisms V -> W over the rationals."""
    if V.quiver != W.quiver:
        raise ValueError("representations live over different quivers")
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
        for r in range(dt_w):
            for c in range(ds_v):
                row = [0] * n_unknowns
                # f_t[r, k] * MV[k, c]
                for k in range(dt_v):
                    coeff = MV.data[k][c]
                    if coeff:
                        row[base[t] + r * dt_v + k] = coeff
                # - MW[r, k] * f_s[k, c]
                for k in range(ds_w):
                    coeff = MW.data[r][k]
                    if coeff:
                        idx = base[s] + k * ds_v + c
                        row[idx] -= coeff
                rows.append(row)
    if n_unknowns == 0:
        return 0
    A = Mat(len(rows), n_unknowns, rows) if rows else Mat.zeros(0, n_unknowns)
    sol = solve_all(A, Mat.zeros(A.rows, 1))
    return sol.homogeneous.cols


def end_dim(V: UnfoldedRep) -> int:
    """Dimension of the endomorphism algebra; 1 certifies indecomposability."""
    return hom_dim(V, V)


def endomorphism_basis(V: UnfoldedRep) -> list[dict[str, Mat]]:
    """A basis of End(V) as tuples of matrices, one per unfolded vertex."""
    uq = V.quiver
    base: dict[str, int] = {}
    n_unknowns = 0
    for u in uq.vertices:
        base[u] = n_unknowns
        n_unknowns += V.dims[u] * V.dims[u]
    if n_unknowns == 0:
        return []
    rows = []
    for a in uq.arrows:
        s, t = a.source, a.target
        M = V.maps[a.id]
        ds, dt = V.dims[s], V.dims[t]
        for r in range(dt):
            for c in range(ds):
                row = [0] * n_unknowns
                for k in range(dt):
                    coeff = M.data[k][c]
                    if coeff:
                        row[base[t] + r * dt + k] = coeff
                for k in range(ds):
                    coeff = M.data[r][k]
                    if coeff:
                        row[base[s] + k * ds + c] -= coeff
                rows.append(row)
    A = Mat(len(rows), n_unknowns, rows) if rows else Mat.zeros(0, n_unknowns)
    hom = solve_all(A, Mat.zeros(A.rows, 1)).homogeneous
    basis = []
    for col in range(hom.cols):
        elem = {}
        for u in uq.vertices:
            d = V.dims[u]
            elem[u] = Mat(
                d, d, [[hom.data[base[u] + r * d + c][col] for c in range(d)] for r in range(d)]
            )
        basis.append(elem)
    return basis


def _knit(Q: CoxeterQuiver, n_roots: int):
    """Yield the indecomposables of the finite-type quiver Q, knitted forward
    from the simples.

    With the admissible ordering v_0, ..., v_{n-1}, let Q_k be Q reversed at
    v_0, ..., v_{k-1}.  For each k and simple A the chain starts at the
    one-dimensional representation at (A, v_k) over Q_k and applies the
    cokernel functor at v_{k-1}, ..., v_0, v_{n-1}, ..., v_0, ... until it
    vanishes; each member over Q_0 = Q is yielded.  A chain longer than
    n * n_roots steps raises CapExceeded.
    """
    ordering = admissible_sink_ordering(Q)
    n = len(ordering)
    quivers = [Q]
    for j in ordering[:-1]:
        quivers.append(reverse_at(quivers[-1], j))
    unfolded = [unfold(q) for q in quivers]
    max_steps = n * n_roots
    for k, vk in enumerate(ordering):
        for A in unfolded[k].irr:
            W = UnfoldedRep(unfolded[k], {vertex_name(A, vk): 1})
            p = k
            for _ in range(max_steps):
                if p == 0:
                    yield W
                p = (p - 1) % n
                W = _cokernel_step(unfolded[p], ordering[p], W)
                if W.is_zero():
                    break
            else:
                raise CapExceeded(f"knitting chain exceeded {max_steps} steps")


def indecomposable_for(
    Q: CoxeterQuiver, v: RootVector, budget: int = 10_000, _roots=None
) -> UnfoldedRep:
    """The indecomposable representation whose dimension vector is the given
    extended positive root, taken from the forward knitting of the simples."""
    if not is_finite_type(Q):
        raise NotFiniteType("indecomposables are only enumerated in finite type")
    roots = _roots if _roots is not None else extended_positive_roots(Q, budget).roots
    if v not in roots:
        raise NotAnExtendedRoot(f"{v!r} is not an extended positive root")
    for W in _knit(Q, len(roots)):
        if dim_vector(W) == v:
            return W
    raise AssertionError("knitting did not reach an extended positive root")


def enumerate_indecomposables(Q: CoxeterQuiver, budget: int = 10_000) -> list[UnfoldedRep]:
    """One representative per extended positive root, sorted by the serialized
    dimension vector, knitted forward from the simples.  The knitted dimension
    vectors are checked against `extended_positive_roots`."""
    if not is_finite_type(Q):
        raise NotFiniteType("enumeration requires a finite-type quiver")
    roots = extended_positive_roots(Q, budget).roots
    out = [(dim_vector(W), W) for W in _knit(Q, len(roots))]
    if len(out) != len(roots) or {v for v, _ in out} != roots:
        raise AssertionError("knitted dimension vectors differ from the extended roots")
    out.sort(key=lambda pair: pair[0].serialize())
    return [W for _, W in out]


def _charpoly(f: dict[str, Mat]):
    """Characteristic polynomial of the tuple f, as the product over vertices
    of the blockwise characteristic polynomials."""
    import sympy

    x = sympy.Symbol("x")
    poly = sympy.Poly(1, x, domain="QQ")
    for u in sorted(f):
        m = f[u]
        if m.rows == 0:
            continue
        sm = sympy.Matrix(
            m.rows, m.cols, [sympy.Rational(v.numerator, v.denominator) for row in m.data for v in row]
        )
        poly = poly * sympy.Poly(sm.charpoly(x).as_expr(), x, domain="QQ")
    return poly


def _poly_at(coeffs_desc, M: Mat) -> Mat:
    """Evaluate a polynomial (descending coefficients) at a square matrix."""
    from fractions import Fraction

    result = Mat.zeros(M.rows, M.rows)
    ident = Mat.identity(M.rows)
    for c in coeffs_desc:
        result = result * M + ident.scale(Fraction(c.p, c.q))
    return result


def _restrict(V: UnfoldedRep, bases: dict[str, Mat]) -> UnfoldedRep:
    """Subrepresentation supported on the given column bases (one per vertex)."""
    dims = {u: bases[u].cols for u in V.quiver.vertices}
    maps = {}
    for a in V.quiver.arrows:
        image = V.maps[a.id] * bases[a.source]
        maps[a.id] = solve_all(bases[a.target], image).particular
    return UnfoldedRep(V.quiver, dims, maps)


def _try_split(V: UnfoldedRep, f: dict[str, Mat]) -> list[UnfoldedRep] | None:
    import sympy

    poly = _charpoly(f)
    _, factors = poly.factor_list()
    factors = [(p, e) for p, e in factors if p.degree() > 0]
    if len(factors) < 2:
        return None
    parts = []
    for p, mult in factors:
        bases = {}
        for u in V.quiver.vertices:
            m = f[u]
            if m.rows == 0:
                bases[u] = Mat.zeros(0, 0)
                continue
            power = min(mult, m.rows)
            block = _poly_at(sympy.Poly(p.as_expr() ** power, p.gen, domain="QQ").all_coeffs(), m)
            bases[u] = kernel_basis(block)
        if sum(b.cols for b in bases.values()):
            parts.append(_restrict(V, bases))
    if len(parts) < 2:
        return None
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
        elem = {}
        for u in vertices:
            acc = basis[0][u].scale(coeffs[0])
            for c, b in zip(coeffs[1:], basis[1:]):
                if c:
                    acc = acc + b[u].scale(c)
            elem[u] = acc
        yield elem


def decompose(V: UnfoldedRep, seed: int | None = None) -> list[UnfoldedRep]:
    """Indecomposable summands of V by repeated generalized-eigenspace splitting.

    Endomorphisms are sampled deterministically from the computed basis, then
    from seeded random combinations; the characteristic polynomial is factored
    over the rationals and coprime factors split the representation.  Leaves
    are certified by a one-dimensional endomorphism algebra.
    """
    if seed is None:
        seed = int(os.environ.get("COXREP_SEED", DEFAULT_SEED))
    if V.is_zero():
        return []
    basis = endomorphism_basis(V)
    if len(basis) == 1:
        return [V]
    rng = random.Random(seed)
    attempts = 0
    for f in _split_candidates(basis, rng):
        attempts += 1
        if attempts > _SPLIT_ATTEMPTS:
            break
        parts = _try_split(V, f)
        if parts is not None:
            leaves: list[UnfoldedRep] = []
            for part in parts:
                leaves.extend(decompose(part, seed))
            leaves.sort(key=lambda W: dim_vector(W).serialize())
            return leaves
    raise SplittingFailed(seed)
