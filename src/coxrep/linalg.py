"""Exact rational matrices: rank, kernels, cokernels and full linear solving,
plus the integer polynomial tools of the Krull-Schmidt splitter.

Dense matrices over arbitrary-precision rationals, held as integers: a `Mat`
is a tuple of integer rows `num` over one positive denominator `den`, in
lowest terms, and its sums, products, scalings and transposes are computed on
those integers.  Zero-dimensional matrices are legal and required (empty
kernels, zero representations).  Every solve runs on integer rows in two
steps.  `_echelon_steps` brings the numerators to echelon form one column at
a time by cross-multiplication, stripping the content of a row only after a
non-unit pivot, and yields each non-pivot (free) column as it passes it.  A
pivot row never changes once it is made, so the elimination is resumable: it
may stop after any free column, with every pivot row before it final, and
go on later.  `_echelon` runs it to the end; the rank and the nullity are
read off its pivots and free columns.  `_back_substitute`
then solves the pivot rows bottom up for any chosen non-pivot columns: the
kernel vector of free column f has x_f = 1 and every other free coordinate
0, and each pivot coordinate x_pc = -(sum of row[j] x_j, j > pc) / row[pc]
is kept as an integer over a running denominator.  That vector is unique, so
a column is the same whether it is computed alone or with the others, and a
right-hand side b is the column of the augmented system whose vector is
minus the particular solution (free coordinates 0).  `_kernel_vectors`
solves integer rows directly, for the reflection functors, and `int_kernel`
puts its vectors in a `Mat`; `rank`, `kernel_basis` and `solve_all` enter
through the numerators, and a Fraction is built only when `Mat.data`, an
entry or a column is read.

`charpoly` (Berkowitz, division free) and `integer_roots` (square-free part
and Hensel lifting) work on integer matrices and polynomials only.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, count
from math import gcd, lcm
from operator import mul

from ._values import Frozen, Value, _set_slots


class NoSolution(Exception):
    """The linear system A X = B is inconsistent."""


class Mat(Value):
    """Immutable dense rational matrix, stored as integer numerators over one
    shared denominator.

    Entry (r, c) is num[r][c] / den, where num is a tuple of integer rows and
    den a positive int, always in lowest terms: gcd(den, every numerator) is
    1, so equal matrices have equal (num, den).  The public constructor takes
    any rationals and converts them once; `_trusted` takes integer rows and a
    denominator as they are (only the shape is checked) and brings them to
    lowest terms.  Arithmetic works on the integers, and `data`, the entries
    as rows of Fractions, is built only when it is read."""

    __slots__ = ("rows", "cols", "num", "den", "_data")

    def __init__(self, rows: int, cols: int, data=None):
        if data is None:
            num, den = [[0] * cols for _ in range(max(rows, 0))], 1
        else:
            grid = [[x if type(x) is int else Fraction(x) for x in row] for row in data]
            den = lcm(*(x.denominator for row in grid for x in row))
            num = [[x.numerator * (den // x.denominator) for x in row] for row in grid]
        self._init(rows, cols, num, den)

    @classmethod
    def _trusted(cls, rows: int, cols: int, num, den: int = 1) -> "Mat":
        """The matrix num / den for a sequence of integer rows num and a
        positive int den, reduced to lowest terms."""
        M = object.__new__(cls)
        M._init(rows, cols, num, den)
        return M

    def _init(self, rows: int, cols: int, num, den: int) -> None:
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        num = tuple(map(tuple, num))
        if len(num) != rows or (rows and set(map(len, num)) != {cols}):
            raise ValueError("data shape does not match dimensions")
        if den != 1:
            g = gcd(den, *chain.from_iterable(num))
            if g > 1:
                num, den = tuple(tuple(x // g for x in r) for r in num), den // g
        _set_rows(self, rows)
        _set_cols(self, cols)
        _set_num(self, num)
        _set_den(self, den)
        _set_data(self, None)

    @property
    def data(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as rows of Fractions."""
        if self._data is None:
            den = self.den
            _set_data(self, tuple(tuple(Fraction(x, den) for x in r) for r in self.num))
        return self._data

    def num_over(self, den: int) -> list[list[int]]:
        """Fresh integer rows of den times the matrix; den must be a multiple
        of self.den."""
        k = den // self.den
        if k == 1:
            return [list(r) for r in self.num]
        return [[x * k for x in r] for r in self.num]

    @classmethod
    def from_rows(cls, data) -> "Mat":
        data = [list(r) for r in data]
        rows = len(data)
        cols = len(data[0]) if rows else 0
        return cls(rows, cols, data)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Mat":
        # one row tuple shared by every row; a fresh Mat each call
        return cls._trusted(rows, cols, ((0,) * cols,) * rows)

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls._trusted(n, n, [[int(i == j) for j in range(n)] for i in range(n)])

    def _state(self):
        return self.rows, self.cols, self.num, self.den

    def __getitem__(self, rc):
        r, c = rc
        return Fraction(self.num[r][c], self.den)

    def is_zero(self) -> bool:
        return not any(map(any, self.num))

    def _transposed_num(self):
        return tuple(zip(*self.num)) if self.rows else ((),) * self.cols

    def transpose(self) -> "Mat":
        return Mat._trusted(self.cols, self.rows, self._transposed_num(), self.den)

    def __add__(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        num = [[x * a + y * b for x, y in zip(ra, rb)] for ra, rb in zip(self.num, other.num)]
        return Mat._trusted(self.rows, self.cols, num, den)

    def __sub__(self, other: "Mat") -> "Mat":
        return self + (-other)

    def __neg__(self) -> "Mat":
        return Mat._trusted(self.rows, self.cols, [[-x for x in row] for row in self.num], self.den)

    def scale(self, s) -> "Mat":
        if not isinstance(s, (int, Fraction)):
            s = Fraction(s)
        n = s.numerator
        num = [[n * x for x in row] for row in self.num]
        return Mat._trusted(self.rows, self.cols, num, self.den * s.denominator)

    def __mul__(self, other: "Mat") -> "Mat":
        if not isinstance(other, Mat):
            return self.scale(other)
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        ot = other._transposed_num()
        num = [[sum(map(mul, row, col)) for col in ot] for row in self.num]
        return Mat._trusted(self.rows, other.cols, num, self.den * other.den)

    def hstack(self, other: "Mat") -> "Mat":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        den = lcm(self.den, other.den)
        num = [a + b for a, b in zip(self.num_over(den), other.num_over(den))]
        return Mat._trusted(self.rows, self.cols + other.cols, num, den)

    def vstack(self, other: "Mat") -> "Mat":
        if self.cols != other.cols:
            raise ValueError("column mismatch in vstack")
        den = lcm(self.den, other.den)
        return Mat._trusted(self.rows + other.rows, self.cols, self.num_over(den) + other.num_over(den), den)

    def submatrix(self, row_range, col_range) -> "Mat":
        rows = list(row_range)
        cols = list(col_range)
        return Mat._trusted(len(rows), len(cols), [[self.num[r][c] for c in cols] for r in rows], self.den)

    def columns(self) -> list[tuple[Fraction, ...]]:
        return list(zip(*self.data)) if self.rows else [()] * self.cols

    def to_json(self) -> list[list[str]]:
        den = self.den
        if den == 1:
            return [[str(x) for x in row] for row in self.num]
        return [[_fraction_str(x, den) for x in row] for row in self.num]

    @classmethod
    def from_json(cls, obj, rows: int, cols: int) -> "Mat":
        """The matrix of rows of entries, each an int or a string that
        Fraction parses ("-3", "2/5"); floats are refused, since their binary
        value is seldom the decimal that was meant.  A matrix or row that is
        not a list (a string, an object) is refused, not iterated."""
        if type(obj) is not list or not all(type(row) is list for row in obj):
            raise TypeError("a matrix is an array of rows, each an array of entries")
        return cls(rows, cols, [[_parse_entry(x) for x in row] for row in obj])

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols})"


# the slot setters, cheaper than object.__setattr__ on the construction path
_set_rows, _set_cols, _set_num, _set_den, _set_data = (Mat.__dict__[k].__set__ for k in Mat.__slots__)


def _fraction_str(x: int, den: int) -> str:
    # str(Fraction(x, den)) without building the Fraction
    g = gcd(x, den)
    return str(x // g) if g == den else f"{x // g}/{den // g}"


def _parse_entry(x) -> int | Fraction:
    if type(x) is int:
        return x
    if not isinstance(x, str):
        raise TypeError(f"matrix entries must be strings or integers, got {x!r}")
    if x.isascii() and (x[1:] if x[:1] == "-" else x).isdigit():
        return int(x)  # an optional "-" and ASCII digits: what Fraction reads, faster
    try:
        return Fraction(x)
    except ZeroDivisionError as exc:
        raise ValueError(f"matrix entry {x!r} has a zero denominator") from exc


def _eliminate(row: list[int], prow: list[int], pc: int, nonzero: list[int]) -> list[int]:
    """Fraction-free row operation that zeroes column pc of row, with
    p = prow[pc] and m = row[pc].  A unit pivot (p = +-1) subtracts m p prow
    and stops; otherwise the row becomes (p/g) row - (m/g) prow with
    g = gcd(p, m) and is divided by the gcd of its entries.  nonzero lists
    the columns where prow is non-zero."""
    p, m = prow[pc], row[pc]
    if p == 1 or p == -1:
        m *= p
        for j in nonzero:
            row[j] -= prow[j] * m
        return row
    g = gcd(p, m)
    a, b = p // g, m // g
    if a != 1:
        row = [x * a for x in row]
    for j in nonzero:
        row[j] -= prow[j] * b
    g = gcd(*row)
    if g > 1:
        row = [x // g for x in row]
    return row


def _echelon_steps(rows: list[list[int]], ncols: int, pivots: list[int], supports: list[list[int]]):
    """The fraction-free row echelon of rows, in place, one column at a
    time; yields each non-pivot column as it passes it, in increasing order.

    Each pivot is appended to pivots, and the columns where its row is
    non-zero, from the pivot on, to supports; pivot row r is rows[r], and no
    later step changes it.  So once a column has been yielded, every pivot
    row before it is final, and the elimination may be resumed or left."""
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        best = -1
        best_mag = None
        for i in range(r, nrows):
            v = rows[i][c]
            if v:
                mag = abs(v)
                if best_mag is None or mag < best_mag:
                    best, best_mag = i, mag
                    if mag == 1:
                        break
        if best < 0:
            yield c
            continue
        rows[r], rows[best] = rows[best], rows[r]
        prow = rows[r]
        nonzero = [j for j in range(c, ncols) if prow[j]]
        for i in range(r + 1, nrows):
            if rows[i][c]:
                rows[i] = _eliminate(rows[i], prow, c, nonzero)
        pivots.append(c)
        supports.append(nonzero)
        r += 1
        if r == nrows:
            yield from range(c + 1, ncols)
            return


def _echelon(
    rows: list[list[int]], ncols: int
) -> tuple[list[list[int]], list[int], list[list[int]], list[int]]:
    """`_echelon_steps` run to the end; returns (rows, pivot columns,
    supports, non-pivot columns)."""
    pivots: list[int] = []
    supports: list[list[int]] = []
    free = list(_echelon_steps(rows, ncols, pivots, supports))
    return rows, pivots, supports, free


def rank(M: Mat) -> int:
    """Exact rank."""
    if M.rows == 0 or M.cols == 0:
        return 0
    return len(_echelon([list(r) for r in M.num], M.cols)[1])


def _back_substitute(
    rows: list[list[int]], pivots: list[int], supports: list[list[int]], ncols: int, cols
) -> tuple[list[list[int]], int]:
    """The solutions x of an echelon form (`_echelon`) with x_c = 1 at a
    non-pivot column c and x = 0 at every other non-pivot column, one for
    each c in cols; returns them as integer vectors over one denominator.

    Pivot rows are taken bottom up, and x_pc = -(sum of row[j] x_j over
    j > pc) / row[pc].  Each vector is kept as integers over a running
    denominator, multiplied up only when a pivot does not divide its sum;
    the vectors are brought to the lcm of their denominators at the end."""
    order = range(len(pivots) - 1, -1, -1)
    vecs, dens = [], []
    for c in cols:
        x = [0] * ncols
        x[c] = 1
        d = 1
        for r in order:
            row = rows[r]
            s = 0
            for j in supports[r]:
                v = x[j]
                if v:
                    s += row[j] * v
            if s:
                p = row[pivots[r]]
                if s % p:
                    k = abs(p) // gcd(s, p)
                    x = [v * k for v in x]
                    d *= k
                    s *= k
                x[pivots[r]] = -(s // p)
        vecs.append(x)
        dens.append(d)
    den = lcm(*dens)
    if den != 1:
        vecs = [x if d == den else [v * (den // d) for v in x] for x, d in zip(vecs, dens)]
    return vecs, den


def _columns(nrows: int, vecs: list[list[int]], den: int) -> Mat:
    """The matrix with the given integer columns over den."""
    return Mat._trusted(nrows, len(vecs), zip(*vecs) if vecs else [()] * nrows, den)


def _kernel_vectors(rows: list[list[int]], ncols: int) -> tuple[list[list[int]], int]:
    """A basis of the null space of the integer matrix with the given rows
    (which are consumed), as integer vectors over one denominator.

    One vector per free column f of the echelon form, in increasing order:
    x_f = 1, every other free coordinate 0, and the pivot coordinates
    back-substituted (`_back_substitute`)."""
    rows, pivots, supports, free = _echelon(rows, ncols)
    return _back_substitute(rows, pivots, supports, ncols, free)


def int_kernel(rows: list[list[int]], ncols: int) -> Mat:
    """Matrix whose columns form a basis of the null space of the integer
    matrix with the given rows (which are consumed): the vectors of
    `_kernel_vectors` as columns."""
    return _reduced_kernel(rows, ncols)[0]


def _reduced_kernel(rows: list[list[int]], ncols: int) -> tuple[Mat, list[int]]:
    """`int_kernel` and the free columns of the echelon form, in increasing
    order: the basis is the identity at those rows (row free[k] is the k-th
    unit vector), so the coordinates of a vector of its span are its entries
    there."""
    rows, pivots, supports, free = _echelon(rows, ncols)
    return _columns(ncols, *_back_substitute(rows, pivots, supports, ncols, free)), free


def kernel_basis(M: Mat) -> Mat:
    """Matrix whose columns form a basis of the null space of M."""
    return int_kernel([list(r) for r in M.num], M.cols)


def cokernel_projection(M: Mat) -> Mat:
    """A surjection from the codomain of M onto a complement of its column space.

    The result P has full row rank rows(M) - rank(M) and satisfies P M = 0.
    """
    return kernel_basis(M.transpose()).transpose()


class Solution(Frozen):
    """Affine description of all solutions of A X = B.

    Every solution is ``particular + homogeneous * C`` for an arbitrary
    coefficient matrix C.  ``homogeneous`` has a column per free parameter.
    """

    __slots__ = ("particular", "homogeneous")

    def __init__(self, particular: Mat, homogeneous: Mat):
        _set_slots(self, particular, homogeneous)

    @property
    def is_unique(self) -> bool:
        return self.homogeneous.cols == 0


def solve_all(A: Mat, B: Mat) -> Solution:
    """Full solution space of A X = B; raises NoSolution if inconsistent.

    One echelon form of the augmented rows [A | B], then one
    back-substitution for the columns of B (the particular solution, with
    every free coordinate 0) and the free columns of A (the homogeneous
    part, as in `int_kernel`)."""
    if A.rows != B.rows:
        raise ValueError("incompatible shapes")
    n, p = A.cols, B.cols
    den = lcm(A.den, B.den)
    rows = [a + b for a, b in zip(A.num_over(den), B.num_over(den))]
    rows, pivots, supports, free = _echelon(rows, n + p)
    if pivots and pivots[-1] >= n:
        raise NoSolution("system is inconsistent")
    # the right-hand side k is column n + k of the augmented system, so the
    # vector with x_{n+k} = 1 there is minus a particular solution
    free = [c for c in free if c < n]
    vecs, den = _back_substitute(rows, pivots, supports, n + p, chain(range(n, n + p), free))
    particular = _columns(n, [[-v for v in x[:n]] for x in vecs[:p]], den)
    return Solution(particular, _columns(n, [x[:n] for x in vecs[p:]], den))


def charpoly(M: list[list[int]]) -> list[int]:
    """Coefficients of det(xI - M), highest degree first, for a square integer
    matrix M, by Berkowitz's division-free algorithm (integers only)."""
    n = len(M)
    poly = [1]
    for k in range(n - 1, -1, -1):
        # poly is the characteristic polynomial of M[k+1:, k+1:]; extend it to
        # M[k:, k:] with the Toeplitz column 1, -a, -R C, -R S C, -R S^2 C, ...
        sub = [row[k + 1 :] for row in M[k + 1 :]]
        R = M[k][k + 1 :]
        v = [M[i][k] for i in range(k + 1, n)]
        t = [1, -M[k][k]]
        for _ in range(n - k - 1):
            t.append(-sum(map(mul, R, v)))
            v = [sum(map(mul, row, v)) for row in sub]
        poly = [
            sum(t[i - j] * poly[j] for j in range(max(0, i - len(t) + 1), min(i + 1, len(poly))))
            for i in range(len(poly) + 1)
        ]
    return poly


def _primitive(p: list[int]) -> list[int]:
    g = gcd(*p) if p[0] > 0 else -gcd(*p)
    return [c // g for c in p]


def _poly_gcd(a: list[int], b: list[int]) -> list[int]:
    # primitive polynomial remainder sequence over the integers
    a, b = _primitive(a), _primitive(b)
    while len(b) > 1:
        r = list(a)
        while len(r) >= len(b):
            lead = r[0]
            r = [c * b[0] for c in r]
            for i in range(1, len(b)):
                r[i] -= lead * b[i]
            r.pop(0)
            while r and not r[0]:
                r.pop(0)
        if not r:
            return b
        a, b = b, _primitive(r)
    return [1]


def _divide_monic(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by the monic integer polynomial b."""
    r = list(a)
    q = []
    for i in range(len(a) - len(b) + 1):
        c = r[i]
        q.append(c)
        if c:
            for j in range(1, len(b)):
                r[i + j] -= c * b[j]
    return q, r[len(q) :]


def _eval(p: list[int], x: int, mod: int = 0) -> int:
    acc = 0
    for c in p:
        acc = acc * x + c
        if mod:
            acc %= mod
    return acc


def integer_roots(p: list[int]) -> tuple[list[tuple[int, int]], list[int]]:
    """Integer roots of a monic integer polynomial (highest degree first).

    Returns the roots in increasing order with their multiplicities, and the
    cofactor: p divided by the product of (x - mu)^e over those roots.

    The roots are those of the square-free part s = p / gcd(p, p'), all
    simple and at most B = 1 + max |s_i| in size.  They are found modulo the
    first prime at which every root of s is simple, lifted by Newton's
    iteration (Hensel's lemma) to a modulus above 2B and checked exactly.
    Listing the divisors of the constant term instead is hopeless: after
    scaling by a common denominator it has dozens of digits."""
    deg = len(p) - 1
    s, _ = _divide_monic(p, _poly_gcd(p, [c * (deg - i) for i, c in enumerate(p[:-1])])) if deg else (p, None)
    ds = [c * (len(s) - 1 - i) for i, c in enumerate(s[:-1])]
    bound = 1 + max(map(abs, s[1:]), default=0)
    for prime in (q for q in count(2) if all(q % r for r in range(2, q))):
        residues = [r for r in range(prime) if not _eval(s, r, prime)]
        if all(_eval(ds, r, prime) for r in residues):
            break
    roots = []
    for r in residues:
        mod = prime
        while mod <= 2 * bound:
            mod *= mod
            r = (r - _eval(s, r, mod) * pow(_eval(ds, r, mod), -1, mod)) % mod
        mu = r if 2 * r <= mod else r - mod
        if _eval(s, mu):
            continue
        e = 0
        q, rem = _divide_monic(p, [1, -mu])
        while not rem[0]:
            p, e = q, e + 1
            q, rem = _divide_monic(p, [1, -mu])
        roots.append((mu, e))
    return sorted(roots), p
