import random
from fractions import Fraction
from math import gcd

import pytest

from coxrep import (
    Mat,
    NoSolution,
    cokernel_projection,
    direct_sum,
    enumerate_indecomposables,
    kernel_basis,
    rank,
    solve_all,
)
from coxrep import linalg as linalg_mod
from coxrep.linalg import _parse_entry, _reduced_kernel, charpoly, int_kernel, integer_roots
from coxrep.reps import _hom_rows
from families import family_quiver
from test_reps import scrambled


def random_mat(rng, rows, cols, density=0.7):
    return Mat(
        rows,
        cols,
        [
            [
                Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                if rng.random() < density
                else 0
                for _ in range(cols)
            ]
            for _ in range(rows)
        ],
    )


def test_rank_golden():
    assert rank(Mat.identity(3)) == 3
    assert rank(Mat.zeros(2, 5)) == 0
    assert rank(Mat.from_rows([[1, 2], [2, 4]])) == 1


def test_rank_empty():
    assert rank(Mat.zeros(0, 4)) == 0
    assert rank(Mat.zeros(4, 0)) == 0
    assert rank(Mat.zeros(0, 0)) == 0


def test_kernel_golden():
    assert kernel_basis(Mat.identity(4)).cols == 0
    k = kernel_basis(Mat.from_rows([[1, 1]]))
    assert k.cols == 1
    assert k.data[0][0] == -k.data[1][0] != 0
    assert kernel_basis(Mat.zeros(3, 5)) == Mat.identity(5)


def test_kernel_of_empty_domain():
    assert kernel_basis(Mat.zeros(3, 0)) == Mat.zeros(0, 0)


def test_cokernel_golden():
    # surjective map has empty cokernel projection
    assert cokernel_projection(Mat.identity(3)).rows == 0
    assert cokernel_projection(Mat.zeros(4, 2)) == Mat.identity(4)
    p = cokernel_projection(Mat.from_rows([[1], [1]]))
    assert p.rows == 1 and p.cols == 2
    assert (p * Mat.from_rows([[1], [1]])).is_zero()


def test_solve_identity():
    b = Mat.from_rows([[2], [3]])
    sol = solve_all(Mat.identity(2), b)
    assert sol.particular == b
    assert sol.is_unique


def test_solve_inconsistent():
    A = Mat.from_rows([[1, 1], [1, 1]])
    B = Mat.from_rows([[1], [2]])
    with pytest.raises(NoSolution):
        solve_all(A, B)


def test_solve_underdetermined():
    A = Mat.from_rows([[1, 1, 0]])
    B = Mat.from_rows([[5]])
    sol = solve_all(A, B)
    assert (A * sol.particular) == B
    assert sol.homogeneous.cols == 2
    assert (A * sol.homogeneous).is_zero()


def test_solve_no_constraints():
    sol = solve_all(Mat.zeros(0, 3), Mat.zeros(0, 2))
    assert sol.particular == Mat.zeros(3, 2)
    assert sol.homogeneous == Mat.identity(3)


def test_kernel_and_rank_properties():
    rng = random.Random(5)
    for _ in range(40):
        M = random_mat(rng, rng.randint(0, 6), rng.randint(0, 6))
        r = rank(M)
        K = kernel_basis(M)
        assert (M * K).is_zero()
        assert K.cols == M.cols - r
        assert rank(K) == K.cols
        P = cokernel_projection(M)
        assert (P * M).is_zero()
        assert P.rows == M.rows - r
        assert rank(P) == P.rows
        assert rank(M.transpose()) == r


def test_solve_round_trip_random():
    rng = random.Random(9)
    for _ in range(30):
        n, m, p = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 3)
        A = random_mat(rng, n, m)
        X = random_mat(rng, m, p)
        B = A * X
        sol = solve_all(A, B)
        assert A * sol.particular == B
        assert (A * sol.homogeneous).is_zero()
        assert sol.homogeneous.cols == m - rank(A)


def test_fraction_entries_exact():
    A = Mat.from_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]])
    assert rank(A) == 1
    K = kernel_basis(A)
    assert (A * K).is_zero()


def reference_rref(rows, ncols):
    """Textbook Gauss-Jordan over Fractions: (reduced rows, pivot columns)."""
    rows = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def reference_kernel(rows, ncols):
    rows, pivots = reference_rref(rows, ncols)
    vecs = []
    for f in (c for c in range(ncols) if c not in pivots):
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for row, pc in zip(rows, pivots):
            x[pc] = -row[f]
        vecs.append(x)
    return vecs


def rank_deficient_mat(rng, rows, cols):
    M = random_mat(rng, rows, cols, density=rng.choice([0.3, 0.6, 0.9]))
    data = [list(r) for r in M.data]
    if rows >= 3:
        data[-1] = [2 * a - b for a, b in zip(data[0], data[1])]
    return Mat(rows, cols, data)


def long_chain_mat(rng):
    """A sparse integer matrix of 20-40 rows whose kernel vectors run
    through every pivot: a band with x_i tied to x_{i+1}, pivots drawn from
    units and non-units (so the denominators grow as an lcm), a few entries
    further right, one dependent row, and the rows shuffled."""
    rows = rng.randint(20, 40)
    cols = rows + rng.randint(1, 4)
    data = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        data[i][i] = rng.choice([1, -1, 2, -3, 5])
        data[i][i + 1] = rng.choice([-2, 1, 3, 7])
        for _ in range(rng.randint(0, 2)):
            data[i][rng.randrange(i + 1, cols)] = rng.randint(-4, 4)
    data[-1] = [2 * a - b for a, b in zip(data[0], data[1])]
    rng.shuffle(data)
    return Mat(rows, cols, data)


def scrambled_d4_end_rows():
    """The End system of a scrambled sum of the four largest D4
    indecomposables: 50 rows and 59 unknowns."""
    reps = sorted(enumerate_indecomposables(family_quiver("D4")), key=lambda W: -W.total_dim())
    V = reps[0]
    for W in reps[1:4]:
        V = direct_sum(V, W)
    V = scrambled(V, random.Random("end:D4"))
    rows, _, n_unknowns = _hom_rows(V, V)
    return Mat(len(rows), n_unknowns, rows)


def long_inputs(rng):
    return [long_chain_mat(rng) for _ in range(6)] + [scrambled_d4_end_rows()]


def test_kernel_basis_matches_gauss_jordan_reference():
    rng = random.Random(11)
    mats = [rank_deficient_mat(rng, rng.randint(0, 6), rng.randint(0, 7)) for _ in range(60)]
    for M in mats + long_inputs(rng):
        K = kernel_basis(M)
        assert K.columns() == [tuple(v) for v in reference_kernel(M.data, M.cols)]
        pivots = reference_rref(M.data, M.cols)[1]
        free = [c for c in range(M.cols) if c not in pivots]
        for k, col in enumerate(K.columns()):
            assert all(sum(a * x for a, x in zip(row, col)) == 0 for row in M.data)
            assert [col[f] for f in free] == [int(j == k) for j in range(len(free))]


def test_int_kernel_agrees_with_kernel_basis():
    rng = random.Random(12)
    for _ in range(30):
        rows, cols = rng.randint(0, 5), rng.randint(0, 6)
        data = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        assert int_kernel([list(r) for r in data], cols) == kernel_basis(Mat(rows, cols, data))


def test_solve_all_matches_gauss_jordan_reference():
    rng = random.Random(13)
    systems = []
    for _ in range(60):
        A = rank_deficient_mat(rng, rng.randint(1, 6), rng.randint(1, 6))
        systems.append((A, A * random_mat(rng, A.cols, rng.randint(1, 3))))
    systems += [(A, A * random_mat(rng, A.cols, rng.randint(1, 3))) for A in long_inputs(rng)]
    for A, B in systems:
        p = B.cols
        sol = solve_all(A, B)
        assert A * sol.particular == B
        rows, pivots = reference_rref([a + b for a, b in zip(A.data, B.data)], A.cols + p)
        expected = [[Fraction(0)] * p for _ in range(A.cols)]
        for row, pc in zip(rows, pivots):
            expected[pc] = row[A.cols :]
        assert [list(r) for r in sol.particular.data] == expected
        assert sol.homogeneous == kernel_basis(A)


def reference_det(M):
    M = [[Fraction(x) for x in row] for row in M]
    det = Fraction(1)
    for c in range(len(M)):
        p = next((i for i in range(c, len(M)) if M[i][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            M[c], M[p] = M[p], M[c]
            det = -det
        det *= M[c][c]
        for i in range(c + 1, len(M)):
            f = M[i][c] / M[c][c]
            M[i] = [x - f * y for x, y in zip(M[i], M[c])]
    return det


def unimodular(rng, d):
    lower = [[1 if i == j else (rng.randint(-2, 2) if j < i else 0) for j in range(d)] for i in range(d)]
    upper = [[1 if i == j else (rng.randint(-2, 2) if j > i else 0) for j in range(d)] for i in range(d)]
    return int_matmul(lower, upper)


def int_matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_charpoly_is_det_of_t_minus_m():
    rng = random.Random(21)
    for n in [0, 1, 2, 3, 4, 5, 6] * 3:
        M = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        poly = charpoly(M)
        assert len(poly) == n + 1 and poly[0] == 1
        for t in range(-1, n):
            value = 0
            for c in poly:
                value = value * t + c
            tm = [[(t if i == j else 0) - M[i][j] for j in range(n)] for i in range(n)]
            assert value == reference_det(tm)


def test_charpoly_invariant_under_unimodular_conjugation():
    rng = random.Random(22)
    for n in range(1, 7):
        M = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        P = unimodular(rng, n)
        P_inv = [[int(x) for x in row] for row in solve_all(Mat(n, n, P), Mat.identity(n)).particular.data]
        assert int_matmul(P, P_inv) == [[int(i == j) for j in range(n)] for i in range(n)]
        assert charpoly(int_matmul(int_matmul(P, M), P_inv)) == charpoly(M)


def poly_from_roots(roots, cofactor=(1,)):
    poly = list(cofactor)
    for mu, e in roots:
        for _ in range(e):
            poly = [a - mu * b for a, b in zip(poly + [0], [0] + poly)]
    return poly


@pytest.mark.parametrize(
    "roots, cofactor",
    [
        ([], [1]),
        ([(0, 1)], [1]),
        ([(-2, 1), (0, 2), (3, 2)], [1, 0, 1]),
        ([(-7, 3), (-1, 1), (5, 1)], [1]),
        ([(-(10**15) - 7, 1), (6, 2), (10**12, 2)], [1, 0, -2]),
        ([], [1, 1, 1]),
        ([(1, 4)], [1, 0, 3, 1]),
    ],
)
def test_integer_roots(roots, cofactor):
    found, rest = integer_roots(poly_from_roots(roots, cofactor))
    assert found == sorted(roots)
    assert rest == cofactor


def test_integer_roots_of_scaled_rational_eigenvalues():
    # f = diag(1/2, 1/2, -2/3, 0); D = 6 makes g = D f integral, roots mu = D lambda
    f = [[Fraction(1, 2), 0, 0, 0], [0, Fraction(1, 2), 0, 0], [0, 0, Fraction(-2, 3), 0], [0, 0, 0, 0]]
    g = [[int(6 * x) for x in row] for row in f]
    assert integer_roots(charpoly(g)) == ([(-4, 1), (0, 1), (3, 2)], [1])


# --- the integer core: Mat against plain lists of Fractions -----------------

SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 3), (3, 2), (4, 4)]


def random_rational_rows(rng, rows, cols):
    # mixed denominators, zeros and some integers, so den is often > 1 and
    # sometimes cancels
    return [
        [Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 4, 6, 9])) for _ in range(cols)]
        for _ in range(rows)
    ]


def ref_mul(a, b, inner, cols):
    return [[sum((r[k] * b[k][c] for k in range(inner)), Fraction(0)) for c in range(cols)] for r in a]


def assert_lowest_terms(M):
    assert M.den > 0 and type(M.den) is int
    assert all(type(x) is int for row in M.num for x in row)
    assert gcd(M.den, *(x for row in M.num for x in row)) == 1
    assert len(M.num) == M.rows and all(len(row) == M.cols for row in M.num)


def assert_equals_rows(M, rows, cols):
    assert (M.rows, M.cols) == (len(rows), cols)
    assert [list(r) for r in M.data] == rows
    assert all(type(x) is Fraction for row in M.data for x in row)
    assert all(M[r, c] == rows[r][c] and type(M[r, c]) is Fraction for r in range(M.rows) for c in range(cols))
    assert M.columns() == [tuple(row[c] for row in rows) for c in range(cols)]
    assert M.to_json() == [[str(x) for x in row] for row in rows]
    assert M.is_zero() == all(x == 0 for row in rows for x in row)
    assert_lowest_terms(M)


@pytest.mark.parametrize("shape", SHAPES, ids=[f"{r}x{c}" for r, c in SHAPES])
def test_integer_core_matches_fraction_lists(shape):
    rows, cols = shape
    rng = random.Random(f"core:{rows}x{cols}")
    for _ in range(25):
        a, b = random_rational_rows(rng, rows, cols), random_rational_rows(rng, rows, cols)
        A, B = Mat(rows, cols, a), Mat(rows, cols, b)
        assert_equals_rows(A, a, cols)
        assert_equals_rows(A + B, [[x + y for x, y in zip(p, q)] for p, q in zip(a, b)], cols)
        assert_equals_rows(A - B, [[x - y for x, y in zip(p, q)] for p, q in zip(a, b)], cols)
        assert_equals_rows(-A, [[-x for x in p] for p in a], cols)
        s = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        assert_equals_rows(A.scale(s), [[s * x for x in p] for p in a], cols)
        assert_equals_rows(A * s, [[s * x for x in p] for p in a], cols)
        assert_equals_rows(A.scale(0), [[Fraction(0)] * cols for _ in range(rows)], cols)
        t = [[a[r][c] for r in range(rows)] for c in range(cols)]
        assert_equals_rows(A.transpose(), t, rows)
        for inner in (0, 1, 3):
            c = random_rational_rows(rng, cols, inner)
            assert_equals_rows(A * Mat(cols, inner, c), ref_mul(a, c, cols, inner), inner)
        back = Mat.from_json(A.to_json(), rows, cols)
        assert back == A and hash(back) == hash(A)
        assert_equals_rows(back, a, cols)


def test_equal_values_built_by_different_routes_are_equal():
    half = Mat(1, 1, [[Fraction(2, 4)]])
    routes = [
        Mat._trusted(1, 1, [[1]], 2),
        Mat._trusted(1, 1, [[3]], 6),
        Mat._trusted(1, 1, [[-5]], 10).scale(-1),
        Mat(1, 1, [["1/2"]]),
        Mat(1, 1, [[0.5]]),
        Mat.from_json([["2/4"]], 1, 1),
        Mat.identity(1).scale(Fraction(1, 2)),
        Mat(1, 1, [[1]]) * Mat(1, 1, [[Fraction(1, 2)]]),
        Mat(1, 1, [[Fraction(1, 3)]]) + Mat(1, 1, [[Fraction(1, 6)]]),
    ]
    for M in routes:
        assert (M.num, M.den) == (((1,),), 2)
        assert M == half and hash(M) == hash(half)
    zeros = [Mat.zeros(2, 3), Mat._trusted(2, 3, [[0] * 3] * 2, 7), Mat(2, 3, [[Fraction(0, 5)] * 3] * 2)]
    assert all(M.den == 1 and M == zeros[0] and hash(M) == hash(zeros[0]) for M in zeros)
    assert len({Mat.zeros(0, 3), Mat._trusted(0, 3, [], 5)}) == 1
    assert Mat.zeros(0, 3) != Mat.zeros(3, 0)
    assert Mat(1, 1, [[Fraction(1, 2)]]) != Mat(1, 1, [[Fraction(1, 3)]])


def test_trusted_constructor_keeps_the_shape_check():
    with pytest.raises(ValueError):
        Mat._trusted(2, 2, [[1, 2]], 1)
    with pytest.raises(ValueError):
        Mat._trusted(1, 2, [[1, 2, 3]], 3)
    with pytest.raises(ValueError):
        Mat(1, 1, [[1, 2]])


@pytest.mark.parametrize("entry", [1.5, 0.1, True, None, [1]])
def test_from_json_accepts_only_strings_and_integers(entry):
    with pytest.raises(TypeError):
        Mat.from_json([[entry]], 1, 1)


@pytest.mark.parametrize(
    "obj", ["12", ["1", "2"], [{"1": 1}, ["2"]], {"0": ["1"], "1": ["2"]}, [("1",), ("2",)], [[1], "2"]]
)
def test_from_json_accepts_only_an_array_of_arrays(obj):
    # each of these iterates to the entries of a 2x1 matrix
    with pytest.raises(TypeError):
        Mat.from_json(obj, 2, 1)


def test_from_json_rejects_a_zero_denominator():
    with pytest.raises(ValueError):
        Mat.from_json([["1/0"]], 1, 1)


def test_from_json_reads_integers_and_fraction_strings():
    M = Mat.from_json([[3, "-2/6"], ["0", "4/2"]], 2, 2)
    assert M.data == ((3, Fraction(-1, 3)), (0, 2))
    assert M.to_json() == [["3", "-1/3"], ["0", "2"]]


def fraction_entry(x):
    """How an entry string was parsed before plain integers took `int`."""
    try:
        return Fraction(x)
    except ZeroDivisionError as exc:
        raise ValueError(f"matrix entry {x!r} has a zero denominator") from exc


@pytest.mark.parametrize(
    "x", ["--3", "-", "", "+3", " 3", "3 ", "1_0", "\u0663", "\u00b2", "007", "-0", "-12", "1e3", "1/2", "1/0"]
)
def test_parse_entry_agrees_with_fraction(x):
    # "--3" would reach int through lstrip("-"), and "\u0663" (Arabic-Indic
    # three) and "\u00b2" pass str.isdigit; only "-"? and ASCII digits take int
    try:
        expected = fraction_entry(x)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)) as got:
            _parse_entry(x)
        assert str(got.value) == str(exc)
    else:
        got = _parse_entry(x)
        assert got == expected
        assert type(got) is (int if x.isascii() and x.removeprefix("-").isdigit() else Fraction)


def test_parse_entry_bounds_the_exponent(monkeypatch):
    # Fraction("1e-99999999") would first build 10**99999999: an exponent
    # above the digit limit of a plain integer entry is refused before any
    # Fraction is built, as the 5001-digit integer itself is
    for x in ("1e-5000", "1e5000", "1E+4301", "2.5e-4_301", "-1e00000004301", "1e-99999999", "1e" + "9" * 5000):
        monkeypatch.setattr(linalg_mod, "Fraction", None)
        with pytest.raises(ValueError, match="exponent above 4300"):
            _parse_entry(x)
        monkeypatch.undo()
        with pytest.raises(ValueError):
            Mat.from_json([[x]], 1, 1)
    with pytest.raises(ValueError):
        _parse_entry("1" * 5001)
    assert _parse_entry("1e400") == 10**400
    # at the exponent bound, a numerator or denominator of 4301 digits could
    # not be written back by str(): refused, and 4300 digits are taken
    for x in ("1e-4300", "-1e004300", "99e4299", "9.9e4300"):
        with pytest.raises(ValueError, match="more than 4300 digits"):
            _parse_entry(x)
    assert _parse_entry("1e-4299") == Fraction(1, 10**4299)
    assert _parse_entry("-1e004299") == -(10**4299)
    assert _parse_entry("2/5") == Fraction(2, 5)
    assert _parse_entry("1.5") == Fraction(3, 2)
    # a plain digit string still takes int
    assert [(_parse_entry(x), type(_parse_entry(x))) for x in ("-3", "42", "0")] == [(-3, int), (42, int), (0, int)]


def test_reduced_kernel_is_the_identity_at_its_free_rows():
    rng = random.Random("reduced")
    for _ in range(40):
        rows, cols = rng.randint(0, 5), rng.randint(0, 7)
        M = [[rng.randint(-3, 3) if rng.random() < 0.6 else 0 for _ in range(cols)] for _ in range(rows)]
        A = Mat(rows, cols, M)
        B, free = _reduced_kernel([list(r) for r in M], cols)
        assert (A * B).is_zero() and B.cols == cols - rank(A)
        assert len(free) == B.cols and free == sorted(free)
        assert B.submatrix(free, range(B.cols)) == Mat.identity(B.cols)
