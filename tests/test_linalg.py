from __future__ import annotations

from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphdesign.catalog import catalog
from sphdesign.linalg import (
    GramMatrix,
    LinalgError,
    PivotError,
    invert,
    ldlt,
    psd_rank,
)

from conftest import (
    gauss_jordan_inverse,
    matmul,
    quadratic_form,
    reference_ldlt,
)


def test_from_rows_symmetrizes_nothing_but_validates():
    with pytest.raises(LinalgError):
        GramMatrix.from_rows([[1, 2], [3, 1]])
    with pytest.raises(LinalgError):
        GramMatrix.from_rows([[1, 2, 3], [2, 1, 0]])


def test_constructor_rejects_non_minimal_scale():
    # (2, [[2, 4], [4, 6]]) is G = [[1, 2], [2, 3]], whose scale is 1
    with pytest.raises(LinalgError, match="scale 2 is not minimal"):
        GramMatrix(2, ((2, 4), (4, 6)))
    assert GramMatrix(2, ((2, 1), (1, 6)))[0, 1] == F(1, 2)
    for scale in (0, -1):
        with pytest.raises(LinalgError, match="positive"):
            GramMatrix(scale, ((1,),))


def test_constructor_rejects_non_symmetric_and_non_int():
    with pytest.raises(LinalgError, match="not symmetric at \\(1,0\\)"):
        GramMatrix(1, ((1, 2), (3, 1)))
    with pytest.raises(LinalgError, match="int"):
        GramMatrix(1, ((F(1), 0), (0, 1)))


def test_from_rows_rejects_float():
    with pytest.raises(TypeError, match="float"):
        GramMatrix.from_rows([[1.0, 0], [0, 1]])


def test_identity_and_indexing():
    g = GramMatrix.identity(3)
    assert g.n == 3
    assert g[0, 0] == F(1)
    assert g[0, 1] == F(0)
    assert g.scale == 1
    assert g.entries[2] == (0, 0, 1)


def test_quadratic_form_exact():
    g = GramMatrix.from_rows([[2, -1], [-1, 2]])
    assert quadratic_form(g, [1, 0]) == F(2)
    assert quadratic_form(g, [1, 1]) == F(2)
    assert quadratic_form(g, [2, 1]) == F(6)


def test_integer_entries_scale():
    g = GramMatrix.from_rows([[F(4, 3), F(-2, 3)], [F(-2, 3), F(4, 3)]])
    assert g.scale == 3
    assert g.entries == ((4, -2), (-2, 4))
    assert g[0, 1] == F(-2, 3)


def rational_factors(pivots, lam):
    """(L, D) in the reference's form, from the integer pivots p and
    multipliers lam: L[i][k] = lam[i][k] / p[k], D[k] = p[k] / p[k - 1]."""
    n = len(pivots)
    L = [[F(int(i == k)) for k in range(n)] for i in range(n)]
    for i in range(n):
        for k in range(i):
            L[i][k] = F(lam[i][k], pivots[k])
    D = tuple(F(p, q) for p, q in zip(pivots, [1, *pivots]))
    return tuple(tuple(row) for row in L), D


def rebuild(L, D):
    n = len(D)
    return [[sum(L[i][k] * D[k] * L[j][k] for k in range(n))
             for j in range(n)] for i in range(n)]


def test_ldlt_reconstructs():
    a = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    pivots, lam = ldlt(a)
    assert pivots == [2, 3, 4]          # leading principal minors
    assert rebuild(*rational_factors(pivots, lam)) == a
    # only the lower triangle is read
    assert ldlt([row[:i + 1] for i, row in enumerate(a)]) == (pivots, lam)


def test_ldlt_indefinite_has_negative_pivot():
    # the second pivot, the leading minor 1 - 4 = -3, is refused
    assert reference_ldlt([[1, 2], [2, 1]])[1] == (F(1), F(-3))
    with pytest.raises(PivotError, match="not positive definite"):
        ldlt([[1, 2], [2, 1]])


def test_ldlt_zero_pivot_nonzero_column_raises():
    with pytest.raises(PivotError, match="not positive definite"):
        ldlt([[0, 1], [1, 0]])


def test_ldlt_psd_singular():
    # rank-1 PSD: its zero pivot is refused like any pivot <= 0
    assert reference_ldlt([[1, 1], [1, 1]])[1] == (F(1), F(0))
    with pytest.raises(PivotError, match="not positive definite"):
        ldlt([[1, 1], [1, 1]])


def test_psd_rank_cases():
    assert psd_rank(GramMatrix.identity(4).entries) == 4
    assert psd_rank([[1, 1], [1, 1]]) == 1
    assert psd_rank([[0, 0], [0, 0]]) == 0
    # a zero row between kept ones
    assert psd_rank([[1, 0, 1], [0, 0, 0], [1, 0, 2]]) == 2
    assert psd_rank([]) == 0


def test_psd_rank_rejects_non_square_and_non_symmetric():
    with pytest.raises(LinalgError, match="not square"):
        psd_rank([[1, 2, 3], [2, 1, 0]])
    with pytest.raises(LinalgError, match="not square"):
        psd_rank([[1, 0], [0]])
    with pytest.raises(LinalgError, match="not symmetric at \\(1,0\\)"):
        psd_rank([[1, 2], [3, 1]])


def test_invert_roundtrip():
    g = GramMatrix.from_rows([[2, -1], [-1, 2]])
    gi = invert(g)
    prod = matmul([[g[i, j] for j in range(2)] for i in range(2)],
                  [[gi[i, j] for j in range(2)] for i in range(2)])
    assert [list(r) for r in prod] == [[F(1), F(0)], [F(0), F(1)]]
    assert gi[0, 0] == F(2, 3)


def test_invert_singular_raises():
    # a singular form is refused where it is built, before invert
    with pytest.raises(PivotError, match="not positive definite"):
        invert(GramMatrix.from_rows([[1, 1], [1, 1]]))


def test_is_positive_definite():
    # a GramMatrix is positive definite by construction, through
    # from_rows and the constructor alike
    assert GramMatrix.from_rows([[2, -1], [-1, 2]]).n == 2
    for rows in ([[1, 1], [1, 1]], [[-1]], [[0]], [[1, 2], [2, 1]]):
        with pytest.raises(PivotError,
                           match="^gram matrix is not positive definite$"):
            GramMatrix.from_rows(rows)
        with pytest.raises(PivotError):
            GramMatrix(1, tuple(map(tuple, rows)))


_entries = st.integers(min_value=-4, max_value=4)


@st.composite
def _psd_grams(draw, nmax=4, deficient=False):
    """Rows of B^T B, PSD for any integer B; with deficient, B has fewer
    rows than columns, so the rank is below n."""
    n = draw(st.integers(min_value=2 if deficient else 1, max_value=nmax))
    m = draw(st.integers(min_value=1,
                         max_value=n - 1 if deficient else nmax))
    b = [[draw(_entries) for _ in range(n)] for _ in range(m)]
    return [[sum(b[k][i] * b[k][j] for k in range(m)) for j in range(n)]
            for i in range(n)]


@st.composite
def _definite(draw, nmax=4):
    """Rows of B^T B + I over a denominator up to 6: positive definite."""
    a = draw(_psd_grams(nmax))
    den = draw(st.integers(min_value=1, max_value=6))
    return [[F(x + (i == j), den) for j, x in enumerate(row)]
            for i, row in enumerate(a)]


@st.composite
def _symmetric(draw, nmax=5, zero_diagonal=False):
    n = draw(st.integers(min_value=1, max_value=nmax))
    den = draw(st.integers(min_value=1, max_value=6))
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            if i == j and zero_diagonal:
                continue
            rows[i][j] = rows[j][i] = F(draw(_entries), den)
    return rows


def _scaled(rows) -> tuple[int, list[list[int]]]:
    """(c, c * rows) with c the lcm of the denominators of rows."""
    c = lcm(*(F(x).denominator for row in rows for x in row))
    return c, [[int(F(x) * c) for x in row] for row in rows]


def _sympy(rows):
    import sympy

    return sympy.Matrix([[sympy.Rational(F(x).numerator, F(x).denominator)
                          for x in row] for row in rows])


# a positive scale does not change the rank
_scales = st.sampled_from([1, 4, 2 ** 40])


def _scaled_rank(a, c):
    """psd_rank of a, asserted equal at scale c."""
    rank = psd_rank(a)
    assert psd_rank([[c * x for x in row] for row in a]) == rank
    return rank


@given(st.one_of(_psd_grams(), _psd_grams(nmax=5, deficient=True)), _scales)
@settings(max_examples=100, deadline=None)
def test_psd_rank_matches_sympy(a, c):
    # B^T B for random integer B, rank-deficient when B has fewer rows
    # than columns or dependent rows
    m = _sympy(a)
    assert m.is_positive_semidefinite
    assert _scaled_rank(a, c) == m.rank()


@given(_psd_grams())
@settings(max_examples=40, deadline=None)
def test_pd_shift_ldlt_positive_pivots(a):
    rows = [[x + (i == j) for j, x in enumerate(row)]
            for i, row in enumerate(a)]
    pivots, _ = ldlt(rows)
    assert all(x > 0 for x in pivots)
    assert GramMatrix.from_rows(rows).entries == tuple(map(tuple, rows))


@given(st.one_of(_symmetric(), _symmetric(zero_diagonal=True),
                 _psd_grams(nmax=5, deficient=True), _definite(nmax=5)))
@settings(max_examples=200, deadline=None)
def test_from_rows_succeeds_exactly_when_positive_definite(rows):
    # mostly indefinite or PSD-singular: GramMatrix.from_rows and the
    # constructor on the scaled rows refuse exactly what sympy does not
    # call positive definite
    definite = _sympy(rows).is_positive_definite
    c, a = _scaled(rows)
    if definite:
        g = GramMatrix.from_rows(rows)
        assert (g.scale, g.entries) == (c, tuple(map(tuple, a)))
        return
    with pytest.raises(PivotError,
                       match="^gram matrix is not positive definite$"):
        GramMatrix.from_rows(rows)
    with pytest.raises(PivotError):
        GramMatrix(c, tuple(map(tuple, a)))


@given(st.one_of(_psd_grams(), _psd_grams(nmax=5, deficient=True),
                 _definite(), _symmetric(), _symmetric(zero_diagonal=True)))
@settings(max_examples=150, deadline=None)
def test_ldlt_exact_and_equals_fraction_reference(rows):
    # PD, rank-deficient PSD and indefinite: ldlt refuses exactly the
    # matrices whose Fraction reference has a pivot <= 0 (or a zero pivot
    # it cannot skip); on the rest L diag(D) L^T rebuilt from the integer
    # pivots and multipliers is the input exactly (an inexact floor
    # division would show here), and the factors are the Fraction ones
    _, a = _scaled(rows)
    try:
        want = reference_ldlt(a)
    except PivotError:
        want = None
    if want is None or min(want[1]) <= 0:
        with pytest.raises(PivotError, match="not positive definite"):
            ldlt(a)
        return
    got = rational_factors(*ldlt(a))
    assert got == want
    assert rebuild(*got) == a


@given(_definite(nmax=6))
@settings(max_examples=200, deadline=None)
def test_invert_equals_gauss_jordan_oracle(rows):
    # every Bareiss pivot is a leading minor, positive: the same minimal
    # GramMatrix as the Fraction oracle, which swaps rows past zeros
    g = GramMatrix.from_rows(rows)
    assert invert(g) == gauss_jordan_inverse(g)


@pytest.mark.parametrize("name", ["E8", "CT12", "Leech"])
def test_invert_catalog_grams(name):
    g = catalog(name).gram
    assert invert(g) == gauss_jordan_inverse(g)
    assert invert(invert(g)) == g
