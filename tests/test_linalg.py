from __future__ import annotations

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphdesign.linalg import (
    GramMatrix,
    LinalgError,
    PivotError,
    invert,
    ldlt,
    psd_rank,
)

from conftest import matmul, quadratic_form


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


def reference_ldlt(g: GramMatrix) -> tuple[tuple[tuple[F, ...], ...], tuple[F, ...]]:
    """Oracle: the former Fraction-arithmetic LDL^T of linalg, unchanged.

    Unpivoted LDL^T factorization: returns (L, D) with L unit lower
    triangular and L*diag(D)*L^T == g exactly.  Raises PivotError on a zero
    pivot with nonzero remainder below it.
    """
    n = g.n
    a = [[g[i, j] for j in range(n)] for i in range(n)]
    L = [[F(1) if i == j else F(0) for j in range(n)] for i in range(n)]
    d: list[F] = []
    for k in range(n):
        pivot = a[k][k]
        if pivot == 0:
            if any(a[i][k] != 0 for i in range(k + 1, n)):
                raise PivotError(
                    f"zero pivot at step {k} with nonzero remainder; requires pivoted variant"
                )
            d.append(F(0))
            continue
        d.append(pivot)
        for i in range(k + 1, n):
            L[i][k] = a[i][k] / pivot
        for i in range(k + 1, n):
            lik = L[i][k]
            if lik == 0:
                continue
            arow_i = a[i]
            for j in range(k + 1, i + 1):
                arow_i[j] -= lik * a[j][k]
    return tuple(tuple(row) for row in L), tuple(d)


def rational_factors(pivots, lam):
    """(L, D) in the reference's form, from the integer pivots p and
    multipliers lam: L[i][k] = lam[i][k] / p[k], D[k] = p[k] / p_prev."""
    n = len(pivots)
    L = [[F(int(i == k)) for k in range(n)] for i in range(n)]
    D, prev = [], 1
    for k, p in enumerate(pivots):
        D.append(F(p, prev))
        if p:
            for i in range(k + 1, n):
                L[i][k] = F(lam[i][k], p)
            prev = p
    return tuple(tuple(row) for row in L), tuple(D)


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
    pivots, _ = ldlt([[1, 2], [2, 1]])
    assert pivots == [1, -3]
    assert rational_factors(*ldlt([[1, 2], [2, 1]]))[1] == (F(1), F(-3))


def test_ldlt_zero_pivot_nonzero_column_raises():
    with pytest.raises(PivotError, match="not positive semidefinite"):
        ldlt([[0, 1], [1, 0]])


def test_ldlt_psd_singular():
    # rank-1 PSD: zero pivot with a zero column below it is accepted
    pivots, _ = ldlt([[1, 1], [1, 1]])
    assert pivots == [1, 0]


def test_psd_rank_cases():
    assert psd_rank(GramMatrix.identity(4).entries) == (True, 4)
    assert psd_rank([[1, 1], [1, 1]]) == (True, 1)
    assert psd_rank([[1, 2], [2, 1]]) == (False, 2)
    assert psd_rank([[0, 0], [0, 0]]) == (True, 0)
    assert psd_rank([[0, 1], [1, 0]]) == (False, 2)
    assert psd_rank([]) == (True, 0)


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
    with pytest.raises(LinalgError):
        invert(GramMatrix.from_rows([[1, 1], [1, 1]]))


def test_is_positive_definite():
    assert GramMatrix.from_rows([[2, -1], [-1, 2]]).is_positive_definite()
    assert not GramMatrix.from_rows([[1, 1], [1, 1]]).is_positive_definite()
    assert not GramMatrix.from_rows([[-1]]).is_positive_definite()


_entries = st.integers(min_value=-4, max_value=4)


@st.composite
def _psd_grams(draw, nmax=4, deficient=False):
    """A^T A is PSD for any integer A; adding identity makes it PD.  With
    deficient, A has fewer rows than columns, so the rank is below n."""
    n = draw(st.integers(min_value=2 if deficient else 1, max_value=nmax))
    m = draw(st.integers(min_value=1,
                         max_value=n - 1 if deficient else nmax))
    a = [[draw(_entries) for _ in range(n)] for _ in range(m)]
    rows = [[sum(a[k][i] * a[k][j] for k in range(m)) for j in range(n)]
            for i in range(n)]
    return GramMatrix.from_rows(rows)


def _sympy_verdict(g):
    import sympy

    m = sympy.Matrix([[sympy.Rational(x, g.scale) for x in row]
                      for row in g.entries])
    return m.is_positive_semidefinite, m.rank()


# a positive scale changes neither the PSD verdict nor the rank
_scales = st.sampled_from([1, 4, 2 ** 40])


def _scaled_verdict(g, c):
    """psd_rank of the integer-scaled g, asserted equal at scale c."""
    a = g.entries
    verdict = psd_rank(a)
    assert psd_rank([[c * x for x in row] for row in a]) == verdict
    return verdict


@given(st.one_of(_psd_grams(), _psd_grams(nmax=5, deficient=True)), _scales)
@settings(max_examples=100, deadline=None)
def test_psd_rank_matches_sympy(g, c):
    ok, rank = _scaled_verdict(g, c)
    assert ok
    assert (ok, rank) == _sympy_verdict(g)


@given(_psd_grams())
@settings(max_examples=40, deadline=None)
def test_pd_shift_ldlt_positive_pivots(g):
    rows = [[g[i, j] + (1 if i == j else 0) for j in range(g.n)]
            for i in range(g.n)]
    gp = GramMatrix.from_rows(rows)
    pivots, _ = ldlt(gp.entries)
    assert all(x > 0 for x in pivots)
    assert gp.is_positive_definite()


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
    return GramMatrix.from_rows(rows)


@given(st.one_of(_symmetric(), _symmetric(zero_diagonal=True)), _scales)
@settings(max_examples=120, deadline=None)
def test_psd_rank_symmetric_matches_sympy(g, c):
    # mostly indefinite; a zero diagonal leaves no pivot, and then only
    # the zero matrix is PSD
    assert _scaled_verdict(g, c) == _sympy_verdict(g)


@given(st.one_of(_psd_grams(), _psd_grams(nmax=5, deficient=True),
                 _symmetric(), _symmetric(zero_diagonal=True)))
@settings(max_examples=150, deadline=None)
def test_ldlt_exact_and_equals_fraction_reference(g):
    # PD, rank-deficient PSD and indefinite: L diag(D) L^T rebuilt from the
    # integer pivots and multipliers is the input exactly (an inexact floor
    # division would show here), and the factors are the Fraction ones
    a = [list(row) for row in g.entries]
    try:
        want = reference_ldlt(GramMatrix.from_rows(a))
    except PivotError:
        with pytest.raises(PivotError):
            ldlt(a)
        return
    got = rational_factors(*ldlt(a))
    assert got == want
    assert rebuild(*got) == a
