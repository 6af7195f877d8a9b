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
    matmul,
    psd_rank,
)


def test_from_rows_symmetrizes_nothing_but_validates():
    with pytest.raises(LinalgError):
        GramMatrix.from_rows([[1, 2], [3, 1]])
    with pytest.raises(LinalgError):
        GramMatrix.from_rows([[1, 2, 3], [2, 1, 0]])


def test_identity_and_indexing():
    g = GramMatrix.identity(3)
    assert g.n == 3
    assert g[0, 0] == F(1)
    assert g[0, 1] == F(0)
    assert g.row(2) == (F(0), F(0), F(1))


def test_quadratic_form_exact():
    g = GramMatrix.from_rows([[2, -1], [-1, 2]])
    assert g.quadratic_form([1, 0]) == F(2)
    assert g.quadratic_form([1, 1]) == F(2)
    assert g.quadratic_form([2, 1]) == F(6)


def test_integer_entries_scale():
    g = GramMatrix.from_rows([[F(4, 3), F(-2, 3)], [F(-2, 3), F(4, 3)]])
    scale, gi = g.integer_entries()
    assert scale == 3
    assert gi == [[4, -2], [-2, 4]]


def test_ldlt_reconstructs():
    g = GramMatrix.from_rows([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
    L, D = ldlt(g)
    n = g.n
    ld = [[sum(L[i][k] * D[k] * L[j][k] for k in range(n))
           for j in range(n)] for i in range(n)]
    assert all(ld[i][j] == g[i, j] for i in range(n) for j in range(n))


def test_ldlt_indefinite_has_negative_pivot():
    _, D = ldlt(GramMatrix.from_rows([[1, 2], [2, 1]]))
    assert tuple(D) == (F(1), F(-3))


def test_ldlt_zero_pivot_nonzero_column_raises():
    with pytest.raises(PivotError, match="pivoted"):
        ldlt(GramMatrix.from_rows([[0, 1], [1, 0]]))


def test_ldlt_psd_singular():
    # rank-1 PSD: zero pivot with a zero column below it is accepted
    g = GramMatrix.from_rows([[1, 1], [1, 1]])
    L, D = ldlt(g)
    assert tuple(D) == (F(1), F(0))


def test_psd_rank_cases():
    assert psd_rank(GramMatrix.identity(4).integer_entries()[1]) == (True, 4)
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
    prod = matmul([g.row(i) for i in range(2)], [gi.row(i) for i in range(2)])
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

    m = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                       for x in g.row(i)] for i in range(g.n)])
    return m.is_positive_semidefinite, m.rank()


# a positive scale changes neither the PSD verdict nor the rank
_scales = st.sampled_from([1, 4, 2 ** 40])


def _scaled_verdict(g, c):
    """psd_rank of the integer-scaled g, asserted equal at scale c."""
    a = g.integer_entries()[1]
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
    _, D = ldlt(gp)
    assert all(x > 0 for x in D)
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
