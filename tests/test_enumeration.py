"""Short-vector enumeration against a brute-force box scan, plus the
antipodal halving contract."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphdesign import enumeration
from sphdesign.catalog import catalog
from sphdesign.enumeration import (
    EnumerationError,
    NotAntipodalError,
    VectorSet,
    enumerate_short_vectors,
    exact_norms,
    halve_antipodal,
    minimal_vector_set,
    shortest_norm_and_vectors,
    size_reduce,
)
from sphdesign.linalg import GramMatrix, LinalgError

from conftest import matmul, quadratic_form, union_with_negation


def box_scan(g: GramMatrix, bound, radius: int) -> set[tuple[int, ...]]:
    """All nonzero vectors with |coeff| <= radius and norm <= bound."""
    out = set()
    for v in itertools.product(range(-radius, radius + 1), repeat=g.n):
        if any(v) and quadratic_form(g, v) <= bound:
            out.add(v)
    return out


A2 = GramMatrix.from_rows([[2, 1], [1, 2]])
D4_ROWS = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]


def test_a2_matches_box_scan():
    got = {tuple(v) for v in enumerate_short_vectors(A2, F(6))}
    assert got == box_scan(A2, F(6), 4)


def test_d4_matches_box_scan():
    g = GramMatrix.from_rows(D4_ROWS)
    got = {tuple(v) for v in enumerate_short_vectors(g, F(4))}
    assert got == box_scan(g, F(4), 3)


def test_sign_symmetric_and_duplicate_free():
    vecs = enumerate_short_vectors(A2, F(8))
    tups = [tuple(v) for v in vecs]
    assert len(tups) == len(set(tups))
    s = set(tups)
    assert all(tuple(-x for x in t) in s for t in s)


def test_larger_bound_is_superset():
    small = {tuple(v) for v in enumerate_short_vectors(A2, F(4))}
    large = {tuple(v) for v in enumerate_short_vectors(A2, F(10))}
    assert small <= large


def test_rational_gram_bound():
    g = GramMatrix.from_rows([[F(4, 3), F(-2, 3), F(-2, 3)],
                              [F(-2, 3), F(4, 3), F(1, 3)],
                              [F(-2, 3), F(1, 3), F(4, 3)]])
    bound = F(4, 3)
    got = {tuple(v) for v in enumerate_short_vectors(g, bound)}
    assert got == box_scan(g, bound, 3)
    assert got


def test_shortest_norm_hexagon():
    norm, vecs = shortest_norm_and_vectors(A2)
    assert norm == F(2)
    assert vecs.shape == (6, 2)


def test_minimal_vector_set_counts():
    vs = minimal_vector_set(A2)
    assert vs.count == 6 and vs.min_norm == F(2) and vs.antipodal
    assert vs.m == 2


def _gso(g: GramMatrix):
    """Exact Gram-Schmidt oracle: (mu, bstar) with mu[i][j] the coefficients
    and bstar[i] = |b*_i|^2, both as Fractions."""
    n = g.n
    mu = [[F(0)] * n for _ in range(n)]
    bstar = [F(0)] * n
    for i in range(n):
        for j in range(i):
            mu[i][j] = (g[i, j] - sum(mu[j][k] * mu[i][k] * bstar[k]
                                      for k in range(j))) / bstar[j]
        bstar[i] = g[i, i] - sum(mu[i][k] ** 2 * bstar[k] for k in range(i))
    return mu, bstar


def _det(rows) -> F:
    a = [[F(x) for x in row] for row in rows]
    n, det = len(a), F(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c]), None)
        if p is None:
            return F(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def _congruent(u, g: GramMatrix) -> GramMatrix:
    """U g U^T, exact."""
    return GramMatrix(g.scale, matmul(matmul(u, g.entries), list(zip(*u))))


def assert_lll_reduced(g: GramMatrix) -> None:
    """Every |mu_ij| <= 1/2 and the Lovasz condition with delta = 3/4."""
    mu, bstar = _gso(g)
    for i in range(g.n):
        assert all(abs(mu[i][j]) <= F(1, 2) for j in range(i))
        if i:
            assert bstar[i] >= (F(3, 4) - mu[i][i - 1] ** 2) * bstar[i - 1]


def test_size_reduce_preserves_form():
    # a badly skewed basis for the square lattice
    g = GramMatrix.from_rows([[1, 7], [7, 50]])
    red, t = size_reduce(g)
    assert max(abs(red[i, j]) for i in range(2) for j in range(2)) <= 2
    # T g T^t == reduced
    rows = [[sum(t[i][a] * g[a, b] * t[j][b] for a in range(2) for b in range(2))
             for j in range(2)] for i in range(2)]
    assert rows == [[red[0, 0], red[0, 1]], [red[1, 0], red[1, 1]]]
    assert_lll_reduced(red)


def _random_unimodular(n: int, rng: random.Random, ops: int):
    """P E_ops ... E_1 with E = I +- e_i e_j^T and P a permutation."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(ops):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    rng.shuffle(u)
    return u


@st.composite
def _lll_inputs(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    a = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n)]
    rows = [[sum(a[k][i] * a[k][j] for k in range(n)) + (1 if i == j else 0)
             for j in range(n)] for i in range(n)]
    g = GramMatrix.from_rows(rows)
    if n > 1:
        rng = random.Random(draw(st.integers(0, 2**32)))
        u = _random_unimodular(n, rng, draw(st.integers(0, 12)))
        g = _congruent(u, g)
    den = draw(st.sampled_from([1, 3, 12]))
    return GramMatrix.from_rows([[F(x, den) for x in row] for row in g.entries])


@given(_lll_inputs())
@settings(max_examples=80, deadline=None)
def test_lll_properties(g):
    red, t = size_reduce(g)
    assert red.scale == g.scale
    assert _congruent(t, g) == red
    assert abs(_det(t)) == 1
    assert_lll_reduced(red)


@st.composite
def _non_positive_definite(draw):
    # B^T S B with a nonpositive entry in S is never positive definite
    n = draw(st.integers(min_value=1, max_value=5))
    b = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n)]
    s = [draw(st.integers(1, 3)) for _ in range(n)]
    s[draw(st.integers(0, n - 1))] = draw(st.integers(-2, 0))
    return GramMatrix.from_rows(
        [[sum(b[k][i] * s[k] * b[k][j] for k in range(n)) for j in range(n)]
         for i in range(n)])


@given(_non_positive_definite())
@settings(max_examples=60, deadline=None)
def test_lll_rejects_non_positive_definite(g):
    with pytest.raises(LinalgError, match="positive definite"):
        size_reduce(g)


@pytest.mark.parametrize("rows", [[[0]], [[-1]], [[1, 1], [1, 1]],
                                  [[1, 2], [2, 1]], [[2, 0], [0, 0]],
                                  [[4, 2, 0], [2, 1, 0], [0, 0, 5]]])
def test_lll_rejects_semidefinite_and_indefinite(rows):
    with pytest.raises(LinalgError, match="positive definite"):
        size_reduce(GramMatrix.from_rows(rows))
    with pytest.raises(LinalgError, match="positive definite"):
        shortest_norm_and_vectors(GramMatrix.from_rows(rows))


def test_shortest_vectors_from_reduced_basis(monkeypatch):
    # an A2 basis whose shortest vector has norm ~10^4, far above the
    # minimum 2: the search must run once, at the reduced bound
    u = [[49, 50], [48, 49]]
    assert abs(_det(u)) == 1
    g = _congruent(u, A2)
    assert min(g[0, 0], g[1, 1]) > 5000
    reductions, bounds = [], []
    real_reduce, real_fp = enumeration.size_reduce, enumeration._fincke_pohst
    monkeypatch.setattr(enumeration, "size_reduce",
                        lambda g: reductions.append(g) or real_reduce(g))
    monkeypatch.setattr(enumeration, "_fincke_pohst",
                        lambda g, b: bounds.append(b) or real_fp(g, b))
    norm, vecs = shortest_norm_and_vectors(g)
    assert len(reductions) == 1 and bounds == [2]
    assert norm == 2
    back = vecs @ np.array(u, dtype=np.int64)
    back = back[np.lexsort(back.T[::-1])]
    assert np.array_equal(back, minimal_vector_set(A2).coords)


@pytest.mark.parametrize("name", ["A2", "D4", "E8"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_minimal_vectors_skew_invariant(name, seed):
    g = catalog(name).gram
    u = _random_unimodular(g.n, random.Random(seed), 6 * g.n)
    skewed = minimal_vector_set(_congruent(u, g))
    back = skewed.coords @ np.array(u, dtype=np.int64)
    back = back[np.lexsort(back.T[::-1])]
    assert np.array_equal(back, minimal_vector_set(g).coords)


@pytest.mark.parametrize("k", [2 ** 63 - 1, 2 ** 63])
def test_map_back_checked_at_int64(k):
    # LLL reduces [[1, k], [k, k^2 + 1]] to the identity with T = [[1, 0],
    # [-k, 1]], so the minimal vectors are +-(1, 0) and +-(k, -1)
    g = GramMatrix.from_rows([[1, k], [k, k * k + 1]])
    if k > 2 ** 63 - 1:
        with pytest.raises(EnumerationError, match="int64"):
            shortest_norm_and_vectors(g)
        return
    norm, vecs = shortest_norm_and_vectors(g)
    assert norm == 1
    assert vecs.dtype == np.int64
    assert vecs.tolist() == [[-k, 1], [-1, 0], [1, 0], [k, -1]]


def test_exact_norms_object_fallback():
    big = 2 ** 40
    g = GramMatrix.from_rows([[big, 0], [0, big]])
    coords = np.array([[2 ** 15, 0], [0, 2 ** 15]], dtype=np.int64)
    norms = exact_norms(g, coords)
    assert [int(x) for x in norms] == [2 ** 70, 2 ** 70]


@pytest.mark.parametrize("k", [2 ** 30 - 1, 2 ** 30])
def test_exact_norms_both_sides_of_bound(k):
    # the int64 certificate n^2 max|G| max|v|^2 = 4 k^2 reaches 2^62 at
    # k = 2^30; both tiers must equal the Fraction oracle
    g = GramMatrix.from_rows([[1, -1], [-1, 1]])
    coords = np.array([[k, k - 1], [k - 1, -k], [-k, 1]], dtype=np.int64)
    norms = exact_norms(g, coords)
    assert norms.dtype == (np.int64 if k < 2 ** 30 else object)
    assert [int(x) for x in norms] == [quadratic_form(g, v)
                                       for v in coords.tolist()]


def test_halving_canonical_rule():
    vs = minimal_vector_set(A2)
    half = halve_antipodal(vs)
    assert half.count == 3
    for row in half.coords:
        nz = row[np.nonzero(row)[0]]
        assert nz[0] > 0
    assert not half.antipodal


def test_halving_seeded_deterministic():
    vs = minimal_vector_set(A2)
    a = halve_antipodal(vs, seed=99)
    b = halve_antipodal(vs, seed=99)
    assert a.as_tuples() == b.as_tuples()


def test_halving_union_roundtrip():
    vs = minimal_vector_set(GramMatrix.from_rows(D4_ROWS))
    for seed in (None, 0, 1, 2):
        back = union_with_negation(halve_antipodal(vs, seed=seed))
        assert back.as_tuples() == vs.as_tuples()
        assert back.antipodal


def test_halving_rejects_unpaired():
    coords = np.array([[1, 0], [0, 1], [0, -1]])
    vs = VectorSet(gram=GramMatrix.identity(2), min_norm=F(1),
                   coords=coords, antipodal=True)
    with pytest.raises(NotAntipodalError, match=r"\(1, 0\)"):
        halve_antipodal(vs)


def test_validate_catches_bad_norm():
    coords = np.array([[1, 0], [1, 1]])
    vs = VectorSet(gram=GramMatrix.identity(2), min_norm=F(1),
                   coords=coords, antipodal=False)
    with pytest.raises(ValueError, match="norm"):
        vs.validate()


_entries = st.integers(min_value=-3, max_value=3)


@st.composite
def _pd_grams(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    a = [[draw(_entries) for _ in range(n)] for _ in range(n)]
    rows = [[sum(a[k][i] * a[k][j] for k in range(n)) + (2 if i == j else 0)
             for j in range(n)] for i in range(n)]
    return GramMatrix.from_rows(rows)


@given(_pd_grams(), st.integers(min_value=2, max_value=8))
@settings(max_examples=40, deadline=None)
def test_enumeration_properties_random_forms(g, bound):
    vecs = enumerate_short_vectors(g, F(bound))
    tups = {tuple(int(x) for x in v) for v in vecs}
    assert len(tups) == len(vecs)
    # sign symmetry
    assert all(tuple(-x for x in t) in tups for t in tups)
    # exactness of every reported norm
    assert all(quadratic_form(g, t) <= bound for t in tups)
    # superset at a larger bound
    more = {tuple(int(x) for x in v)
            for v in enumerate_short_vectors(g, F(bound + 2))}
    assert tups <= more
    # completeness against the box scan on tiny forms
    if g.n <= 2:
        assert tups == box_scan(g, F(bound), bound + 1)


@given(_pd_grams())
@settings(max_examples=30, deadline=None)
def test_halve_union_random_forms(g):
    vs = minimal_vector_set(g)
    back = union_with_negation(halve_antipodal(vs))
    assert back.as_tuples() == vs.as_tuples()
