"""Short-vector enumeration against a brute-force box scan, plus the
antipodal halving contract."""

from __future__ import annotations

import itertools
import random
import tracemalloc
from fractions import Fraction as F
from math import isqrt
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from sphdesign import enumeration
from sphdesign.catalog import catalog
from sphdesign.enumeration import (
    EnumerationError,
    NotAntipodalError,
    VectorSet,
    exact_norms,
    halve_antipodal,
    minimal_vector_set,
    shortest_norm_and_vectors,
    size_reduce,
)
from sphdesign.linalg import GramMatrix, LinalgError, invert, ldlt

from conftest import (
    as_tuples,
    enumerate_short_vectors,
    matmul,
    quadratic_form,
    random_half,
    union_with_negation,
)


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


def test_exact_matmul_zero_factor_with_huge_entries():
    # a zero factor makes the product bound 0; the other factor still
    # does not fit in int64, so the product runs on Python ints
    zeros = np.zeros((2, 1), dtype=np.int64)
    out = enumeration.exact_matmul(zeros, [[2 ** 70, 1]])
    assert out.tolist() == [[0, 0], [0, 0]]


def test_halving_canonical_rule():
    vs = minimal_vector_set(A2)
    half = halve_antipodal(vs)
    assert half.count == 3
    for row in half.coords:
        nz = row[np.nonzero(row)[0]]
        assert nz[0] > 0
    assert not half.antipodal


def test_halving_seeded_deterministic():
    # the seeded half-set oracle of the invariance tests is reproducible
    vs = minimal_vector_set(A2)
    a = random_half(vs, 99)
    b = random_half(vs, 99)
    assert as_tuples(a) == as_tuples(b)


def test_halving_union_roundtrip():
    vs = minimal_vector_set(GramMatrix.from_rows(D4_ROWS))
    halves = [halve_antipodal(vs)] + [random_half(vs, s) for s in (0, 1, 2)]
    for half in halves:
        back = union_with_negation(half)
        assert as_tuples(back) == as_tuples(vs)
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
    assert as_tuples(back) == as_tuples(vs)


# --- the breadth-first sweep: float tier, exact tier and a box oracle ----

def _certified(g: GramMatrix, bound) -> bool:
    p, lam = ldlt(g.entries)
    cert = enumeration._float_certificate(g, p, lam, F(bound))
    return cert is not None


def _box_radii(g: GramMatrix, bound) -> list[int]:
    """|v_j| <= sqrt(bound (g^-1)_jj) when v^T g v <= bound, with g^-1
    from linalg.invert."""
    ginv = invert(g)
    return [isqrt(int(bound * ginv[j, j])) for j in range(g.n)]


def _box_oracle(g: GramMatrix, bound) -> set[tuple[int, ...]]:
    """Every nonzero v with v^T g v <= bound, by an exact box scan."""
    axes = [np.arange(-r, r + 1) for r in _box_radii(g, bound)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, g.n)
    keep = (exact_norms(g, pts) <= int(bound * g.scale)) & pts.any(axis=1)
    return {tuple(v) for v in pts[keep].tolist()}


def _sweep_set(g: GramMatrix, bound) -> set[tuple[int, ...]]:
    """_fincke_pohst on g itself (no reduction), kept by exact norm, with
    the negations of its one-per-pair rows."""
    half = enumeration._fincke_pohst(g, F(bound))
    half = half[exact_norms(g, half) <= int(bound * g.scale)]
    rows = {tuple(v) for v in half.tolist()}
    negated = {tuple(-x for x in v) for v in rows}
    assert len(rows) == len(half) and not rows & negated
    return rows | negated


def _scaled(g: GramMatrix, k: int) -> GramMatrix:
    return GramMatrix.from_rows([[g[i, j] * k for j in range(g.n)]
                                 for i in range(g.n)])


@st.composite
def _skewed_cases(draw):
    """A skewed positive definite Gram (n <= 4, scale 1, 3, 7 or 12) that
    is not LLL-reduced, and a bound equal to one of its basis norms, so
    that vectors lie on the boundary of the search."""
    n = draw(st.integers(min_value=1, max_value=4))
    a = [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n)]
    rows = [[sum(a[k][i] * a[k][j] for k in range(n)) + (1 if i == j else 0)
             for j in range(n)] for i in range(n)]
    g = GramMatrix.from_rows(rows)
    if n > 1:
        rng = random.Random(draw(st.integers(0, 2**32)))
        g = _congruent(_random_unimodular(n, rng, draw(st.integers(0, 6))), g)
    den = draw(st.sampled_from([1, 3, 7, 12]))
    g = GramMatrix.from_rows([[F(x, den) for x in row] for row in g.entries])
    bound = g[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))]
    bound = abs(bound) if bound else g[0, 0]
    return g, bound


@pytest.mark.parametrize("chunk", [1, enumeration._CHUNK])
@given(case=_skewed_cases())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_float_and_exact_tiers_match_box_oracle(monkeypatch, chunk, case):
    # the same lattice scaled by 2^70 has every D_i above 2^64, past the
    # float certificate, so it runs the exact tier on the same problem
    monkeypatch.setattr(enumeration, "_CHUNK", chunk)
    g, bound = case
    assume(np.prod([2 * r + 1 for r in _box_radii(g, bound)]) <= 20000)
    big = _scaled(g, 2**70)
    assert _certified(g, bound) and not _certified(big, bound * 2**70)
    want = _box_oracle(g, bound)
    assert _sweep_set(g, bound) == want
    assert _sweep_set(big, bound * 2**70) == want


@pytest.mark.parametrize("name, chunks", [
    ("E6dual", (1, None)), ("E7dual", (1, None)), ("E8", (1, None)),
    ("CT12", (None,)), ("BW16", (None,))])
def test_float_tier_matches_exact_tier(monkeypatch, name, chunks):
    spec = catalog(name)
    red, _ = size_reduce(spec.gram)
    bound = min(red[i, i] for i in range(red.n))
    assert _certified(red, bound)
    sets = []
    for exact in (False, True):
        if exact:
            monkeypatch.setattr(enumeration, "_float_levels", lambda *a: None)
        for chunk in chunks:
            monkeypatch.setattr(enumeration, "_CHUNK",
                                chunk or enumeration._CHUNK)
            sets.append(_sweep_set(red, bound))
    assert all(s == sets[0] for s in sets)
    assert len(sets[0]) == spec.expected_kissing


def test_float_superset_is_cut_by_exact_norms():
    # the norm-2 vectors of A2 pass the float filter at a bound just below
    # 2; only the exact norms remove them
    bound = 2 - F(1, 10**18)
    assert _certified(A2, bound)
    assert len(enumeration._fincke_pohst(A2, bound)) == 3
    assert enumerate_short_vectors(A2, bound).shape == (0, 2)
    assert box_scan(A2, bound, 3) == set()


def _oracle_certificate(g: GramMatrix, bound: F):
    """(X, eta, eps) by the formulas of _float_certificate's docstring,
    from the Fraction Gram-Schmidt oracle _gso and linalg.invert."""
    mu, bstar = _gso(g)
    n, u = g.n, F(1, 2**53)

    def gamma(k):
        return k * u / (1 - k * u)

    xs = _box_radii(g, bound)
    e_next, eta = F(0), [F(0)] * n
    for i in reversed(range(n)):
        m = sum(abs(mu[j][i]) * xs[j] for j in range(i + 1, n))
        y = enumeration._sqrt_up(bound / bstar[i])
        delta = gamma(n - i) * m
        e = delta + u * (y + delta)
        tau = bstar[i] * (e * (2 * y + e) + gamma(3) * (y + e) ** 2)
        eta[i] = (delta + 2 * gamma(4) * y
                  + enumeration._sqrt_up(e_next / bstar[i])
                  + gamma(3) * (2 * y + m + delta + 1))
        e_next = e_next + tau + u * (bound + e_next + tau)
    return xs, eta, e_next


@pytest.mark.parametrize("name", ["A2", "E6dual", "E7dual", "E8", "CT12"])
def test_float_certificate_matches_its_formula(name):
    red, _ = size_reduce(catalog(name).gram)
    bound = min(red[i, i] for i in range(red.n))
    p, lam = ldlt(red.entries)
    got = enumeration._float_certificate(red, p, lam, bound)
    assert got == _oracle_certificate(red, bound)
    assert got[2] > 0


@given(st.fractions(min_value=0, max_value=10**6, max_denominator=10**6))
@settings(max_examples=100)
def test_sqrt_up_is_a_tight_upper_bound(q):
    s = enumeration._sqrt_up(q)
    assert s * s >= q and (s - F(1, 2**64)) ** 2 <= q or s <= F(1, 2**64)


def test_vector_set_sorts_rows_and_derives_antipodal():
    rows = [[0, 1], [1, 0], [0, -1], [-1, 0]]
    vs = VectorSet(gram=GramMatrix.identity(2), min_norm=F(1),
                   coords=np.array(rows))
    assert vs.coords.tolist() == sorted(rows) and vs.antipodal
    half = VectorSet(gram=GramMatrix.identity(2), min_norm=F(1),
                     coords=np.array(rows[:2]))
    assert half.coords.tolist() == [[0, 1], [1, 0]] and not half.antipodal


_check_rows = st.sampled_from([1, 2, 3, 5, 2**12])


@given(st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3),
                max_size=12), _check_rows)
@settings(max_examples=150)
def test_lex_sorted_matches_sorted(rows, chunk):
    # every chunk size, down to one pair per chunk, gives the same answer
    c = np.array(rows, dtype=np.int64).reshape(-1, 3)
    with mock.patch.object(enumeration, "_CHECK_ROWS", chunk):
        assert enumeration._lex_sorted(c) == (rows == sorted(rows))


@given(st.sets(st.tuples(*[st.integers(-2, 2)] * 3), max_size=12),
       st.booleans(), _check_rows)
@settings(max_examples=150)
def test_sign_symmetry_matches_negated_set(rows, close, chunk):
    if close:
        rows |= {tuple(-x for x in v) for v in rows}
    c = np.array(sorted(rows), dtype=np.int64).reshape(-1, 3)
    want = rows == {tuple(-x for x in v) for v in rows}
    with mock.patch.object(enumeration, "_CHECK_ROWS", chunk):
        assert enumeration.is_sign_symmetric(c) == want


def test_vector_set_keeps_only_its_own_copy():
    # 2 x 60 000 sorted, sign-symmetric rows: a constructor checking order
    # and symmetry on whole-set temporaries (N x rank booleans, -coords)
    # would more than double its own copy's size
    rng = np.random.default_rng(5)
    half = np.unique(rng.integers(1, 2**20, size=(60_000, 8)), axis=0)
    coords = np.concatenate([-half[::-1], half])
    assert len(coords) >= 100_000
    gram = GramMatrix.identity(8)
    tracemalloc.start()
    try:
        vs = VectorSet(gram=gram, min_norm=F(1), coords=coords)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vs.antipodal and vs.coords.tolist() == coords.tolist()
    assert peak < coords.nbytes + 2**20


def test_validate_checks_in_chunks():
    # 120 000 distinct signed permutations of 1..24, all of norm 4900: a
    # validate forming whole-set norm products or N x rank boolean arrays
    # peaks near the set's own 22 MiB
    rng = np.random.default_rng(5)
    base = np.arange(1, 25)
    rows = rng.permuted(np.tile(base, (120_000, 1)), axis=1)
    rows *= rng.choice([-1, 1], size=rows.shape)
    vs = VectorSet(gram=GramMatrix.identity(24), min_norm=F(4900),
                   coords=np.unique(rows, axis=0))
    assert vs.count == 120_000
    tracemalloc.start()
    try:
        vs.validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("chunk", [1, 2, 5])
def test_validate_chunks_keep_messages(chunk):
    ok = VectorSet(gram=GramMatrix.identity(2), min_norm=F(25),
                   coords=np.array([[0, 5], [3, 4], [4, 3], [5, 0]]))
    bad_norm = VectorSet(gram=ok.gram, min_norm=F(25),
                         coords=np.array([[0, 5], [3, 4], [4, 4], [5, 0]]))
    dup = VectorSet(gram=ok.gram, min_norm=F(25),
                    coords=np.array([[0, 5], [3, 4], [3, 4], [5, 0]]))
    with mock.patch.object(enumeration, "_CHECK_ROWS", chunk):
        ok.validate()
        with pytest.raises(ValueError, match="norm != min_norm"):
            bad_norm.validate()
        with pytest.raises(ValueError, match="duplicate vectors"):
            dup.validate()
