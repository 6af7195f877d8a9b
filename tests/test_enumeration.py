"""Short-vector enumeration against a brute-force box scan, plus the
antipodal halving contract."""

from __future__ import annotations

import inspect
import itertools
import math
import random
import sys
import tracemalloc
from fractions import Fraction as F
from math import inf, isqrt
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from sphdesign import _arrays, enumeration
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
from sphdesign.linalg import GramMatrix, PivotError, invert, ldlt

from conftest import (
    as_tuples,
    certified_sweep,
    congruent,
    enumerate_short_vectors,
    quadratic_form,
    random_half,
    random_unimodular,
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
    assert len(vecs) == 6 and {len(v) for v in vecs} == {2}


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
    red, t, _, _ = size_reduce(g)
    assert max(abs(red[i, j]) for i in range(2) for j in range(2)) <= 2
    # T g T^t == reduced
    rows = [[sum(t[i][a] * g[a, b] * t[j][b] for a in range(2) for b in range(2))
             for j in range(2)] for i in range(2)]
    assert rows == [[red[0, 0], red[0, 1]], [red[1, 0], red[1, 1]]]
    assert_lll_reduced(red)


@st.composite
def _lll_inputs(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    a = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n)]
    rows = [[sum(a[k][i] * a[k][j] for k in range(n)) + (1 if i == j else 0)
             for j in range(n)] for i in range(n)]
    g = GramMatrix.from_rows(rows)
    if n > 1:
        rng = random.Random(draw(st.integers(0, 2**32)))
        u = random_unimodular(n, rng, draw(st.integers(0, 12)))
        g = congruent(u, g)
    den = draw(st.sampled_from([1, 3, 12]))
    return GramMatrix.from_rows([[F(x, den) for x in row] for row in g.entries])


@given(_lll_inputs())
@settings(max_examples=80, deadline=None)
def test_lll_properties(g):
    red, t, _, _ = size_reduce(g)
    assert red.scale == g.scale
    assert congruent(t, g) == red
    assert abs(_det(t)) == 1
    assert_lll_reduced(red)


@given(_lll_inputs())
@settings(max_examples=80, deadline=None)
def test_lll_returns_the_ldlt_of_the_reduced_gram(g):
    # the search reads the LDL^T of the reduced Gram from size_reduce: the
    # final Gram determinants and scaled multipliers of the integral LLL
    red, _, p, lam = size_reduce(g)
    assert (p, lam) == ldlt(red.entries)


@pytest.mark.parametrize("name", ["A2", "E6dual", "E8", "CT12", "BW16",
                                  "Leech"])
def test_lll_returns_the_ldlt_of_a_shipped_reduced_gram(name):
    red, _, p, lam = size_reduce(catalog(name).gram)
    assert (p, lam) == ldlt(red.entries)


@st.composite
def _non_positive_definite(draw):
    # B^T S B with a nonpositive entry in S is never positive definite
    n = draw(st.integers(min_value=1, max_value=5))
    b = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n)]
    s = [draw(st.integers(1, 3)) for _ in range(n)]
    s[draw(st.integers(0, n - 1))] = draw(st.integers(-2, 0))
    return [[sum(b[k][i] * s[k] * b[k][j] for k in range(n))
             for j in range(n)] for i in range(n)]


@given(_non_positive_definite())
@settings(max_examples=60, deadline=None)
def test_lll_rejects_non_positive_definite(rows):
    # the LLL is never handed such a form: its GramMatrix is refused
    # where it is built
    with pytest.raises(PivotError, match="not positive definite"):
        GramMatrix.from_rows(rows)


@pytest.mark.parametrize("rows", [[[0]], [[-1]], [[1, 1], [1, 1]],
                                  [[1, 2], [2, 1]], [[2, 0], [0, 0]],
                                  [[4, 2, 0], [2, 1, 0], [0, 0, 5]]])
def test_lll_rejects_semidefinite_and_indefinite(rows):
    # size_reduce and shortest_norm_and_vectors take a GramMatrix, and a
    # singular or indefinite one is refused where it is built
    with pytest.raises(PivotError, match="not positive definite"):
        GramMatrix.from_rows(rows)


def test_shortest_vectors_from_reduced_basis(monkeypatch):
    # an A2 basis whose shortest vector has norm ~10^4, far above the
    # minimum 2: one search, depth-first or breadth-first, must run once,
    # at the reduced bound
    u = [[49, 50], [48, 49]]
    assert abs(_det(u)) == 1
    g = congruent(u, A2)
    assert min(g[0, 0], g[1, 1]) > 5000
    reductions, bounds = [], []
    real_reduce, real_fp = enumeration.size_reduce, _arrays._fincke_pohst
    real_df = enumeration._depth_first
    monkeypatch.setattr(enumeration, "size_reduce",
                        lambda g: reductions.append(g) or real_reduce(g))
    monkeypatch.setattr(_arrays, "_fincke_pohst",
                        lambda g, p, lam, b, cert: bounds.append(b)
                        or real_fp(g, p, lam, b, cert))
    monkeypatch.setattr(enumeration, "_depth_first",
                        lambda g, p, lam, b: bounds.append(b)
                        or real_df(g, p, lam, b))
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
    u = random_unimodular(g.n, random.Random(seed), 6 * g.n)
    skewed = minimal_vector_set(congruent(u, g))
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
    rows = [[int(x) for x in v] for v in vecs]
    assert rows == [[-k, 1], [-1, 0], [1, 0], [k, -1]]
    assert all(-2 ** 63 < x < 2 ** 63 for v in rows for x in v)


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
    g = GramMatrix.identity(2)
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
        assert [x for x in row if x][0] > 0
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
                   coords=coords)
    with pytest.raises(NotAntipodalError, match=r"\(1, 0\)"):
        halve_antipodal(vs)


def test_validate_catches_bad_norm():
    coords = np.array([[1, 0], [1, 1]])
    vs = VectorSet(gram=GramMatrix.identity(2), min_norm=F(1),
                   coords=coords)
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


# --- the breadth-first sweep against a box oracle and the depth-first search

def _certified(g: GramMatrix, bound) -> bool:
    p, lam = ldlt(g.entries)
    return _arrays._sweep_levels(g, p, lam, F(bound)) is not None


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
    half = certified_sweep(g, bound)
    half = half[exact_norms(g, half) <= int(bound * g.scale)]
    rows = {tuple(v) for v in half.tolist()}
    negated = {tuple(-x for x in v) for v in rows}
    assert len(rows) == len(half) and not rows & negated
    return rows | negated


def _scaled(g: GramMatrix, k) -> GramMatrix:
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
        g = congruent(random_unimodular(n, rng, draw(st.integers(0, 6))), g)
    den = draw(st.sampled_from([1, 3, 7, 12]))
    g = GramMatrix.from_rows([[F(x, den) for x in row] for row in g.entries])
    bound = g[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))]
    bound = abs(bound) if bound else g[0, 0]
    return g, bound


@pytest.mark.parametrize("chunk", [1, _arrays._CHUNK])
@given(case=_skewed_cases())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_float_and_exact_tiers_match_box_oracle(monkeypatch, chunk, case):
    # the float sweep must find the box oracle's set, on g and on g scaled
    # by 2^70, which the set-up takes back to g's units by the gcd of its
    # entries.  With the node cut past every estimate, the scaled lattice
    # runs the exact depth-first search, which must find the oracle's
    # minimum-norm shell
    monkeypatch.setattr(_arrays, "_CHUNK", chunk)
    monkeypatch.setattr(enumeration, "_SCALAR_NODES", inf)
    g, bound = case
    assume(np.prod([2 * r + 1 for r in _box_radii(g, bound)]) <= 20000)
    big = _scaled(g, 2**70)
    want = _box_oracle(g, bound)
    assert _sweep_set(g, bound) == want
    assert _sweep_set(big, bound * 2**70) == want
    norm, rows = shortest_norm_and_vectors(big)
    assert isinstance(rows, tuple)
    norms = {v: quadratic_form(g, v) for v in want}
    if not want:
        assert norm > bound * 2**70
        return
    least = min(norms.values())
    assert norm == least * 2**70
    assert set(rows) == {v for v in want if norms[v] == least}


def test_float_certificate_refusals():
    # one form per check of _sweep_levels, at the edge where it refuses.
    # S_i + M_i + p_i < 2^52: diag(1, 2^-k) at bound 1 is diag(2^k, 1) in
    # integer units, with p_1 = 2^k and S_1 just above 2^(3k/2)
    for k, certified in [(34, True), (35, False)]:
        g = GramMatrix.from_rows([[1, 0], [0, F(1, 2**k)]])
        assert _certified(g, 1) is certified, k
    # X_i < 2^30: the identity at bound 2^k has X_i = isqrt(~2^k) + 2
    for k, certified in [(59, True), (60, False)]:
        assert _certified(GramMatrix.identity(2), 2**k) is certified, k
    # n < 2^10: the identity of rank n, by its LDL^T; its Gram is read only
    # for the gcd of its entries, so one entry stands in for it
    one = SimpleNamespace(scale=1, entries=((1,),))
    for n, certified in [(2**10 - 1, True), (2**10, False)]:
        lam = [[0] * j for j in range(n)]
        got = _arrays._sweep_levels(one, [1] * n, lam, F(1))
        assert (got is not None) is certified, n


def test_sweep_levels_are_the_gcd_reduced_form():
    # the level data are those of c g / k, k the gcd of its entries, and
    # the bound is floor(bound c / k) padded by 2^-39: on every lattice
    # scaled by 2^70 / 3, as on the lattice itself
    for name in ("A2", "E6dual", "E7dual", "E8", "CT12"):
        g = catalog(name).gram
        for h in (1, F(2**70, 3)):
            red, _, p, lam = size_reduce(_scaled(g, h))
            bound = min(red[i, i] for i in range(red.n))
            k = math.gcd(*(x for row in red.entries for x in row))
            pk, lamk = ldlt([[x // k for x in row] for row in red.entries])
            p_f, lam_f, w_f, b = _arrays._sweep_levels(red, p, lam, bound)
            n = red.n
            assert p_f == [float(x) for x in pk]
            assert w_f == [float(x * y) for x, y in zip([1, *pk], pk)]
            assert lam_f.tolist() == [[float(lamk[j][i]) if i < j else 0.0
                                       for i in range(n)] for j in range(n)]
            big_b = int(bound * red.scale / k)
            assert b == float(big_b) * (1 + 2**-39) > big_b


def test_both_signs_maps_back_past_the_int64_product_bound():
    # transform entries near 2^61 put the product's bound past 2^62, so the
    # map back runs in Python ints and returns to int64 when every
    # coordinate fits
    half = np.array([[1, 0], [0, 1]])
    out = _arrays._both_signs(half, [[2**61, 0], [0, -3]])
    assert out.dtype == np.int64 and not out.flags.writeable
    assert out.tolist() == [[-2**61, 0], [0, -3], [0, 3], [2**61, 0]]
    with pytest.raises(EnumerationError, match="does not fit in int64"):
        _arrays._both_signs(np.array([[2, 1]]), [[2**62, 0], [0, 1]])


@pytest.mark.parametrize("name, chunks", [
    ("E6dual", (1, None)), ("E7dual", (1, None)), ("E8", (1, None)),
    ("CT12", (1, None)), ("BW16", (1, None))])
def test_float_tier_matches_exact_tier(monkeypatch, name, chunks):
    # the float sweep, at one row per piece and at the default _CHUNK,
    # against the exact depth-first search on the same reduced form
    spec = catalog(name)
    red, *_ = size_reduce(spec.gram)
    bound = min(red[i, i] for i in range(red.n))
    p, lam = ldlt(red.entries)
    m, rows = enumeration._depth_first(red, p, lam, bound)
    assert m == bound * red.scale
    want = set(rows) | {tuple(-x for x in v) for v in rows}
    assert len(want) == spec.expected_kissing
    default = _arrays._CHUNK
    for chunk in chunks:
        monkeypatch.setattr(_arrays, "_CHUNK", chunk or default)
        assert _sweep_set(red, bound) == want


def test_float_superset_is_cut_by_exact_norms():
    # at bound 2^40 - 1 on Z the padded float bound is 2^40 + 1, so the
    # vector 2^20, of norm 2^40, passes the float filter; only the exact
    # norms remove it
    g, bound = GramMatrix.identity(1), 2**40 - 1
    half = certified_sweep(g, bound)
    assert sorted(half[:, 0].tolist()) == list(range(1, 2**20 + 1))
    assert enumerate_short_vectors(g, bound).shape == (2**21 - 2, 1)


def test_sweep_keeps_a_boundary_vector_past_a_large_center():
    # Q(x) = (3 x_0 + (3m + 1) x_1)^2 + 3 x_1^2: at level 0, C_0 / p_0 =
    # (m + 1/3) x_1 is far from a float, and (1 - m, 1), of norm 19, sits
    # on the upper end of its interval.  Computed as fl(fl(r - C_0) / p_0)
    # that end is never below it (rounding is monotone and C_0 exact); as
    # fl(r / p_0) - fl(C_0 / p_0) it rounds to -m and the vector is lost
    m = 2**21
    g = GramMatrix.from_rows([[9, 9 * m + 3],
                              [9 * m + 3, (3 * m + 1) ** 2 + 3]])
    want = {(x0, x1) for x1 in range(-2, 3)
            for x0 in range(-m * x1 - 3, -m * x1 + 4)
            if (x0, x1) != (0, 0) and quadratic_form(g, (x0, x1)) <= 19}
    assert (1 - m, 1) in want and len(want) == 12
    assert _sweep_set(g, 19) == want


def test_vector_set_sorts_rows_and_derives_antipodal():
    rows = [[0, 1], [1, 0], [0, -1], [-1, 0]]
    vs = VectorSet(gram=GramMatrix.identity(2), min_norm=F(1),
                   coords=np.array(rows))
    assert vs.coords.tolist() == sorted(rows) and vs.antipodal
    half = VectorSet(gram=GramMatrix.identity(2), min_norm=F(1),
                     coords=np.array(rows[:2]))
    assert half.coords.tolist() == [[0, 1], [1, 0]] and not half.antipodal
    # an odd count is never antipodal, though {0, +-e1} is sign-symmetric
    odd = VectorSet(gram=GramMatrix.identity(1), min_norm=F(1),
                    coords=np.array([[1], [0], [-1]]))
    assert enumeration.is_sign_symmetric(odd.coords) and not odd.antipodal


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


# --- the depth-first search in Python ints, against the breadth-first sweep

_SMALL = ("A2", "D4", "E6", "E6dual", "E7", "E7dual", "E8", "CT12")


def _both_searches(g: GramMatrix):
    """(m, rows) of _depth_first and of _fincke_pohst, kept by exact norm,
    on the LLL-reduced g: the least scaled norm and its rows, one per
    +-pair, sorted."""
    red, *_ = size_reduce(g)
    bound = min(red[i, i] for i in range(red.n))
    p, lam = ldlt(red.entries)
    m, rows = enumeration._depth_first(red, p, lam, bound)
    half = certified_sweep(red, bound)
    norms = exact_norms(red, half)
    least = norms.min()
    return ((m, sorted(rows)),
            (int(least), sorted(map(tuple, half[norms == least].tolist()))))


@pytest.mark.parametrize("name", _SMALL)
def test_depth_first_matches_breadth_first_on_small_lattices(monkeypatch,
                                                             name):
    g = catalog(name).gram
    depth, breadth = _both_searches(g)
    assert depth == breadth
    norm, rows = shortest_norm_and_vectors(g)
    assert isinstance(rows, tuple)
    monkeypatch.setattr(enumeration, "_SCALAR_NODES", 0)
    norm_bf, array = shortest_norm_and_vectors(g)
    assert norm == norm_bf and [list(v) for v in rows] == array.tolist()


@given(_lll_inputs())
@settings(max_examples=80, deadline=None)
def test_depth_first_matches_breadth_first_on_skewed_forms(g):
    depth, breadth = _both_searches(g)
    assert depth == breadth


def test_depth_first_runs_past_the_recursion_limit():
    # the search holds its levels in a list, not on the call stack, so
    # rank 200 runs with room for only about 100 more frames
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        norm, rows = shortest_norm_and_vectors(GramMatrix.identity(200))
    finally:
        sys.setrecursionlimit(limit)
    assert norm == 1 and len(rows) == 400
    assert set(rows) == {tuple(s * int(i == j) for j in range(200))
                         for i in range(200) for s in (1, -1)}


def _bw16_past_the_sweep() -> GramMatrix:
    """BW16 with every entry times 2^70, plus 1 on the first diagonal
    entry: the gcd of its entries is 1, so its pivots are past 2^52 from
    the second one on.  Its minimal vectors are BW16's with first
    coordinate 0, at 2^70 times the norm."""
    g = catalog("BW16").gram
    return GramMatrix.from_rows([[g[i, j] * 2**70 + (i == j == 0)
                                  for j in range(g.n)] for i in range(g.n)])


@pytest.mark.slow
def test_uncertified_form_runs_depth_first(monkeypatch):
    # the form is above the node cut, but _sweep_levels refuses it, so the
    # depth-first search runs, and the sweep never does
    big = _bw16_past_the_sweep()
    red, *_ = size_reduce(big)
    bound = min(red[i, i] for i in range(red.n))
    nodes = enumeration._estimated_nodes(ldlt(red.entries)[0], red.scale,
                                         bound)
    assert nodes >= enumeration._SCALAR_NODES and not _certified(red, bound)
    norm, want = shortest_norm_and_vectors(catalog("BW16").gram)
    want = want[want[:, 0] == 0]

    def sweep(*args):
        raise AssertionError("the breadth-first sweep ran")
    monkeypatch.setattr(_arrays, "_fincke_pohst", sweep)
    big_norm, rows = shortest_norm_and_vectors(big)
    assert big_norm == norm * 2**70 and len(rows) == len(want) > 0
    assert [list(v) for v in rows] == want.tolist()


@pytest.mark.parametrize("name, k", [
    ("E8", 2**70), ("CT12", 3), ("BW16", F(7, 5)),
    pytest.param("Leech", F(7, 5), marks=pytest.mark.slow)],
    ids=["E8*2^70", "CT12*3", "BW16*7/5", "Leech*7/5"])
def test_scaled_forms_stay_on_the_sweep(monkeypatch, name, k):
    # the set-up divides c g by the gcd of its entries, so the lattice
    # scaled by k runs the sweep in the units of the lattice itself (the
    # node cut at 0 sends E8 and CT12 there) and finds the same rows
    monkeypatch.setattr(enumeration, "_SCALAR_NODES", 0)
    g = catalog(name).gram
    norm, want = shortest_norm_and_vectors(g)
    runs, sweep = [], _arrays._fincke_pohst
    monkeypatch.setattr(_arrays, "_fincke_pohst",
                        lambda levels: runs.append(1) or sweep(levels))
    big_norm, rows = shortest_norm_and_vectors(_scaled(g, k))
    assert runs == [1] and big_norm == norm * k
    assert rows.dtype == want.dtype and rows.tobytes() == want.tobytes()


def test_node_estimate_puts_small_lattices_below_the_cut_and_bw16_above():
    def nodes(name):
        red, *_ = size_reduce(catalog(name).gram)
        bound = min(red[i, i] for i in range(red.n))
        return enumeration._estimated_nodes(ldlt(red.entries)[0], red.scale,
                                            bound)
    assert [round(nodes(name)) for name in ("A2", "E8", "CT12")] \
        == [3, 183, 1212]
    assert max(map(nodes, _SMALL)) < enumeration._SCALAR_NODES \
        < nodes("BW16")


def test_python_int_rows_form():
    rows = ((1, 0), (0, 1), (0, -1), (-1, 0))
    vs = VectorSet(gram=GramMatrix.identity(2), min_norm=F(1), coords=rows)
    assert vs.coords == tuple(sorted(rows)) and vs.antipodal
    assert vs.count == 4 and vs.rank == 2
    assert vs.array.tolist() == [list(v) for v in sorted(rows)]
    assert not vs.array.flags.writeable
    half = halve_antipodal(vs)
    assert half.coords == ((0, 1), (1, 0)) and not half.antipodal
    with pytest.raises(NotAntipodalError, match=r"\(0, 1\)"):
        halve_antipodal(half)
    for bad in (([1, 0],), ((1.0, 0),), ((np.int64(1), 0),)):
        with pytest.raises(ValueError, match="tuples of ints"):
            VectorSet(gram=vs.gram, min_norm=F(1), coords=bad)
    with pytest.raises(ValueError, match="rank 3"):
        VectorSet(gram=vs.gram, min_norm=F(1), coords=((1, 0, 0),))


def test_vector_set_copies_an_array_a_caller_can_write():
    gram = GramMatrix.identity(2)
    coords = np.array([[0, 1], [1, 0]])
    vs = VectorSet(gram=gram, min_norm=F(1), coords=coords)
    coords[0, 0] = 5
    assert vs.coords.tolist() == [[0, 1], [1, 0]]
    # a read-only view of a writable array is copied as well
    coords = np.array([[0, 1], [1, 0]])
    view = coords.view()
    view.setflags(write=False)
    vs = VectorSet(gram=gram, min_norm=F(1), coords=view)
    coords[0, 0] = 7
    assert vs.coords.tolist() == [[0, 1], [1, 0]]
    # a read-only array no writable array shares is kept as it is
    own = np.array([[0, 1], [1, 0]])
    own.setflags(write=False)
    assert VectorSet(gram=gram, min_norm=F(1), coords=own).coords is own


def test_minimal_vector_set_keeps_the_array_it_builds(monkeypatch):
    built, real = [], _arrays._both_signs
    monkeypatch.setattr(_arrays, "_both_signs",
                        lambda half, trans: built.append(real(half, trans))
                        or built[-1])
    vs = minimal_vector_set(catalog("BW16").gram)
    assert vs.coords is built[0]


def test_halving_bw16_allocates_no_set_sized_array():
    vs = minimal_vector_set(catalog("BW16").gram)
    assert isinstance(vs.coords, np.ndarray)
    tracemalloc.start()
    try:
        half = halve_antipodal(vs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert half.count == vs.count // 2
    assert np.shares_memory(half.coords, vs.coords)
    assert peak < vs.coords.nbytes // 2
