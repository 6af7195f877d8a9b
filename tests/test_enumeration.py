"""Short-vector enumeration against a brute-force box scan, plus the
antipodal halving contract."""

from __future__ import annotations

import itertools
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    union_with_negation,
)
from sphdesign.linalg import GramMatrix


def box_scan(g: GramMatrix, bound, radius: int) -> set[tuple[int, ...]]:
    """All nonzero vectors with |coeff| <= radius and norm <= bound."""
    out = set()
    for v in itertools.product(range(-radius, radius + 1), repeat=g.n):
        if any(v) and g.quadratic_form(v) <= bound:
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
    vs = minimal_vector_set(A2, expected_kissing=6)
    assert vs.count == 6 and vs.min_norm == F(2) and vs.antipodal
    with pytest.raises(EnumerationError, match="kissing"):
        minimal_vector_set(A2, expected_kissing=7)


def test_size_reduce_preserves_form():
    # a badly skewed basis for the square lattice
    g = GramMatrix.from_rows([[1, 7], [7, 50]])
    red, t = size_reduce(g)
    assert max(abs(red[i, j]) for i in range(2) for j in range(2)) <= 2
    # T g T^t == reduced
    rows = [[sum(t[i][a] * g[a, b] * t[j][b] for a in range(2) for b in range(2))
             for j in range(2)] for i in range(2)]
    assert rows == [[red[0, 0], red[0, 1]], [red[1, 0], red[1, 1]]]


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
    assert [int(x) for x in norms] == [g.quadratic_form(v)
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
    assert all(g.quadratic_form(t) <= bound for t in tups)
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
