"""Degree-2 harmonic embedding: spectrum transport, the quadratic moment
identity, exact rank certification, and float coordinate realization."""

from __future__ import annotations

from fractions import Fraction as F
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphdesign.embedding import (
    EmbeddedSpectrum,
    EmbeddingError,
    dim_harm,
    embed,
    embedded_gram,
    realize_coordinates,
    theorem_check,
    _source_products,
)
from sphdesign.enumeration import NotAntipodalError, VectorSet, halve_antipodal
from sphdesign.linalg import GramMatrix
from sphdesign.spectrum import PairSpectrum, pair_spectrum

from conftest import lattice_vectors


def harm_dim_reference(k: int, d: int) -> int:
    # dim of degree-k harmonics on S^d = C(n+k-1, k) - C(n+k-3, k-2), n = d+1
    n = d + 1
    return comb(n + k - 1, k) - (comb(n + k - 3, k - 2) if k >= 2 else 0)


@pytest.mark.parametrize("d", [1, 2, 3, 5, 6, 7, 9, 11, 15, 23])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_dim_harm_matches_binomial_formula(k, d):
    assert dim_harm(k, d) == harm_dim_reference(k, d)


def test_dim_harm_quadratic_values():
    assert [dim_harm(2, d) for d in (1, 3, 5, 6, 7, 9, 11, 15, 23)] == \
        [2, 9, 20, 27, 35, 54, 77, 135, 299]


def test_embed_full_spectrum_equals_halved():
    # the kernel is even: folding the antipodal spectrum gives the same
    # embedded code as embedding any half-set
    for name in ("A2", "D4", "E6", "E6dual", "E7", "E7dual", "E8"):
        vs = lattice_vectors(name)
        full = embed(pair_spectrum(vs))
        for seed in (None, 0, 1, 7):
            half = embed(pair_spectrum(halve_antipodal(vs, seed=seed)))
            assert half == full, (name, seed)


def test_embed_rejects_odd_antipodal_count():
    # a valid antipodal spectrum of 5 points, which no antipodal set has
    odd = PairSpectrum.from_counts(2, {F(1): 5, F(0): 15, F(-1): 5},
                                   antipodal=True)
    with pytest.raises(EmbeddingError, match="odd count"):
        embed(odd)


def test_hexagon_embeds_to_hexagon(hexagon):
    emb = embed(pair_spectrum(halve_antipodal(hexagon)))
    assert emb.target_D == 2
    assert emb.spectrum.counts() == {F(1): 6, F(1, 2): 12,
                                     F(-1, 2): 12, F(-1): 6}
    ok, lhs, rhs = theorem_check(emb)
    assert ok and lhs == rhs == F(1, 2)


def test_hexagon_embedding_iterates():
    # the embedded hexagon is again a hexagon on S^1; iterating is stable
    emb = embed(pair_spectrum(halve_antipodal(lattice_vectors("A2"))))
    emb2 = embed(emb.spectrum)
    assert emb2.spectrum.counts() == emb.spectrum.counts()


def test_octahedron_embedding_fails_theorem(octahedron):
    emb = embed(pair_spectrum(halve_antipodal(octahedron)))
    assert emb.target_D == 5
    ok, lhs, rhs = theorem_check(emb)
    assert not ok and lhs == F(1, 2) and rhs == F(1, 5)


def test_d4_embedded_spectrum(d4_vectors):
    emb = embed(pair_spectrum(halve_antipodal(d4_vectors)))
    assert emb.target_D == 9
    assert emb.spectrum.counts() == {
        F(1): 24, F(1, 3): 72, F(0): 384, F(-1, 3): 72, F(-1): 24}
    ok, lhs, rhs = theorem_check(emb)
    assert ok and lhs == rhs == F(1, 9)


def test_e8_embedded_spectrum(e8_vectors):
    emb = embed(pair_spectrum(halve_antipodal(e8_vectors)))
    assert emb.target_D == 35
    # +-1/2 sources land on +1/7, the 0 products land on -1/7, and the
    # sign closure symmetrizes: 13440 + 30240/2 on each side
    assert emb.spectrum.counts() == {F(1): 240, F(1, 7): 28560,
                                     F(-1, 7): 28560, F(-1): 240}
    ok, lhs, rhs = theorem_check(emb)
    assert ok and lhs == rhs == F(1, 35)


def test_embedded_size_doubles(e8_vectors):
    emb = embed(pair_spectrum(halve_antipodal(e8_vectors)))
    assert emb.spectrum.size == 240
    assert emb.spectrum.antipodal


@pytest.mark.parametrize("name,rank", [("A2", 2), ("D4", 9), ("E6", 20),
                                       ("E6dual", 20), ("E7", 27),
                                       ("E7dual", 27)])
def test_rank_certificates_small(name, rank):
    half = halve_antipodal(lattice_vectors(name))
    eg = embedded_gram(half)
    is_psd, r = eg.rank_certificate()
    assert is_psd and r == rank


@pytest.mark.parametrize("k", [2 ** 30 - 1, 2 ** 30])
def test_source_products_both_sides_of_bound(k):
    # v G v^T is certified in int64 while n^2 max|G| max|v|^2 = 4 k^2 < 2^62
    j = k - 1
    half = VectorSet(gram=GramMatrix.identity(2), min_norm=k * k + j * j,
                     coords=np.array([[k, j], [j, k], [j, -k]]),
                     antipodal=False)
    half.validate()
    rows = half.as_tuples()
    want = [[F(v[0] * w[0] + v[1] * w[1], k * k + j * j) for w in rows]
            for v in rows]
    assert _source_products(half) == want


def test_embedded_gram_signs(hexagon):
    eg = embedded_gram(halve_antipodal(hexagon))
    assert eg.m == 6
    half = eg.m // 2
    # block structure [[A, -A], [-A, A]]
    for i in range(half):
        for j in range(half):
            assert eg.gram[i, j] == -eg.gram[i, half + j]
            assert eg.gram[i, j] == eg.gram[half + i, half + j]


def test_embedded_gram_rejects_antipodal(hexagon):
    with pytest.raises(NotAntipodalError):
        embedded_gram(lattice_vectors("A2"))


def test_embedded_gram_cap(e8_vectors):
    half = halve_antipodal(e8_vectors)
    with pytest.raises(EmbeddingError, match="spectrum-only"):
        embedded_gram(half, cap=100)


def test_halving_invariance_ten_seeds(d4_vectors):
    base = embed(pair_spectrum(halve_antipodal(d4_vectors)))
    for seed in range(10):
        alt = embed(pair_spectrum(halve_antipodal(d4_vectors, seed=seed)))
        assert alt.spectrum.entries == base.spectrum.entries


def test_realize_coordinates_hexagon_exact_products():
    half = halve_antipodal(lattice_vectors("A2"))
    pts = realize_coordinates(half, precision=12)
    assert len(pts) == 6 and len(pts[0]) == 2
    arr = np.array(pts)
    g = arr @ arr.T
    assert abs(g[0, 0] - 1.0) < 1e-12
    vals = {round(x, 6) for x in np.unique(np.round(g, 6))}
    assert vals == {-1.0, -0.5, 0.5, 1.0}


def test_realize_coordinates_default_precision_e8(e8_vectors):
    pts = realize_coordinates(halve_antipodal(e8_vectors))
    assert len(pts) == 240 and len(pts[0]) == 35


def test_embedded_spectrum_validates():
    bad = PairSpectrum.from_counts(
        1, {F(1): 4, F(-1): 4, F(1, 2): 4, F(-1, 2): 4}, antipodal=True)
    with pytest.raises(EmbeddingError):
        EmbeddedSpectrum(source_d=7, spectrum=bad)  # wrong target dim


def test_iterate_embedding_divisibility(d4_vectors):
    emb = embed(pair_spectrum(halve_antipodal(d4_vectors)))
    emb2 = embed(emb.spectrum)
    ok, lhs, rhs = theorem_check(emb2)
    assert emb2.target_D == dim_harm(2, 8)
    assert not ok  # a 3-design is not automatically a 5-design; the
    # iterated embedding needs the source to be 4-design strength


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_halving_invariance_property(seed):
    vs = lattice_vectors("A2")
    emb = embed(pair_spectrum(halve_antipodal(vs, seed=seed)))
    assert emb.spectrum.counts() == {F(1): 6, F(1, 2): 12,
                                     F(-1, 2): 12, F(-1): 6}
