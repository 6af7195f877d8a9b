"""Pair spectrum: exact histogram of all N^2 normalized inner products.

The fast blocked implementation is cross-checked against a direct
two-loop Fraction computation on small sets.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest

from sphdesign import spectrum
from sphdesign.enumeration import VectorSet, halve_antipodal, minimal_vector_set
from sphdesign.linalg import GramMatrix
from sphdesign.spectrum import PairSpectrum, SpectrumError, pair_spectrum

from conftest import lattice_vectors


def brute_spectrum(vs: VectorSet) -> dict[F, int]:
    rows = vs.as_tuples()
    g = vs.gram
    counts: Counter[F] = Counter()
    for v in rows:
        for w in rows:
            prod = sum(F(a) * g[i, j] * F(b)
                       for i, a in enumerate(v) if a
                       for j, b in enumerate(w) if b)
            counts[prod / vs.min_norm] += 1
    return dict(counts)


def test_hexagon_oracle(hexagon):
    sp = pair_spectrum(hexagon)
    assert sp.counts() == {F(1): 6, F(1, 2): 12, F(-1, 2): 12, F(-1): 6}
    assert sp.d == 1 and sp.size == 6 and sp.antipodal


def test_halved_hexagon_oracle(hexagon):
    sp = pair_spectrum(halve_antipodal(hexagon))
    assert sp.counts() == {F(1): 3, F(1, 2): 4, F(-1, 2): 2}
    assert not sp.antipodal


def test_octahedron_oracle(octahedron):
    sp = pair_spectrum(octahedron)
    assert sp.counts() == {F(1): 6, F(0): 24, F(-1): 6}


def test_e8_oracle(e8_spectrum):
    assert e8_spectrum.counts() == {
        F(1): 240, F(1, 2): 13440, F(0): 30240,
        F(-1, 2): 13440, F(-1): 240,
    }


@pytest.mark.parametrize("name", ["A2", "D4", "E6dual", "E7dual"])
def test_matches_brute_force(name):
    vs = lattice_vectors(name)
    assert pair_spectrum(vs).counts() == brute_spectrum(vs)


def test_matches_brute_force_halved():
    half = halve_antipodal(lattice_vectors("D4"), seed=5)
    assert pair_spectrum(half).counts() == brute_spectrum(half)


def test_threads_do_not_change_result(e8_vectors):
    base = pair_spectrum(e8_vectors, threads=1)
    for n in (2, 3, 7):
        assert pair_spectrum(e8_vectors, threads=n).entries == base.entries


def test_rational_min_norm():
    vs = lattice_vectors("E6dual")
    sp = pair_spectrum(vs)
    assert vs.min_norm == F(4, 3)
    assert sp.counts() == {F(1): 54, F(1, 2): 540, F(1, 4): 864,
                           F(-1, 4): 864, F(-1, 2): 540, F(-1): 54}


def _skewed_unimodular(k: int) -> VectorSet:
    """Z^2 under the basis (e1, k e1 + e2): huge Gram entries and
    coordinates, yet every pairwise product is -1, 0 or 1."""
    g = GramMatrix.from_rows([[1, k], [k, k * k + 1]])
    coords = np.array([[1, 0], [-1, 0], [-k, 1], [k, -1]], dtype=np.int64)
    return VectorSet(gram=g, min_norm=F(1), coords=coords, antipodal=True)


def test_wide_entry_fallback():
    # intermediate magnitudes past the certified-float64 window
    vs = _skewed_unimodular(2 ** 30)
    vs.validate()
    sp = pair_spectrum(vs)
    assert sp.counts() == {F(1): 4, F(0): 8, F(-1): 4}


def test_object_entry_fallback():
    # Gram entries past int64 as well
    vs = _skewed_unimodular(2 ** 52)
    vs.validate()
    sp = pair_spectrum(vs)
    assert sp.counts() == {F(1): 4, F(0): 8, F(-1): 4}


@pytest.mark.parametrize("k", [2 ** 20, 2 ** 21])
def test_products_both_sides_of_bound(k):
    # a = v G is certified in int64 while n max|G| max|v| = 2 (k^2 + 1) k
    # < 2^62, which holds at k = 2^20 and fails at k = 2^21
    vs = _skewed_unimodular(k)
    assert pair_spectrum(vs).counts() == brute_spectrum(vs)


@pytest.mark.parametrize("k", [2 ** 21, 2 ** 30, 2 ** 52])
def test_blocked_tiers_match_brute_force(monkeypatch, k):
    # one-row blocks, so the off-diagonal block is counted twice.
    # k max|a| max|v| = 2 k^2 passes the float64 bound at 2^21 only; at
    # 2^30 every block is certified in int64, at 2^52 the off-diagonal
    # block runs in Python ints and the diagonal ones in int64
    monkeypatch.setattr(spectrum, "_BLOCK", 1)
    vs = _skewed_unimodular(k)
    assert pair_spectrum(vs).counts() == brute_spectrum(vs)


def test_min_norm_off_gram_scale():
    vs = VectorSet(gram=GramMatrix.identity(2), min_norm=F(1, 2),
                   coords=np.array([[1, 0], [-1, 0]]), antipodal=True)
    with pytest.raises(SpectrumError, match="min_norm 1/2"):
        pair_spectrum(vs)


def test_hist_blocks_int64_branch_cancellation():
    # a float64 pass would round 1 - 2**54 to -2**54 and report product 0;
    # the integer tier must see the true product 1
    from sphdesign.spectrum import _hist_blocks

    a = np.array([[2 ** 54, 1 - 2 ** 54]], dtype=np.int64)
    v = np.array([[1, 1]], dtype=np.int64)
    vals, counts = _hist_blocks(a, v, off=1, threads=1)
    assert (vals.tolist(), counts.tolist()) == ([1], [1])


def test_hist_blocks_counting_independent_of_offset():
    # a small offset bincounts each block, a huge one (2 off + 1 bins, more
    # than the block's products) sorts the products it has, and one past
    # int64 sorts them as Python ints: same histogram
    from sphdesign.spectrum import _hist_blocks

    rng = np.random.default_rng(0)
    v = rng.integers(-3, 4, size=(2100, 4))   # two blocks of rows
    a = v @ np.diag([1, 2, 3, 4])
    off = int(np.abs(a).max() * np.abs(v).max() * 4)
    for n, big in ((2100, 10 ** 12), (300, 2 ** 70)):
        dense = _hist_blocks(a[:n], v[:n], off=off, threads=1)
        sparse = _hist_blocks(a[:n], v[:n], off=big, threads=2)
        assert [x.tolist() for x in dense] == [x.tolist() for x in sparse]
        assert dense[1].sum() == n ** 2


def test_entries_sorted_descending(e8_spectrum):
    svals = [s for s, _ in e8_spectrum.entries]
    assert svals == sorted(svals, reverse=True)
    assert e8_spectrum.to_triples()[0] == [1, 1, 240]


def test_from_counts_validation():
    ok = PairSpectrum.from_counts(2, {F(1): 6, F(0): 24, F(-1): 6},
                                  antipodal=True)
    assert ok.size == 6
    with pytest.raises(SpectrumError):   # total not a perfect square count
        PairSpectrum.from_counts(2, {F(1): 6, F(0): 23, F(-1): 6},
                                 antipodal=True)
    with pytest.raises(SpectrumError):   # count(1) < N
        PairSpectrum.from_counts(2, {F(1): 2, F(0): 30, F(-1): 4},
                                 antipodal=True)
    with pytest.raises(SpectrumError):   # |s| > 1
        PairSpectrum.from_counts(2, {F(1): 4, F(2): 8, F(-2): 8,
                                     F(-1): 4}, antipodal=True)
    with pytest.raises(SpectrumError):   # antipodal asymmetry
        PairSpectrum.from_counts(2, {F(1): 6, F(1, 2): 12, F(0): 12,
                                     F(-1): 6}, antipodal=True)
    with pytest.raises(SpectrumError):   # nonpositive count
        PairSpectrum.from_counts(2, {F(1): 6, F(0): -2}, antipodal=True)


def test_count_accessor(octahedron):
    sp = pair_spectrum(octahedron)
    assert sp.count(F(0)) == 24
    assert sp.count(F(1, 3)) == 0
    assert sp.count(0) == 24
