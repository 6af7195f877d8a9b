"""Pair spectrum: exact histogram of all N^2 normalized inner products.

The fast blocked implementation is cross-checked against a direct
two-loop Fraction computation on small sets.
"""

from __future__ import annotations

import itertools
import threading
import tracemalloc
from collections import Counter
from fractions import Fraction as F
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphdesign import _arrays, spectrum
from sphdesign.enumeration import VectorSet, halve_antipodal, minimal_vector_set
from sphdesign.linalg import GramMatrix
from sphdesign.spectrum import PairSpectrum, SpectrumError, pair_spectrum

from conftest import (
    as_array_set,
    as_tuples,
    lattice_vectors,
    random_half,
    spectrum_from_counts,
)


def brute_spectrum(vs: VectorSet) -> dict[F, int]:
    rows = as_tuples(vs)
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
    assert dict(sp.entries) == {F(1): 6, F(1, 2): 12, F(-1, 2): 12, F(-1): 6}
    assert sp.d == 1 and sp.size == 6 and sp.antipodal


def test_halved_hexagon_oracle(hexagon):
    sp = pair_spectrum(halve_antipodal(hexagon))
    assert dict(sp.entries) == {F(1): 3, F(1, 2): 4, F(-1, 2): 2}
    assert not sp.antipodal


def test_octahedron_oracle(octahedron):
    sp = pair_spectrum(octahedron)
    assert dict(sp.entries) == {F(1): 6, F(0): 24, F(-1): 6}


def test_e8_oracle(e8_spectrum):
    assert dict(e8_spectrum.entries) == {
        F(1): 240, F(1, 2): 13440, F(0): 30240,
        F(-1, 2): 13440, F(-1): 240,
    }


@pytest.mark.parametrize("name", ["A2", "D4", "E6dual", "E7dual"])
def test_matches_brute_force(name):
    vs = lattice_vectors(name)
    assert dict(pair_spectrum(vs).entries) == brute_spectrum(vs)


def test_matches_brute_force_halved():
    half = random_half(lattice_vectors("D4"), 5)
    assert dict(pair_spectrum(half).entries) == brute_spectrum(half)


def test_threads_do_not_change_result(e8_vectors):
    base = pair_spectrum(e8_vectors, threads=1)
    for n in (2, 3, 7):
        assert pair_spectrum(e8_vectors, threads=n).entries == base.entries


def test_rational_min_norm():
    vs = lattice_vectors("E6dual")
    sp = pair_spectrum(vs)
    assert vs.min_norm == F(4, 3)
    assert dict(sp.entries) == {F(1): 54, F(1, 2): 540, F(1, 4): 864,
                                F(-1, 4): 864, F(-1, 2): 540, F(-1): 54}


def _skewed_unimodular(k: int) -> VectorSet:
    """Z^2 under the basis (e1, k e1 + e2): huge Gram entries and
    coordinates, yet every pairwise product is -1, 0 or 1."""
    g = GramMatrix.from_rows([[1, k], [k, k * k + 1]])
    coords = np.array([[1, 0], [-1, 0], [-k, 1], [k, -1]], dtype=np.int64)
    return VectorSet(gram=g, min_norm=F(1), coords=coords)


def test_wide_entry_fallback():
    # intermediate magnitudes past the certified-float64 window
    vs = _skewed_unimodular(2 ** 30)
    vs.validate()
    sp = pair_spectrum(vs)
    assert dict(sp.entries) == {F(1): 4, F(0): 8, F(-1): 4}


def test_object_entry_fallback():
    # Gram entries past int64 as well
    vs = _skewed_unimodular(2 ** 52)
    vs.validate()
    sp = pair_spectrum(vs)
    assert dict(sp.entries) == {F(1): 4, F(0): 8, F(-1): 4}


@pytest.mark.parametrize("k", [2 ** 20, 2 ** 21])
def test_products_both_sides_of_bound(k):
    # a = v G is certified in int64 while n max|G| max|v| = 2 (k^2 + 1) k
    # < 2^62, which holds at k = 2^20 and fails at k = 2^21
    vs = _skewed_unimodular(k)
    assert dict(pair_spectrum(vs).entries) == brute_spectrum(vs)


@pytest.mark.parametrize("k", [2 ** 21, 2 ** 30, 2 ** 52])
def test_blocked_tiers_match_brute_force(monkeypatch, k):
    # one-row blocks, so the off-diagonal block is counted twice.
    # k max|a| max|v| = 2 k^2 passes the float64 bound at 2^21 only; at
    # 2^30 every block is certified in int64, at 2^52 the off-diagonal
    # block runs in Python ints and the diagonal ones in int64
    monkeypatch.setattr(_arrays, "_BLOCK", 1)
    vs = _skewed_unimodular(k)
    assert dict(pair_spectrum(vs).entries) == brute_spectrum(vs)


def test_min_norm_off_gram_scale():
    # the scaled min norm m is checked once, where the set is built
    for bad in (F(1, 2), F(0), F(-1)):
        with pytest.raises(ValueError, match=f"min_norm {bad} is not"):
            VectorSet(gram=GramMatrix.identity(2), min_norm=bad,
                      coords=np.array([[1, 0], [-1, 0]]))


def test_hist_blocks_int64_branch_cancellation():
    # a float64 pass would round 1 - 2**54 to -2**54 and report product 0;
    # the integer tier must see the true product 1
    from sphdesign._arrays import _hist_blocks

    a = np.array([[2 ** 54, 1 - 2 ** 54]], dtype=np.int64)
    v = np.array([[1, 1]], dtype=np.int64)
    vals, counts = _hist_blocks(a, v, off=1, threads=1)
    assert (vals.tolist(), counts.tolist()) == ([1], [1])


def test_hist_blocks_counting_independent_of_offset():
    # a small offset bincounts each block, a huge one (2 off + 1 bins, more
    # than the block's products) sorts the products it has, and one past
    # int64 sorts them as Python ints: same histogram
    from sphdesign._arrays import _hist_blocks

    rng = np.random.default_rng(0)
    v = rng.integers(-3, 4, size=(2100, 4))   # two blocks of rows
    a = v @ np.diag([1, 2, 3, 4])
    off = int(np.abs(a).max() * np.abs(v).max() * 4)
    for n, big in ((2100, 10 ** 12), (300, 2 ** 70)):
        dense = _hist_blocks(a[:n], v[:n], off=off, threads=1)
        sparse = _hist_blocks(a[:n], v[:n], off=big, threads=2)
        assert [x.tolist() for x in dense] == [x.tolist() for x in sparse]
        assert dense[1].sum() == n ** 2


def _count_started_threads(monkeypatch) -> list:
    """Route the spectrum pass's threads through a subclass that records
    each start."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(_arrays, "threading",
                        SimpleNamespace(Thread=Counted))
    return started


def test_pool_never_outnumbers_stripes(monkeypatch):
    # each worker owns whole row stripes of _BLOCK rows, so more workers
    # than stripes would only idle; the calling thread is worker 0, so
    # workers - 1 threads are started.  One stripe per worker suffices
    # here, so tiny sets span several workers
    monkeypatch.setattr(_arrays, "_STRIPES_PER_WORKER", 1)
    started = _count_started_threads(monkeypatch)
    # (_BLOCK, threads, workers); A2 halves to 3 rows, E8 to 120, both
    # held as arrays, which _hist_blocks counts
    cases = {"A2": [(1, 7, 3), (1, 2, 2), (1, 1, 1), (256, 4, 1)],
             "E8": [(16, 20, 8), (16, 3, 3), (256, 4, 1)]}
    for name, runs in cases.items():
        vs = as_array_set(lattice_vectors(name))
        base = pair_spectrum(vs).entries
        for block, threads, workers in runs:
            monkeypatch.setattr(_arrays, "_BLOCK", block)
            started.clear()
            assert pair_spectrum(vs, threads=threads).entries == base
            assert len(started) == workers - 1
            assert not any(t.is_alive() for t in started)


def test_small_sets_run_on_the_calling_thread(monkeypatch):
    # a second worker starts only at 2 * _STRIPES_PER_WORKER stripes of
    # _BLOCK rows: A2, E8 and CT12 halve to 1 and 2 stripes, and the 2240
    # rows of _three_sparse_signs(16), like the BW16 half-set, make 9
    started = _count_started_threads(monkeypatch)
    sets = [lattice_vectors(name) for name in ("A2", "E8", "CT12")]
    sets.append(_three_sparse_signs(16))
    for vs in sets:
        base = pair_spectrum(vs).entries
        started.clear()
        assert pair_spectrum(vs, threads=2).entries == base
        assert started == []
    # the Leech half-set, 98280 rows in 384 stripes, keeps two workers
    assert 384 // _arrays._STRIPES_PER_WORKER >= 2


@pytest.mark.parametrize("threads", [2, 3])
def test_pool_starts_at_stripes_per_worker(monkeypatch, threads):
    # one-row stripes: threads * _STRIPES_PER_WORKER rows start
    # threads - 1 threads, one row fewer starts one thread fewer
    from sphdesign._arrays import _hist_blocks

    monkeypatch.setattr(_arrays, "_BLOCK", 1)
    started = _count_started_threads(monkeypatch)
    per = _arrays._STRIPES_PER_WORKER
    v = np.random.default_rng(1).integers(-3, 4, size=(threads * per, 4))
    for n, pool in ((threads * per, threads - 1),
                    (threads * per - 1, threads - 2)):
        base = [x.tolist() for x in _hist_blocks(v[:n], v[:n], 48, 1)]
        started.clear()
        assert [x.tolist() for x in
                _hist_blocks(v[:n], v[:n], 48, threads)] == base
        assert len(started) == pool


def test_failing_worker_reraises_after_join(monkeypatch):
    # two one-row stripes of a set whose blocks run in exact_matmul: after
    # the product a = v G, worker 1 (a thread) or every worker raises
    vs = _skewed_unimodular(2 ** 52)
    monkeypatch.setattr(_arrays, "_BLOCK", 1)
    monkeypatch.setattr(_arrays, "_STRIPES_PER_WORKER", 1)
    started = _count_started_threads(monkeypatch)
    real = spectrum.exact_matmul
    before = threading.active_count()
    boom = RuntimeError("worker failed")

    def in_thread(*factors):
        if threading.current_thread() is not threading.main_thread():
            raise boom
        return real(*factors)

    monkeypatch.setattr(spectrum, "exact_matmul", in_thread)
    monkeypatch.setattr(_arrays, "exact_matmul", in_thread)
    with pytest.raises(RuntimeError) as err:
        pair_spectrum(vs, threads=2)
    assert err.value is boom
    assert len(started) == 1 and threading.active_count() == before

    calls = []

    def everywhere(*factors):
        calls.append(None)
        if len(calls) > 1:
            raise ValueError(threading.current_thread().name)
        return real(*factors)

    monkeypatch.setattr(spectrum, "exact_matmul", everywhere)
    monkeypatch.setattr(_arrays, "exact_matmul", everywhere)
    with pytest.raises(ValueError, match="^MainThread$"):
        pair_spectrum(vs, threads=2)
    assert threading.active_count() == before


def _three_sparse_signs(n: int) -> VectorSet:
    """The vectors of Z^n with three entries +-1, the first of them +1,
    and the rest 0: no antipodal pair, so the pass runs on all 4 C(n, 3)
    rows (not halved); products in [-3, 3]."""
    rows = []
    for support in itertools.combinations(range(n), 3):
        for signs in itertools.product((1, -1), repeat=2):
            row = [0] * n
            for i, sign in zip(support, (1, *signs)):
                row[i] = sign
            rows.append(row)
    return VectorSet(gram=GramMatrix.identity(n), min_norm=F(3),
                     coords=np.array(rows))


def test_pair_spectrum_memory_stays_cache_sized():
    # 2240 rows in 9 stripes, float32 tier, one worker at threads=2: the
    # pass holds float32 copies of a = V cG and of V^T, plus one worker's
    # float32 product block and int64 bin indices; the slack covers the
    # histograms, bincount outputs and Python objects.  Keeping the int64
    # a (280 KiB) or a second worker's buffers (768 KiB) would exceed it
    vs = _three_sparse_signs(16)
    assert vs.count == 2240 and not vs.antipodal
    side = _arrays._BLOCK
    budget = (2 * vs.count * vs.rank * 4 + side * side * (4 + 8)
              + 256 * 2 ** 10)
    tracemalloc.start()
    try:
        sp = pair_spectrum(vs, threads=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < budget
    # direct count over the full N x N product matrix
    vals, counts = np.unique(vs.coords @ vs.coords.T, return_counts=True)
    assert dict(sp.entries) == {F(int(p), 3): int(c)
                                for p, c in zip(vals, counts)}


# lattice points on the circles s^2 + t^2 = r, r with one to three
# classes of representation
_CIRCLES = {r: [(s, t) for s in range(-8, 9) for t in range(-8, 9)
                if s * s + t * t == r]
            for r in (1, 2, 5, 25, 65)}


def _skewed_circle(points, r: int, k: int) -> VectorSet:
    """Circle points of Z^2 under the basis (e1, k e1 + e2): coordinates
    (s - k t, t), Gram [[1, k], [k, k^2 + 1]], the same products at any
    k.  The spectrum pass sees a = (s, k s + t)."""
    g = GramMatrix.from_rows([[1, k], [k, k * k + 1]])
    coords = np.array([[s - k * t, t] for s, t in points], dtype=np.int64)
    return VectorSet(gram=g, min_norm=F(r), coords=coords)


def _pass_bound(points, k: int) -> int:
    """k max|a| max|v| of the spectrum pass over _skewed_circle."""
    amax = max(max(abs(s), abs(k * s + t)) for s, t in points)
    vmax = max(max(abs(s - k * t), abs(t)) for s, t in points)
    return 2 * amax * vmax


def _largest_below(bound, tier: int) -> int:
    """Largest k >= 10 with bound(k) < tier, for bound increasing in k."""
    lo, hi = 10, 16
    while bound(hi) < tier:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if bound(mid) < tier else (lo, mid)
    return lo


def _assert_blocks_match_brute_force(vs: VectorSet) -> None:
    vs.validate()
    expect = brute_spectrum(vs)
    assert dict(pair_spectrum(vs).entries) == expect
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_arrays, "_BLOCK", 1)
        mp.setattr(_arrays, "_STRIPES_PER_WORKER", 1)
        assert dict(pair_spectrum(vs, threads=2).entries) == expect


@st.composite
def _circle_subsets(draw):
    r = draw(st.sampled_from(sorted(_CIRCLES)))
    chosen = draw(st.lists(st.sampled_from(_CIRCLES[r]), min_size=1,
                           unique=True))
    return r, chosen


# the parameter sits just below the tier bound for step <= 0 and at or
# past it for step > 0
_TIERS = pytest.mark.parametrize("tier", [2 ** 24, 2 ** 53])
_STEPS = st.integers(min_value=-2, max_value=3)


@_TIERS
@given(_circle_subsets(), _STEPS)
@settings(max_examples=40, deadline=None)
def test_tier_boundaries_skewed_circle(tier, circle, step):
    # huge Gram entries and coordinates, small products; the bound grows
    # with k once k > max|s|, max|t|
    r, points = circle
    k = _largest_below(lambda k: _pass_bound(points, k), tier) + step
    assert (_pass_bound(points, k) < tier) == (step <= 0)
    _assert_blocks_match_brute_force(_skewed_circle(points, r, k))


@_TIERS
@given(st.integers(min_value=1, max_value=4).flatmap(
           lambda n: st.lists(st.lists(st.sampled_from((1, -1)), min_size=n,
                                       max_size=n),
                              min_size=1, max_size=6, unique_by=tuple)),
       _STEPS)
@settings(max_examples=40, deadline=None)
def test_tier_boundaries_tight_bound(tier, signs, step):
    # x times sign vectors of Z^n: k max|a| max|v| = n x^2 = m, so the
    # self products reach the bound; past it an odd m is no float32 /
    # float64 integer, and a tier taken past its bound rounds it
    n = len(signs[0])
    x = _largest_below(lambda x: n * x * x, tier) + step
    assert (n * x * x < tier) == (step <= 0)
    _assert_blocks_match_brute_force(VectorSet(
        gram=GramMatrix.identity(n), min_norm=F(n * x * x),
        coords=x * np.array(signs, dtype=np.int64)))


def test_entries_sorted_descending(e8_spectrum):
    svals = [s for s, _ in e8_spectrum.entries]
    assert svals == sorted(svals, reverse=True)
    assert e8_spectrum.to_triples()[0] == [1, 1, 240]


def test_from_counts_validation():
    ok = spectrum_from_counts(2, {F(1): 6, F(0): 24, F(-1): 6})
    assert ok.size == 6
    with pytest.raises(SpectrumError):   # total not a perfect square count
        spectrum_from_counts(2, {F(1): 6, F(0): 23, F(-1): 6})
    with pytest.raises(SpectrumError):   # count(1) < N
        spectrum_from_counts(2, {F(1): 2, F(0): 30, F(-1): 4})
    with pytest.raises(SpectrumError):   # |s| > 1
        spectrum_from_counts(2, {F(1): 4, F(2): 8, F(-2): 8,
                                 F(-1): 4})
    with pytest.raises(SpectrumError):   # antipodal asymmetry
        spectrum_from_counts(2, {F(1): 6, F(1, 2): 12, F(0): 12,
                                 F(-1): 6})
    with pytest.raises(SpectrumError):   # nonpositive count
        spectrum_from_counts(2, {F(1): 6, F(0): -2})


def test_antipodal_is_not_a_constructor_argument():
    # antipodality is read from the data, so no flag can contradict it
    with pytest.raises(TypeError):
        PairSpectrum(d=1, size=1, entries=((F(1), 1),), antipodal=True)
    with pytest.raises(TypeError):
        VectorSet(gram=GramMatrix.identity(1), min_norm=F(1),
                  coords=np.array([[1], [-1]]), antipodal=True)


# integer points of Z^3 on the spheres of norm 1, 2, 3, 5 and 6
_SHELLS = {r: [v for v in itertools.product(range(-2, 3), repeat=3)
               if sum(x * x for x in v) == r]
           for r in (1, 2, 3, 5, 6)}


@st.composite
def _shell_subsets(draw):
    """A duplicate-free subset of one shell, closed under negation in
    about half the draws."""
    r = draw(st.sampled_from(sorted(_SHELLS)))
    rows = draw(st.sets(st.sampled_from(_SHELLS[r]), min_size=1,
                        max_size=12))
    if draw(st.booleans()):
        rows |= {tuple(-x for x in v) for v in rows}
    return r, sorted(rows)


@given(_shell_subsets())
@settings(max_examples=150, deadline=None)
def test_antipodal_flags_agree_with_brute_force(subset):
    # the set's flag (even count, sign-symmetric rows), the spectrum's
    # (c(-1) = c(1)) and "every negation is present" are one fact
    r, rows = subset
    vs = VectorSet(gram=GramMatrix.identity(3), min_norm=F(r),
                   coords=np.array(rows))
    want = {tuple(-x for x in v) for v in rows} == set(rows)
    assert vs.antipodal == pair_spectrum(vs).antipodal == want
    assert dict(pair_spectrum(vs).entries) == brute_spectrum(vs)


# --- the Python-int kernel of sets held as int tuples, against _hist_blocks

@st.composite
def _int_kernel_cases(draw):
    """Rows of Python ints, any symmetric integer g and an offset at or
    above every |product| (the kernels' one requirement)."""
    n = draw(st.integers(1, 4))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            g[i][j] = g[j][i] = draw(st.integers(-3, 3))
    rows = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * n),
                         min_size=1, max_size=12))
    big = max(abs(sum(x * gij * y for gi, x in zip(g, v)
                      for gij, y in zip(gi, w)))
              for v in rows for w in rows)
    return tuple(rows), g, big + draw(st.sampled_from([0, 1, 200, 2**20]))


@given(_int_kernel_cases())
@settings(max_examples=150, deadline=None)
def test_int_hist_matches_hist_blocks(case):
    rows, g, off = case
    v = np.array(rows, dtype=np.int64)
    a = spectrum.exact_matmul(v, g)
    want = [x.tolist() for x in _arrays._hist_blocks(a, v, off, 1)]
    assert list(spectrum._int_hist(rows, g, off)) == want


@st.composite
def _orbit_sets(draw):
    """Subsets of the signed permutations of one integer vector under
    the form I / den: constant norm, rational min norm sum(x^2) / den,
    and antipodal or not."""
    n = draw(st.integers(2, 4))
    base = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)
                .filter(any))
    orbit = sorted({tuple(s * x for s, x in zip(signs, perm))
                    for perm in itertools.permutations(base)
                    for signs in itertools.product((1, -1), repeat=n)})
    rows = draw(st.sets(st.sampled_from(orbit), min_size=1))
    if draw(st.booleans()):
        rows |= {tuple(-x for x in v) for v in rows}
    den = draw(st.sampled_from([1, 2, 3, 7]))
    gram = GramMatrix.from_rows([[F(int(i == j), den) for j in range(n)]
                                 for i in range(n)])
    return VectorSet(gram=gram, min_norm=F(sum(x * x for x in base), den),
                     coords=tuple(sorted(rows)))


@given(_orbit_sets())
@settings(max_examples=100, deadline=None)
def test_python_int_sets_count_as_arrays_do(vs):
    twin = as_array_set(vs)
    assert vs.antipodal == twin.antipodal
    assert pair_spectrum(vs).entries == pair_spectrum(twin).entries
    half = halve_antipodal(vs) if vs.antipodal else vs
    assert (pair_spectrum(half).entries
            == pair_spectrum(as_array_set(half)).entries)


@pytest.mark.parametrize("m", [127, 128, 2**15 - 1, 2**15, 2**31 - 1, 2**31,
                               2**63 - 1, 2**63])
def test_int_hist_field_width_edges(m):
    # under diag(m, m) the self pairs of +-e1, +-e2 sit at 2m in their
    # field; 2m = 2^8, 2^16 and 2^32 need the next field width, and from
    # m = 2^63 on the set is counted by _hist_blocks
    gram = GramMatrix.from_rows([[m, 0], [0, m]])
    rows = ((-1, 0), (0, -1), (0, 1), (1, 0))
    vs = VectorSet(gram=gram, min_norm=F(m), coords=rows)
    want = {F(1): 4, F(0): 8, F(-1): 4}
    assert dict(pair_spectrum(vs).entries) == want
    assert dict(pair_spectrum(as_array_set(vs)).entries) == want
    if m < 2**63:
        assert spectrum._int_hist(rows[2:], gram.entries, m) \
            == ([0, m], [2, 2])
