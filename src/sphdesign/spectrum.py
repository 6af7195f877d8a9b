"""Exact inner-product spectra of vector sets.

The design tests downstream are functions of the pair spectrum alone, so
this module does the only O(N^2) work in the pipeline: counting ordered
pairs by exact normalized inner product.  Products are computed on
unnormalized integer vectors in machine words (with proven overflow-free
bounds), histogrammed per block, and converted to rationals once per
distinct value at the end.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from .enumeration import I64_SAFE, VectorSet, exact_matmul, halve_antipodal

_BLOCK = 2048
# any partial sum of a dot product below this is an exactly represented
# float64 integer, so BLAS matmul is bit-exact
_F64_SAFE = 2**53


class SpectrumError(ValueError):
    pass


@dataclass(frozen=True)
class PairSpectrum:
    """Ordered-pair counts by normalized inner product s = (v,w)/min_norm.

    entries is stored as a tuple of (s, count) pairs sorted by s descending;
    counts() gives dict access.  size is N = |X|; counts sum to N^2.
    """

    d: int
    size: int
    entries: tuple[tuple[Fraction, int], ...]
    antipodal: bool = False

    def __post_init__(self):
        ent = tuple(sorted(((Fraction(s), int(c)) for s, c in self.entries),
                           key=lambda e: e[0], reverse=True))
        object.__setattr__(self, "entries", ent)
        n2 = sum(c for _, c in ent)
        if n2 != self.size * self.size:
            raise SpectrumError(f"counts sum to {n2}, expected N^2 = {self.size**2}")
        counts = dict(ent)
        if counts.get(Fraction(1), 0) < self.size:
            raise SpectrumError("count at s = 1 is below N (self-pairs missing)")
        for s, c in ent:
            if abs(s) > 1:
                raise SpectrumError(f"normalized product {s} outside [-1, 1]")
            if c <= 0:
                raise SpectrumError("nonpositive count")
        if self.antipodal:
            for s, c in ent:
                if counts.get(-s) != c:
                    raise SpectrumError(
                        f"antipodal spectrum asymmetric at s = {s}")

    def counts(self) -> dict[Fraction, int]:
        return dict(self.entries)

    def mirrored(self) -> "PairSpectrum":
        """Spectrum of X union -X for this antipodal-free X:
        C(s) = 2 c(s) + 2 c(-s), an exact identity."""
        if self.antipodal:
            raise SpectrumError("spectrum is already antipodal")
        full: dict[Fraction, int] = {}
        for s, c in self.entries:
            full[s] = full.get(s, 0) + 2 * c
            full[-s] = full.get(-s, 0) + 2 * c
        return PairSpectrum(d=self.d, size=2 * self.size, antipodal=True,
                            entries=tuple(full.items()))

    def count(self, s) -> int:
        return self.counts().get(Fraction(s), 0)

    def to_triples(self) -> list[list[int]]:
        """[s_numerator, s_denominator, count] rows, s descending."""
        return [[s.numerator, s.denominator, c] for s, c in self.entries]

    @classmethod
    def from_counts(cls, d: int, counts: dict, antipodal: bool = False,
                    size: int | None = None) -> "PairSpectrum":
        total = sum(counts.values())
        n = size if size is not None else isqrt(total)
        return cls(d=d, size=n, antipodal=antipodal,
                   entries=tuple((Fraction(s), int(c)) for s, c in counts.items()))


def _hist_blocks(a: np.ndarray, v: np.ndarray, off: int, nbins: int,
                 threads: int) -> np.ndarray:
    """Histogram of all pairwise products a[i] . v[j] (a = V G precomputed).

    Counts ordered pairs one way only; caller owns any doubling.  Uses
    float64 BLAS when exactness is certified, int64 matmul otherwise.
    """
    n = a.shape[0]
    amax = int(np.abs(a).max(initial=0))
    vmax = int(np.abs(v).max(initial=0))
    k = a.shape[1]
    use_f64 = k * amax * vmax < _F64_SAFE
    if not (use_f64 or k * amax * vmax < I64_SAFE):
        # beyond machine range; exact object-dtype fallback (slow, unused
        # by the shipped catalog but keeps the contract for hostile input)
        hist = np.zeros(nbins, dtype=object)
        av = a.astype(object)
        vv = v.astype(object)
        prods = av @ vv.T
        for p in prods.ravel():
            hist[int(p) + off] += 1
        return hist.astype(np.int64)
    af = a.astype(np.float64) if use_f64 else a
    vf = v.astype(np.float64).T if use_f64 else v.T

    starts = range(0, n, _BLOCK)
    tasks = [(i, j) for i in starts for j in range(i, n, _BLOCK)]

    def run(task) -> np.ndarray:
        i, j = task
        p = af[i:i + _BLOCK] @ vf[:, j:j + _BLOCK]
        idx = p.astype(np.int64, copy=False).ravel() + off
        h = np.bincount(idx, minlength=nbins)
        if i != j:
            # mirror block: products are symmetric, count (w, v) too
            h *= 2
        return h

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run, tasks))
    else:
        parts = [run(t) for t in tasks]
    total = np.zeros(nbins, dtype=np.int64)
    for h in parts:
        total += h
    return total


def pair_spectrum(x: VectorSet, threads: int = 1) -> PairSpectrum:
    """Exact spectrum of ordered-pair normalized inner products of x.

    For antipodal sets only one representative per pair enters the O(N^2)
    pass; the full spectrum is that of the halved set, mirrored (see
    PairSpectrum.mirrored), an exact identity that quarters the work.
    """
    if x.count == 0:
        raise SpectrumError("empty vector set")
    scale, gi = x.gram.integer_entries()
    norm_scaled = x.min_norm * scale
    if norm_scaled.denominator != 1 or norm_scaled <= 0:
        raise SpectrumError(
            f"min_norm {x.min_norm} is not a positive multiple of 1/{scale}, "
            f"the Gram matrix's denominator scale")
    m = int(norm_scaled)

    work = halve_antipodal(x) if x.antipodal else x
    v = work.coords
    a = exact_matmul(v, gi)

    off = m  # |scaled product| <= scaled min norm by Cauchy-Schwarz
    nbins = 2 * m + 1
    hist = _hist_blocks(a, v, off, nbins, threads)

    counts: dict[Fraction, int] = {}
    for idx in np.nonzero(hist)[0]:
        counts[Fraction(int(idx) - off, m)] = int(hist[idx])
    spec = PairSpectrum(d=x.rank - 1, size=work.count,
                        entries=tuple(counts.items()))
    return spec.mirrored() if x.antipodal else spec
