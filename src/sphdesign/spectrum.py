"""Exact inner-product spectra of vector sets.

The design tests downstream are functions of the pair spectrum alone, so
this module does the only O(N^2) work in the pipeline: counting ordered
pairs by exact normalized inner product.  Products are computed on
unnormalized integer vectors, in machine words where a proven bound
certifies them exact and in Python integers otherwise, histogrammed per
block, and converted to rationals once per distinct value at the end.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from .enumeration import I64_MAX, VectorSet, exact_matmul, halve_antipodal

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


def _hist_blocks(a: np.ndarray, v: np.ndarray, off: int,
                 threads: int) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of all pairwise products a[i] . v[j] (a = V G precomputed)
    as (products, counts), products ascending and counts positive.

    Counts ordered pairs one way only; caller owns any doubling.  Uses
    float64 BLAS when k max|a| max|v| < 2^53 certifies it exact, else
    exact_matmul on each block.  Every product p has |p| <= off, so a block
    casts to int64 when off fits in it.  A block bincounts the 2 off + 1
    possible values when they are no more than its products, and else
    sorts the products it has, so memory never grows with off.
    """
    n, k = a.shape
    amax = int(np.abs(a).max(initial=0))
    vmax = int(np.abs(v).max(initial=0))
    use_f64 = k * amax * vmax < _F64_SAFE
    af = a.astype(np.float64) if use_f64 else a
    vf = v.astype(np.float64).T if use_f64 else v.T
    product = np.matmul if use_f64 else exact_matmul

    starts = range(0, n, _BLOCK)
    tasks = [(i, j) for i in starts for j in range(i, n, _BLOCK)]

    def run(task) -> tuple[np.ndarray, np.ndarray]:
        i, j = task
        p = product(af[i:i + _BLOCK], vf[:, j:j + _BLOCK])
        p = p.astype(np.int64 if off <= I64_MAX else object, copy=False).ravel()
        if 2 * off < p.size:
            h = np.bincount(p + off, minlength=2 * off + 1)
            vals = np.flatnonzero(h)
            vals, cnt = vals - off, h[vals]
        else:
            vals, cnt = np.unique(p, return_counts=True)
        if i != j:
            # mirror block: products are symmetric, count (w, v) too
            cnt *= 2
        return vals, cnt

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run, tasks))
    else:
        parts = [run(t) for t in tasks]
    vals, where = np.unique(np.concatenate([p for p, _ in parts]),
                            return_inverse=True)
    total = np.zeros(len(vals), dtype=np.int64)
    np.add.at(total, where, np.concatenate([c for _, c in parts]))
    return vals, total


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

    # |scaled product| <= m, the scaled min norm, by Cauchy-Schwarz
    vals, hist = _hist_blocks(a, v, m, threads)
    counts = {Fraction(int(p), m): int(c) for p, c in zip(vals, hist)}
    spec = PairSpectrum(d=x.rank - 1, size=work.count,
                        entries=tuple(counts.items()))
    return spec.mirrored() if x.antipodal else spec
