"""Exact inner-product spectra of vector sets.

The design tests downstream are functions of the pair spectrum alone, so
this module does the only O(N^2) work in the pipeline: counting ordered
pairs by exact normalized inner product.  Products are computed on
unnormalized integer vectors in three tiers: float32 or float64 BLAS where
a proven bound makes every partial sum an exactly represented integer,
else exact integer products (int64 under a proven bound, else Python
integers).  The pass streams cache-sized blocks of products into one
histogram per worker, the calling thread being worker 0 and each other
worker a plain thread, and the counts are converted to rationals once per
distinct value at the end.  numpy is imported on the first array
operation (see _numpy), not when this module is.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction

from ._numpy import np
from .enumeration import I64_MAX, VectorSet, exact_matmul, halve_antipodal

# rows per product block: a float32 block, its int64 bin indices and the
# row and column stripes it multiplies stay inside a core's L2 cache
_BLOCK = 256
# any partial sum of a dot product below these is an exactly represented
# float32 / float64 integer, so BLAS matmul is bit-exact
_F32_SAFE = 2**24
_F64_SAFE = 2**53


class SpectrumError(ValueError):
    pass


@dataclass(frozen=True)
class PairSpectrum:
    """Ordered-pair counts by normalized inner product s = (v,w)/min_norm.

    entries is stored as a tuple of (s, count) pairs sorted by s
    descending.  size is N = |X|; counts sum to N^2.  The spectrum of a
    set closed under negation (antipodal) is symmetric, c(s) = c(-s) by
    (x, y) <-> (x, -y), and its counts are even, by (x, y) <-> (-x, -y);
    both are checked.
    """

    d: int
    size: int
    entries: tuple[tuple[Fraction, int], ...]

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
                if c % 2:
                    raise SpectrumError(
                        f"odd count {c} at s = {s}: not an antipodal spectrum")

    @property
    def antipodal(self) -> bool:
        """Whether the set is closed under negation: c(-1) = c(1).  With
        k_v the multiplicity of v, c(1) = sum k_v^2 and c(-1) =
        sum k_v k_(-v), equal exactly when every k_v = k_(-v)
        (Cauchy-Schwarz)."""
        counts = dict(self.entries)
        return counts.get(Fraction(-1), 0) == counts.get(Fraction(1), 0)

    @property
    def abs_products(self) -> tuple[Fraction, ...]:
        """The distinct |s| != 1 ascending: the code's inner products."""
        return tuple(sorted({abs(s) for s, _ in self.entries if abs(s) != 1}))

    @property
    def a(self) -> Fraction:
        """Max |s| != 1, 0 if none: a of the code (d + 1, size, a)."""
        return max(self.abs_products, default=Fraction(0))

    def to_triples(self) -> list[list[int]]:
        """[s_numerator, s_denominator, count] rows, s descending."""
        return [[s.numerator, s.denominator, c] for s, c in self.entries]


def _hist_blocks(a: np.ndarray, v: np.ndarray, off: int,
                 threads: int) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of all pairwise products a[i] . v[j] (a = V G precomputed)
    as (products, counts), products ascending and counts positive.

    Counts ordered pairs one way only; caller owns any doubling.  The rows
    are cut into stripes of _BLOCK rows, and one product block pairs a row
    stripe with a column stripe at or right of it, so it stays cache-sized
    and is reused for every block a worker computes.  Each of the
    min(threads, stripes) workers owns every workers-th row stripe (the
    triangle of blocks then splits about evenly) and counts into its own
    histogram, with off-diagonal blocks counted twice; the worker
    histograms are summed once at the end.  The calling thread runs worker
    0 and one plain threading.Thread runs each other worker; once every
    worker is joined, the exception of the lowest-numbered failing worker,
    if any, is re-raised.

    Products come from float32 BLAS when k max|a| max|v| < 2^24, from
    float64 BLAS when it is below 2^53 (either bound makes every partial
    sum an exactly represented integer, so the product is bit-exact), and
    else from exact_matmul on each block.  Every product p has |p| <= off.
    When the 2 off + 1 possible values are no more than a block's
    products, a worker bincounts p + off into a dense int64 histogram;
    otherwise it sorts the values each block realizes, as Python ints once
    off is past int64, so memory never grows with off.
    """
    n, k = a.shape
    amax = int(np.abs(a).max(initial=0))
    vmax = int(np.abs(v).max(initial=0))
    bound = k * amax * vmax
    ftype = (np.float32 if bound < _F32_SAFE
             else np.float64 if bound < _F64_SAFE else None)
    if ftype is not None:
        a = a.astype(ftype)
        vt = np.ascontiguousarray(v.T, dtype=ftype)
    else:
        vt = v.T
    side = min(_BLOCK, n)
    bins = 2 * off + 1
    dense = bins <= side * side
    stripes = range(0, n, _BLOCK)
    workers = min(threads, len(stripes))

    def run(first: int) -> np.ndarray | list[tuple[np.ndarray, np.ndarray]]:
        if ftype is not None:
            buf = np.empty(side * side, dtype=ftype)
        if dense:
            index = np.empty(side * side, dtype=np.int64)
            hist = np.zeros(bins, dtype=np.int64)
        else:
            parts = []
        for i in stripes[first::workers]:
            rows = a[i:i + _BLOCK]
            for j in range(i, n, _BLOCK):
                cols = vt[:, j:j + _BLOCK]
                size = rows.shape[0] * cols.shape[1]
                if ftype is not None:
                    p = np.matmul(rows, cols, out=buf[:size].reshape(
                        rows.shape[0], cols.shape[1])).ravel()
                else:
                    p = exact_matmul(rows, cols).ravel()
                if dense:
                    h = np.bincount(np.add(p, off, out=index[:size],
                                           dtype=np.int64, casting="unsafe"),
                                    minlength=bins)
                    hist += h
                    if i != j:
                        # mirror block: products are symmetric
                        hist += h
                else:
                    vals, cnt = np.unique(
                        p.astype(np.int64 if off <= I64_MAX else object,
                                 copy=False),
                        return_counts=True)
                    parts.append((vals, cnt if i == j else 2 * cnt))
        return hist if dense else parts

    results: list = [None] * workers
    errors: list = [None] * workers

    def work(first: int) -> None:
        try:
            results[first] = run(first)
        except BaseException as exc:
            errors[first] = exc

    pool = [threading.Thread(target=work, args=(first,))
            for first in range(1, workers)]
    try:
        for thread in pool:
            thread.start()
        work(0)
    finally:
        for thread in pool:
            if thread.ident is not None:
                thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    if dense:
        hist = sum(results)
        vals = np.flatnonzero(hist)
        return vals - off, hist[vals]
    parts = [part for worker in results for part in worker]
    vals, where = np.unique(np.concatenate([p for p, _ in parts]),
                            return_inverse=True)
    total = np.zeros(len(vals), dtype=np.int64)
    np.add.at(total, where, np.concatenate([c for _, c in parts]))
    return vals, total


def pair_spectrum(x: VectorSet, threads: int = 1) -> PairSpectrum:
    """Exact spectrum of ordered-pair normalized inner products of x.

    For antipodal sets only the canonical half X' (halve_antipodal)
    enters the O(N^2) pass, which quarters the work; the spectrum of
    X = X' union -X' follows from that of X' by the exact identity
    C(s) = 2 c(s) + 2 c(-s).  The pass runs on at most threads workers
    (_hist_blocks): the calling thread and up to threads - 1 plain
    threads.
    """
    if x.count == 0:
        raise SpectrumError("empty vector set")
    v = halve_antipodal(x).coords if x.antipodal else x.coords
    a = exact_matmul(v, x.gram.entries)

    # |scaled product| <= m, the scaled min norm, by Cauchy-Schwarz
    vals, hist = _hist_blocks(a, v, x.m, threads)
    counts = {int(p): int(c) for p, c in zip(vals, hist)}
    if x.antipodal:
        counts = {p: 2 * counts.get(p, 0) + 2 * counts.get(-p, 0)
                  for p in {*counts, *(-p for p in counts)}}
    return PairSpectrum(d=x.rank - 1, size=x.count, entries=tuple(
        (Fraction(p, x.m), c) for p, c in counts.items()))
