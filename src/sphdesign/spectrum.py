"""Exact inner-product spectra of vector sets.

The design tests downstream are functions of the pair spectrum alone, so
this module does the only O(N^2) work in the pipeline: counting ordered
pairs by exact normalized inner product, on unnormalized integer vectors,
in the form the set holds its rows (enumeration.VectorSet).

A set of Python-int rows whose half (the set, if not antipodal) has at
most _INT_ROWS rows is counted by _int_hist in Python ints alone: each
row's products with every later row are the fields of one packed
integer, and numpy is never imported.  Every other set goes to
_arrays._hist_blocks (in sphdesign._arrays, imported on first use, so a
small set's count neither compiles nor loads it) on int64 arrays, in
three tiers: float32 or float64 BLAS
where a proven bound makes every partial sum an exactly represented
integer, else exact integer products (int64 under a proven bound, else
Python integers).  That pass streams cache-sized blocks of products into
one histogram per worker, the calling thread being worker 0 and each
other worker a plain thread started only for sets of at least
_STRIPES_PER_WORKER row stripes per worker.  In the float tiers the
integer product V cG is freed once its float copy exists, so the pass
holds the set, one float copy of each operand and one block buffer per
worker.  Either way the counts are converted to rationals once per
distinct value at the end.  numpy is imported on the first array
operation (see _numpy), not when this module is.
"""

from __future__ import annotations

import sys
from collections import Counter
from fractions import Fraction
from operator import mul

from ._record import Record
from .enumeration import I64_MAX, VectorSet, exact_matmul, halve_antipodal

# half-set rows up to which a set in Python-int form is counted by
# _int_hist, which it does without importing numpy (60 ms).  In ms,
# _int_hist / _hist_blocks on the first r rows of the BW16 half-set
# (medians of 7 in-process runs): r = 256: 2.5 / 0.4, 512: 9.5 / 0.7,
# 768: 22.4 / 1.6, 1024: 39.8 / 2.2, 1536: 85.5 / 6.0, 2048: 207 / 10.2
_INT_ROWS = 1024

class SpectrumError(ValueError):
    pass


class PairSpectrum(Record):
    """Ordered-pair counts by normalized inner product s = (v,w)/min_norm.

    entries is stored as a tuple of (s, count) pairs sorted by s
    descending.  size is N = |X|; counts sum to N^2.  The spectrum of a
    set closed under negation (antipodal) is symmetric, c(s) = c(-s) by
    (x, y) <-> (x, -y), and its counts are even, by (x, y) <-> (-x, -y);
    both are checked.
    """

    __slots__ = ("d", "size", "entries")

    def __init__(self, d: int, size: int,
                 entries: tuple[tuple[Fraction, int], ...]):
        self._set("d", d)
        self._set("size", size)
        ent = tuple(sorted(((Fraction(s), int(c)) for s, c in entries),
                           key=lambda e: e[0], reverse=True))
        self._set("entries", ent)
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


def _int_hist(v, g, off: int) -> tuple[list[int], list[int]]:
    """_hist_blocks for rows of Python ints: the histogram of all ordered
    pairs' products v[i] . g . v[j] (g the integer cG, every |product|
    <= off < 2^63) as (products, counts), products ascending and counts
    positive.

    Each row's products with the rows from it on come from one packed
    integer.  With fields of b = 8e bits, e in (1, 2, 4, 8) bytes the
    least with 2 off < 2^b, the columns C_k = sum_j v[j][k] 2^(b j) are
    packed once (by Horner, whatever their sign) and so are P_l =
    sum_k g[l][k] C_k; row i then gives Y_i = off E + sum_l v[i][l] P_l
    = sum_j (p_ij + off) 2^(b j), E = sum_j 2^(b j): an exact integer
    identity whose every field p_ij + off lies in [0, 2 off], so each
    field of Y_i holds one product.  Field i is the self pair (i, i);
    the bytes of fields j > i, each the pairs (i, j) and (j, i), are
    counted once all rows are done, read as native e-byte unsigned ints.
    """
    n, e = len(v), next(k for k in (1, 2, 4, 8)
                        if (2 * off).bit_length() <= 8 * k)
    b, mask = 8 * e, (1 << 8 * e) - 1
    cols = []
    for k in range(len(g)):
        c = 0
        for row in reversed(v):
            c = (c << b) + row[k]
        cols.append(c)
    packed = [sum(map(mul, gl, cols)) for gl in g]
    y0 = off * ((1 << b * n) - 1) // mask
    self_pairs, buf = Counter(), bytearray()
    for i, row in enumerate(v):
        y = y0
        for x, pl in zip(row, packed):
            if x:
                y += x * pl
        y >>= b * i
        self_pairs[y & mask] += 1
        buf += (y >> b).to_bytes((n - 1 - i) * e, sys.byteorder)
    pairs = Counter(memoryview(buf).cast("BHIQ"[e.bit_length() - 1]))
    hist = sorted((pairs + pairs + self_pairs).items())
    return [k - off for k, _ in hist], [c for _, c in hist]


def pair_spectrum(x: VectorSet, threads: int = 1) -> PairSpectrum:
    """Exact spectrum of ordered-pair normalized inner products of x.

    For antipodal sets only the canonical half X' (halve_antipodal)
    enters the O(N^2) pass, which quarters the work; the spectrum of
    X = X' union -X' follows from that of X' by the exact identity
    C(s) = 2 c(s) + 2 c(-s).  A set of Python-int rows whose pass has at
    most _INT_ROWS rows, and whose scaled min norm fits in int64, is
    counted by _int_hist on the calling thread; any other pass runs on
    at most threads workers (_hist_blocks): the calling thread and up to
    threads - 1 plain threads.
    """
    if x.count == 0:
        raise SpectrumError("empty vector set")
    v = halve_antipodal(x) if x.antipodal else x
    # |scaled product| <= m, the scaled min norm, by Cauchy-Schwarz
    if (isinstance(v.coords, tuple) and v.count <= _INT_ROWS
            and x.m <= I64_MAX):
        vals, hist = _int_hist(v.coords, x.gram.entries, x.m)
    else:
        from . import _arrays   # imported on first use
        v = v.array
        # a = V cG is handed over, not kept, so _hist_blocks can free it
        vals, hist = _arrays._hist_blocks(exact_matmul(v, x.gram.entries),
                                          v, x.m, threads)
    counts = {int(p): int(c) for p, c in zip(vals, hist)}
    if x.antipodal:
        counts = {p: 2 * counts.get(p, 0) + 2 * counts.get(-p, 0)
                  for p in {*counts, *(-p for p in counts)}}
    return PairSpectrum(d=x.rank - 1, size=x.count, entries=tuple(
        (Fraction(p, x.m), c) for p, c in counts.items()))
