"""Exact symmetric linear algebra over arbitrary-precision rationals.

A GramMatrix G is positive definite and held once as integers, (c, c*G)
with c the smallest scale clearing its denominators; Fraction appears
only where rationals come in (from_rows) or a single entry is read out.
There is one symmetric elimination, the fraction-free (Bareiss) LDL^T,
one row at a time (ldlt_row): ldlt, for the positive-definiteness check
every GramMatrix passes and the frame of the float coordinate export,
psd_rank and the integral LLL (which leaves the Fincke-Pohst level data)
all run it.  invert runs the fraction-free Gauss-Jordan.  No rounding;
floating point never enters this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import index
from typing import Iterable, Sequence

from ._record import Record


class LinalgError(ValueError):
    """Structural error: non-square, non-symmetric or unsupported input."""


class PivotError(LinalgError):
    """LDL^T hit a pivot <= 0: the matrix is not positive definite."""


class GramMatrix(Record):
    """Positive definite rational matrix G held as integers: scale is the
    smallest c > 0 with c*G integral and entries are the int rows of c*G.

    The constructor rejects a non-square or non-symmetric matrix, non-int
    entries, a scale that is not positive or not minimal (one sharing a
    factor with every entry) and, raising PivotError from ldlt, a matrix
    that is not positive definite; from_rows builds one from rationals.
    """

    __slots__ = ("scale", "entries")

    def __init__(self, scale: int, entries: Iterable[Iterable[int]]):
        rows = tuple(tuple(row) for row in entries)
        n = len(rows)
        if not isinstance(scale, int) or scale <= 0:
            raise LinalgError(f"scale must be a positive int, got {scale!r}")
        for row in rows:
            if len(row) != n:
                raise LinalgError("matrix is not square")
            if not all(isinstance(x, int) for x in row):
                raise LinalgError("scaled entries must be int")
        for i in range(n):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise LinalgError(f"matrix is not symmetric at ({i},{j})")
        if gcd(scale, *(x for row in rows for x in row)) != 1:
            raise LinalgError(f"scale {scale} is not minimal")
        ldlt(rows)
        self._set("scale", scale)
        self._set("entries", rows)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "GramMatrix":
        """GramMatrix of exact rationals (int, Fraction or "p/q" text);
        floats are rejected."""
        frows = []
        for row in rows:
            frow = []
            for x in row:
                if not isinstance(x, (int, Fraction, str)):
                    raise TypeError(
                        f"expected exact rational, got {type(x).__name__}")
                frow.append(Fraction(x))
            frows.append(frow)
        c = lcm(1, *(x.denominator for row in frows for x in row))
        return cls(c, tuple(tuple(int(x * c) for x in row) for row in frows))

    @classmethod
    def identity(cls, n: int) -> "GramMatrix":
        return cls(1, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @property
    def n(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return Fraction(self.entries[i][j], self.scale)


def ldlt_row(a, lam, d) -> list:
    """One up-looking step of the fraction-free (Bareiss) LDL^T.

    a[j] is the row's entry in the column of the j-th row kept so far,
    lam[j] that row's multipliers and d[j + 1] its pivot (d[0] = 1); the
    last entry of a is the row's diagonal.  Returns the row's multipliers
    and, last, its pivot, zero when the row depends on the kept rows of a
    PSD matrix.
    """
    u = []
    for x, v in zip(a, [*lam[:len(a) - 1], u]):
        # one Bareiss step per kept row; every division is exact
        for i, ui in enumerate(u):
            x = (d[i + 1] * x - ui * v[i]) // d[i]
        u.append(x)
    return u


def ldlt(a: Sequence[Sequence[int]]) -> tuple[list[int], list[list[int]]]:
    """Unpivoted fraction-free (Bareiss) LDL^T of a positive definite
    integer matrix.

    Only the lower triangle of a is read, one row at a time (ldlt_row).
    Returns (p, lam): p[k] is the k-th integer pivot, the leading
    principal minor of order k + 1, and lam[i][k] (k < i) the scaled
    multiplier, so that L[i][k] = lam[i][k] / p[k] and
    D[k] = p[k] / p[k - 1] (p[-1] = 1); every division is exact.

    Raises PivotError at the first pivot <= 0: by Sylvester's criterion
    a is then not positive definite.
    """
    d, lam = [1], []
    for i, row in enumerate(a):
        *u, pivot = ldlt_row([index(x) for x in row[:i + 1]], lam, d)
        if pivot <= 0:
            raise PivotError("gram matrix is not positive definite")
        lam.append(u)
        d.append(pivot)
    return d[1:], lam


def psd_rank(a: Sequence[Sequence[int]]) -> int:
    """Rank of a Gram matrix a: a symmetric, positive semidefinite
    integer matrix.

    Raises LinalgError unless a is square and symmetric.  Each row is
    eliminated against the rows kept so far (ldlt_row): a row of a PSD
    matrix with a zero pivot depends on the kept rows, so the rank is the
    number of rows kept.  A caller keeps the Bareiss minors small by
    dividing a by the gcd of its entries first, which keeps the rank.  The
    embedded rank certificate (embedding.harmonic_rank) calls it once, on
    the gcd-reduced Psi^T Psi of the Harm_2 coordinates of a rank-n
    lattice, of side n(n+1)/2.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise LinalgError("matrix is not square")
    for i in range(n):
        for j in range(i):
            if a[i][j] != a[j][i]:
                raise LinalgError(f"matrix is not symmetric at ({i},{j})")
    kept, d, lam = [], [1], []
    for i, row in enumerate(a):
        *u, pivot = ldlt_row([row[k] for k in kept] + [row[i]], lam, d)
        if pivot:
            kept.append(i)
            d.append(pivot)
            lam.append(u)
    return len(kept)


def invert(g: GramMatrix) -> GramMatrix:
    """Exact inverse; g * invert(g) == identity entrywise.

    Fraction-free (Bareiss) Gauss-Jordan on [c*g | I]: the k-th pivot is
    the leading principal minor of order k + 1 of c*g, positive since g
    is positive definite, so no row is swapped.  Every entry stays an
    integer minor, every division is exact, and it ends at [d I | R] with
    d = det(c*g) and R = d (c*g)^-1.  So g^-1 = c (c*g)^-1 = c R / d,
    scaled here to its minimal integer form."""
    n, c = g.n, g.scale
    a = [[*row, *(int(i == j) for j in range(n))]
         for i, row in enumerate(g.entries)]
    d = 1
    for k, pivot in enumerate(a):
        for i, row in enumerate(a):
            if i != k:
                f = row[k]
                # columns left of k are never read again
                a[i][k:] = [(pivot[k] * x - f * y) // d
                            for x, y in zip(row[k:], pivot[k:])]
        d = pivot[k]
    h = gcd(d, c * gcd(*(x for row in a for x in row[n:])))
    return GramMatrix(d // h, tuple(tuple(c * x // h for x in row[n:])
                                    for row in a))
