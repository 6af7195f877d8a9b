"""Exact symmetric linear algebra over arbitrary-precision rationals.

A GramMatrix G is held once as integers, (c, c*G) with c the smallest
scale clearing its denominators; Fraction appears only where rationals
come in (from_rows, invert) or a single entry is read out.  There is one
symmetric elimination, ldlt: a fraction-free (Bareiss) LDL^T of an integer
matrix, whose pivots and multipliers the PSD rank certificate, the
positive-definiteness check, the Fincke-Pohst level data and the float
coordinate export all read.  No rounding anywhere; floating point never
enters this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import index
from typing import Iterable, Sequence


class LinalgError(ValueError):
    """Structural error: non-symmetric, singular, or unsupported input."""


class PivotError(LinalgError):
    """LDL^T hit a zero pivot with nonzero remainder: the matrix is not
    positive semidefinite."""


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric rational matrix G held as integers: scale is the smallest
    c > 0 with c*G integral and entries are the int rows of c*G.

    The constructor rejects a non-square or non-symmetric matrix, non-int
    entries and a scale that is not positive or not minimal (one sharing
    a factor with every entry); from_rows builds one from rationals.
    """

    scale: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.entries)
        n = len(rows)
        if not isinstance(self.scale, int) or self.scale <= 0:
            raise LinalgError(f"scale must be a positive int, got {self.scale!r}")
        for row in rows:
            if len(row) != n:
                raise LinalgError("matrix is not square")
            if not all(isinstance(x, int) for x in row):
                raise LinalgError("scaled entries must be int")
        for i in range(n):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise LinalgError(f"matrix is not symmetric at ({i},{j})")
        if gcd(self.scale, *(x for row in rows for x in row)) != 1:
            raise LinalgError(f"scale {self.scale} is not minimal")
        object.__setattr__(self, "entries", rows)

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

    def is_positive_definite(self) -> bool:
        """Sylvester's criterion: every leading principal minor of c*self,
        i.e. every pivot of its integer LDL^T, is positive."""
        try:
            pivots, _ = ldlt(self.entries)
        except PivotError:
            return False
        return all(p > 0 for p in pivots)


def ldlt(a: Sequence[Sequence[int]]) -> tuple[list[int], list[list[int]]]:
    """Unpivoted fraction-free (Bareiss) LDL^T of a symmetric integer matrix.

    Only the lower triangle of a is read.  Returns (p, lam): p[k] is the
    k-th integer pivot, the leading principal minor of the rows and
    columns kept so far, and lam[i][k] (k < i) the scaled multiplier, so
    that L[i][k] = lam[i][k] / p[k] and D[k] = p[k] / p_prev with p_prev
    the last nonzero pivot before k (1 if none).  A zero pivot whose
    column is zero below it is skipped (D[k] = 0, column k of L zero) and
    the previous pivot is kept; every division is exact.

    Raises PivotError on a zero pivot with a nonzero column below it.
    """
    n = len(a)
    low = [[index(x) for x in row[:i + 1]] for i, row in enumerate(a)]
    prev = 1
    for k in range(n):
        pivot = low[k][k]
        col = [low[i][k] for i in range(k + 1, n)]
        if pivot == 0:
            if any(col):
                raise PivotError(
                    f"zero pivot at step {k} with nonzero remainder; "
                    f"the matrix is not positive semidefinite")
            continue
        for i, ct in enumerate(col, start=k + 1):
            row = low[i]
            row[k + 1:] = [(pivot * x - ct * cu) // prev
                           for x, cu in zip(row[k + 1:], col)]
        prev = pivot
    pivots = [row.pop() for row in low]     # the diagonal; low keeps lam
    return pivots, low


def psd_rank(a: Sequence[Sequence[int]]) -> tuple[bool, int]:
    """Exact PSD verdict and rank of a symmetric integer matrix.

    Raises LinalgError unless a is square and symmetric.  The one integer
    elimination is ldlt: a is PSD exactly when it raises no PivotError (a
    PSD matrix has a zero column below every zero pivot) and every nonzero
    pivot is positive, and the rank is the number of nonzero pivots.
    After a PivotError, a is not PSD and its rank is that of a^T a, which
    is PSD with the same rank over Q, so ldlt never raises on it.  A
    caller keeps the Bareiss minors small by dividing a by the gcd of its
    entries first, which changes neither answer.  The embedded rank
    certificate (embedding.harmonic_rank) calls it twice, on matrices of
    side n(n+1)/2 for a rank-n lattice: the Gram matrix of its Harm_2
    coordinate basis, for the PSD verdict, and the gcd-reduced Psi^T Psi
    of the coordinates, for the rank.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise LinalgError("matrix is not square")
    for i in range(n):
        for j in range(i):
            if a[i][j] != a[j][i]:
                raise LinalgError(f"matrix is not symmetric at ({i},{j})")
    try:
        pivots, _ = ldlt(a)
    except PivotError:
        # a is symmetric: (a^T a)_ij is the product of rows i and j
        ata = [[sum(x * y for x, y in zip(r, t)) for t in a] for r in a]
        return False, sum(1 for p in ldlt(ata)[0] if p)
    return all(p >= 0 for p in pivots), sum(1 for p in pivots if p)


def invert(g: GramMatrix) -> GramMatrix:
    """Exact inverse; g * invert(g) == identity entrywise.

    Gauss-Jordan on the integer rows of c*g, whose inverse times c is the
    inverse of g."""
    n = g.n
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(g.entries)]
    for col in range(n):
        p = next((i for i in range(col, n) if a[i][col] != 0), None)
        if p is None:
            raise LinalgError("matrix is singular")
        a[col], a[p] = a[p], a[col]
        pivot = a[col][col]
        a[col] = [x / pivot for x in a[col]]
        for i in range(n):
            if i != col and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return GramMatrix.from_rows([[g.scale * x for x in row[n:]] for row in a])
