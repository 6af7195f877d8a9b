"""Exact symmetric linear algebra over arbitrary-precision rationals.

GramMatrix entries are ``fractions.Fraction`` (always in lowest terms,
positive denominator).  There is one symmetric elimination, ldlt: a
fraction-free (Bareiss) LDL^T of an integer matrix, whose pivots and
multipliers the PSD rank certificate, the positive-definiteness check, the
Fincke-Pohst level data and the float coordinate export all read.  No
rounding anywhere; floating point never enters this module.
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


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected exact rational, got {type(x).__name__}")


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric matrix of exact rationals defining an inner-product structure."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        rows = tuple(tuple(_as_fraction(x) for x in row) for row in self.entries)
        for row in rows:
            if len(row) != n:
                raise LinalgError("matrix is not square")
        for i in range(n):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise LinalgError(f"matrix is not symmetric at ({i},{j})")
        object.__setattr__(self, "entries", rows)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "GramMatrix":
        return cls(tuple(tuple(_as_fraction(x) for x in row) for row in rows))

    @classmethod
    def identity(cls, n: int) -> "GramMatrix":
        one, zero = Fraction(1), Fraction(0)
        return cls(tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)))

    @property
    def n(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i]

    def denominator_scale(self) -> int:
        """Smallest positive integer c with c * self integral."""
        return lcm(*(x.denominator for row in self.entries for x in row), 1)

    def integer_entries(self) -> tuple[int, list[list[int]]]:
        """Return (c, c*self) with c the denominator scale and the result integral."""
        c = self.denominator_scale()
        return c, [[int(x * c) for x in row] for row in self.entries]

    def quadratic_form(self, v: Sequence[int]) -> Fraction:
        """v^T * self * v, exact."""
        rows = self.entries
        total = Fraction(0)
        for i, vi in enumerate(v):
            if vi:
                total += vi * sum(rows[i][j] * vj for j, vj in enumerate(v) if vj)
        return total

    def is_positive_definite(self) -> bool:
        """Sylvester's criterion: every leading principal minor of c*self,
        i.e. every pivot of its integer LDL^T, is positive."""
        try:
            pivots, _ = ldlt(self.integer_entries()[1])
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

    Raises LinalgError unless a is square and symmetric.  The entries are
    divided by their gcd first, which changes neither the verdict nor the
    rank but keeps the Bareiss minors small.  The one integer elimination
    is ldlt: a is PSD exactly when it raises no PivotError (a PSD matrix
    has a zero column below every zero pivot) and every nonzero pivot is
    positive, and the rank is the number of nonzero pivots.  After a
    PivotError, a is not PSD and its rank comes from row elimination.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise LinalgError("matrix is not square")
    for i in range(n):
        for j in range(i):
            if a[i][j] != a[j][i]:
                raise LinalgError(f"matrix is not symmetric at ({i},{j})")
    g = gcd(*(x for row in a for x in row)) or 1
    b = [[index(x) // g for x in row] for row in a]
    try:
        pivots, _ = ldlt(b)
    except PivotError:
        return False, _row_rank(b)
    return all(p >= 0 for p in pivots), sum(1 for p in pivots if p)


def _row_rank(a: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free row elimination."""
    a = [row[:] for row in a]
    m = len(a)
    ncols = len(a[0]) if m else 0
    rank = 0
    prev = 1
    row = 0
    for col in range(ncols):
        p = next((i for i in range(row, m) if a[i][col] != 0), None)
        if p is None:
            continue
        a[row], a[p] = a[p], a[row]
        pivot = a[row][col]
        for i in range(row + 1, m):
            aic = a[i][col]
            for j in range(col, ncols):
                a[i][j] = (pivot * a[i][j] - aic * a[row][j]) // prev
        prev = pivot
        rank += 1
        row += 1
        if row == m:
            break
    return rank


def invert(g: GramMatrix) -> GramMatrix:
    """Exact inverse; g * invert(g) == identity entrywise."""
    n = g.n
    a = [list(row) + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
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
    return GramMatrix(tuple(tuple(row[n:]) for row in a))


def matmul(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]):
    """Exact rational matrix product as nested tuples."""
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )
