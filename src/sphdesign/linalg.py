"""Exact symmetric linear algebra over arbitrary-precision rationals.

Scalars are ``fractions.Fraction`` (always in lowest terms, positive
denominator), except in psd_rank, which takes an integer matrix: no
rounding anywhere.  Floating point never enters this module.
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
    """Plain LDL^T hit a zero pivot with nonzero remainder; requires the
    pivoted variant (psd_rank)."""


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
        try:
            _, diag = ldlt(self)
        except PivotError:
            return False
        return all(d > 0 for d in diag)


def ldlt(g: GramMatrix) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[Fraction, ...]]:
    """Unpivoted LDL^T factorization: returns (L, D) with L unit lower triangular
    and L*diag(D)*L^T == g exactly.

    Raises PivotError on a zero pivot with nonzero remainder below it; that
    case needs the symmetrically pivoted psd_rank instead.
    """
    n = g.n
    a = [list(row) for row in g.entries]
    L = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    d: list[Fraction] = []
    for k in range(n):
        pivot = a[k][k]
        if pivot == 0:
            if any(a[i][k] != 0 for i in range(k + 1, n)):
                raise PivotError(
                    f"zero pivot at step {k} with nonzero remainder; requires pivoted variant"
                )
            d.append(Fraction(0))
            continue
        d.append(pivot)
        for i in range(k + 1, n):
            L[i][k] = a[i][k] / pivot
        for i in range(k + 1, n):
            lik = L[i][k]
            if lik == 0:
                continue
            arow_i = a[i]
            for j in range(k + 1, i + 1):
                arow_i[j] -= lik * a[j][k]
    return tuple(tuple(row) for row in L), tuple(d)


def psd_rank(a: Sequence[Sequence[int]]) -> tuple[bool, int]:
    """Exact PSD verdict and rank of a symmetric integer matrix.

    Raises LinalgError unless a is square and symmetric.  The entries are
    divided by their gcd first, which changes neither the verdict nor the
    rank but keeps the Bareiss minors small.  The elimination is
    symmetrically pivoted, picking the largest remaining |diagonal| entry,
    which terminates correctly for PSD rank-deficient inputs, and runs
    fraction-free (Bareiss), so only exact integer arithmetic is used.
    Only the lower triangle is stored and updated, and nothing is swapped:
    low[t] holds the entries of the t-th remaining index against the
    remaining indices up to t, and a pivot's row and column are dropped.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise LinalgError("matrix is not square")
    for i in range(n):
        for j in range(i):
            if a[i][j] != a[j][i]:
                raise LinalgError(f"matrix is not symmetric at ({i},{j})")
    g = gcd(*(x for row in a for x in row)) or 1
    low = [[index(x) // g for x in row[:i + 1]] for i, row in enumerate(a)]
    rank = 0
    is_psd = True
    prev_pivot = 1
    while low:
        q = max(range(len(low)), key=lambda t: abs(low[t][t]))
        pivot = low[q][q]
        if pivot == 0:
            if not any(any(row) for row in low):
                break
            # symmetric matrix with zero diagonal but nonzero block: not PSD,
            # and diagonal pivoting cannot finish -- count rank unsymmetrically
            m = len(low)
            rest = [[low[t][u] if u <= t else low[u][t] for u in range(m)]
                    for t in range(m)]
            return False, rank + _row_rank(rest)
        # the Bareiss pivot is a leading principal minor of the pivoted
        # matrix; the true LDL^T pivot is pivot/prev_pivot
        if pivot * prev_pivot < 0:
            is_psd = False
        rank += 1
        col = low[q][:q] + [row[q] for row in low[q + 1:]]
        del low[q]
        for row in low[q:]:
            del row[q]
        low = [[(pivot * x - ct * cu) // prev_pivot for x, cu in zip(row, col)]
               for row, ct in zip(low, col)]
        prev_pivot = pivot
    return is_psd, rank


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
