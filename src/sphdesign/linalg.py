"""Exact symmetric linear algebra over arbitrary-precision rationals.

A GramMatrix G is held once as integers, (c, c*G) with c the smallest
scale clearing its denominators; Fraction appears only where rationals
come in (from_rows) or a single entry is read out.  There is one
symmetric elimination, the fraction-free (Bareiss) LDL^T, one row at a
time (ldlt_row): ldlt, for the PSD rank, positive-definiteness and
Fincke-Pohst level data, the integral LLL and the float coordinate
export all run it.  invert runs the fraction-free Gauss-Jordan, which
also pivots past zeros.  No rounding; floating point never enters this
module.
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
            return all(p > 0 for p in ldlt(self.entries)[0])
        except PivotError:
            return False


def ldlt_row(a, lam, d) -> list:
    """One up-looking step of the fraction-free (Bareiss) LDL^T.

    a[j] is the row's entry in the column of the j-th row kept so far,
    lam[j] that row's multipliers and d[j + 1] its pivot (d[0] = 1); the
    last entry of a is the row's diagonal.  Returns the row's multipliers
    and, last, its pivot, zero when the row depends on the kept rows of a
    PSD matrix.  Entries may be object arrays, one per row of a batch.
    """
    u = []
    for x, v in zip(a, [*lam[:len(a) - 1], u]):
        u.append(_eliminate(x, u, v, d))
    return u


def _eliminate(x, u, v, d):
    """x after one Bareiss step per kept row, for rows with multipliers u
    and v against those rows; every division is exact."""
    for i, ui in enumerate(u):
        x = (d[i + 1] * x - ui * v[i]) // d[i]
    return x


def ldlt(a: Sequence[Sequence[int]]) -> tuple[list[int], list[list[int]]]:
    """Unpivoted fraction-free (Bareiss) LDL^T of a symmetric integer matrix.

    Only the lower triangle of a is read, one row at a time (ldlt_row).
    Returns (p, lam): p[k] is the k-th integer pivot, the leading
    principal minor of the rows and columns kept so far, and lam[i][k]
    (k < i) the scaled multiplier, so that L[i][k] = lam[i][k] / p[k] and
    D[k] = p[k] / p_prev with p_prev the last nonzero pivot before k (1 if
    none).  A zero pivot whose column is zero below it is skipped (D[k] =
    0, column k of L zero) and the previous pivot is kept; every division
    is exact.

    Raises PivotError on a zero pivot with a nonzero column below it.
    """
    kept, skipped = {}, {}      # row -> its multipliers against kept rows
    d, pivots, lam = [1], [], []
    for i, row in enumerate(a):
        row = [index(x) for x in row[:i + 1]]
        *u, pivot = ldlt_row([row[k] for k in kept] + [row[i]],
                             list(kept.values()), d)
        bad = [k for k, v in skipped.items()
               if _eliminate(row[k], u[:len(v)], v, d)]
        if bad:
            raise PivotError(
                f"zero pivot at step {bad[0]} with nonzero remainder; "
                f"the matrix is not positive semidefinite")
        full = dict(zip(kept, u))
        lam.append([full.get(k, 0) for k in range(i)])
        pivots.append(pivot)
        if pivot:
            kept[i] = u
            d.append(pivot)
        else:
            skipped[i] = u
    return pivots, lam


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
    certificate (embedding.harmonic_rank) calls it once, on the
    gcd-reduced Psi^T Psi of the Harm_2 coordinates of a rank-n lattice,
    of side n(n+1)/2.
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

    Fraction-free (Bareiss) Gauss-Jordan on [c*g | I], a row swap past
    each zero pivot: every entry stays an integer minor, every division
    is exact, and it ends at [d I | R] with d = +-det(c*g) and
    R = d (c*g)^-1.  So g^-1 = c (c*g)^-1 = c R / d, scaled here to its
    minimal integer form.  Raises LinalgError if g is singular."""
    n, c = g.n, g.scale
    a = [[*row, *(int(i == j) for j in range(n))]
         for i, row in enumerate(g.entries)]
    d = 1
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            raise LinalgError("matrix is singular")
        a[k], a[p] = a[p], a[k]
        pivot = a[k]
        for i, row in enumerate(a):
            if i != k:
                f = row[k]
                # columns left of k are never read again
                a[i][k:] = [(pivot[k] * x - f * y) // d
                            for x, y in zip(row[k:], pivot[k:])]
        d = pivot[k]
    sign = 1 if d > 0 else -1
    h = gcd(d, c * gcd(*(x for row in a for x in row[n:])))
    return GramMatrix(abs(d) // h,
                      tuple(tuple(sign * c * x // h for x in row[n:])
                            for row in a))
