"""Degree-2 harmonic embedding of point sets, certified at Gram level.

A point x on S^d maps to the function y -> g_{2,d}((x,y)), a unit vector
G_x in the d(d+3)/2-dimensional space of degree-2 spherical harmonics with
<G_x, G_y> = g_{2,d}((x,y)).  Everything here operates on inner products.
The kernel is even, so G_(-x) = G_x and the embedded set G_X' union -G_X'
is the same for every half-set X' of an antipodal X: its spectrum follows
from the pair spectrum of X alone.  Its Gram matrix (which does need a
half-set) can be realized exactly, and its 3-design property is certified
by an exact moment identity.  Float coordinates are export-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm, sqrt

import numpy as np

from .designs import moment_target, venkov_3design
from .enumeration import NotAntipodalError, VectorSet, exact_matmul
from .gegenbauer import gegenbauer
from .linalg import ldlt, psd_rank
from .spectrum import PairSpectrum


class EmbeddingError(ValueError):
    pass


def dim_harm(k: int, d: int) -> int:
    """Dimension of the space of degree-k harmonic polynomials on S^d:
    C(d+k, k) - C(d+k-2, k-2), all polynomials of degree k in d+1
    variables minus the multiples of |x|^2."""
    if k < 0 or d < 1:
        raise ValueError("need k >= 0 and d >= 1")
    return comb(d + k, k) - (comb(d + k - 2, k - 2) if k >= 2 else 0)


@dataclass(frozen=True)
class EmbeddedSpectrum:
    """Spectrum of G_X' union -G_X' viewed as a code on S^(D-1)."""

    source_d: int
    spectrum: PairSpectrum

    def __post_init__(self):
        if not self.spectrum.antipodal:
            raise EmbeddingError("embedded spectrum must be antipodal")
        if self.spectrum.d != self.target_D - 1:
            raise EmbeddingError("spectrum sphere dimension != D - 1")

    @property
    def target_D(self) -> int:
        return dim_harm(2, self.source_d)


def embed(spec: PairSpectrum) -> EmbeddedSpectrum:
    """Spectrum of G_X' union -G_X', folded from the pair spectrum of X.

    Each source product s contributes C(s)/2 at +g(s) and C(s)/2 at -g(s),
    where g is the normalized degree-2 Gegenbauer polynomial and C the
    spectrum of the antipodal set X; an odd C(s) raises EmbeddingError.
    embed(emb.spectrum) embeds an embedded code again.  A spectrum not
    flagged antipodal is read as that of a half-set X' and mirrored first.
    """
    full = spec if spec.antipodal else spec.mirrored()
    d = full.d
    g = gegenbauer(2, d)
    out: dict[Fraction, int] = {}
    for s, c in full.entries:
        if c % 2:
            raise EmbeddingError(
                f"odd count {c} at s = {s}: not an antipodal spectrum")
        val = g(s)
        out[val] = out.get(val, 0) + c // 2
        out[-val] = out.get(-val, 0) + c // 2
    emb = PairSpectrum(d=dim_harm(2, d) - 1, size=full.size,
                       antipodal=True, entries=tuple(out.items()))
    return EmbeddedSpectrum(source_d=d, spectrum=emb)


def theorem_check(emb: EmbeddedSpectrum) -> tuple[bool, Fraction, Fraction]:
    """Exact quadratic-moment identity certifying the embedded 3-design.

    lhs is the mean squared embedded inner product, rhs = 1/D =
    2/(d(d+3)); the set is a 3-design iff they agree, which is the
    antipodal 3-design criterion on S^(D-1).
    """
    holds, lhs = venkov_3design(emb.spectrum)
    return holds, lhs, moment_target(emb.spectrum.d, 2)


@dataclass(frozen=True)
class EmbeddedGram:
    """Exact Gram matrix A = entries / scale of the half-set image G_X'
    (diagonal 1, symmetric), held as integers with no common factor, so
    the Bareiss minors of its elimination stay small.

    The embedded set G_X' union -G_X' has Gram matrix
    [[A, -A], [-A, A]] = [[1, -1], [-1, 1]] (x) A, and the 2 x 2 factor
    has eigenvalues 2 and 0, so that matrix is PSD exactly when A is and
    has the same rank: A alone carries the certificate, and the positive
    scale changes neither.
    """

    source_d: int
    scale: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for i, row in enumerate(self.entries):
            if row[i] != self.scale:
                raise EmbeddingError("embedded Gram diagonal entry != 1")

    @property
    def m(self) -> int:
        """Number of embedded points, 2 |X'|."""
        return 2 * len(self.entries)

    @property
    def target_D(self) -> int:
        return dim_harm(2, self.source_d)

    def rank_certificate(self) -> tuple[bool, int]:
        """(is_psd, rank) of A, equal to those of the full embedded Gram
        matrix, proving the code lies on S^(target_D - 1)."""
        is_psd, rank = psd_rank(self.entries)
        if rank > self.target_D:
            raise EmbeddingError(
                f"embedded Gram rank {rank} exceeds dim Harm = {self.target_D}")
        return is_psd, rank


MATRIX_CAP = 512


def embedded_gram(x_halved: VectorSet, cap: int = MATRIX_CAP) -> EmbeddedGram:
    """Exact Gram matrix A = (g((x, y)))_{x, y in X'} of the half-set image.

    Row i is the embedded image of the i-th vector of x_halved; the
    negated images need no rows of their own (see EmbeddedGram).  With
    P = V (cG) V^T the integer products, m = x_halved.m the scaled min norm
    and l the common denominator of the coefficients of g, entry (i, j) is
    l m^2 g(P_ij / m), an integer, and the scale is l m^2; entries and
    scale are then divided by their gcd.  Sets larger than cap must use
    the spectrum-only pipeline (embed + theorem_check), which needs no
    |X'| x |X'| matrix.
    """
    if x_halved.antipodal:
        raise NotAntipodalError(
            "input set is antipodal; halve the set first")
    npts = x_halved.count
    if npts > cap:
        raise EmbeddingError(
            f"{npts} points exceed the matrix cap {cap}; use the "
            f"spectrum-only embedding (embed/theorem_check) instead")
    d = x_halved.sphere_dim
    coeffs = gegenbauer(2, d).coefficients      # g(t) = c0 + c2 t^2
    lden = lcm(*(c.denominator for c in coeffs))
    c0, _, c2 = (int(c * lden) for c in coeffs)
    m = x_halved.m
    v = x_halved.coords
    c0m2 = c0 * m * m
    a = [[c2 * p * p + c0m2 for p in row]
         for row in exact_matmul(v, x_halved.gram.entries, v.T).tolist()]
    # the diagonal entries equal the scale, so g divides it too
    g = gcd(*(x for row in a for x in row))
    return EmbeddedGram(source_d=d, scale=lden * m * m // g,
                        entries=tuple(tuple(x // g for x in row) for row in a))


def realize_coordinates(x_halved: VectorSet, precision: int = 12,
                        cap: int = MATRIX_CAP) -> list[tuple[float, ...]]:
    """Unit vectors in R^D reproducing the embedded Gram to 10^-precision.

    Exactness lives in the Gram matrix; this is a float export built from
    the integer LDL^T (ldlt) of the integer-scaled A, whose nonzero pivots
    give a rank factorization, verified against the exact
    products before returning.  Rows are the images of x_halved followed
    by their negatives, the same rows LDL^T of [[A, -A], [-A, A]] gives.
    """
    eg = embedded_gram(x_halved, cap=cap)
    pivots, lam = ldlt(eg.entries)
    # L[i][j] = lam[i][j] / p[j] and D[j] = p[j] / (p_prev * scale) for the
    # nonzero pivots p[j]; the other columns of L are zero
    cols = [j for j, p in enumerate(pivots) if p]
    roots = [sqrt(Fraction(pivots[j], prev * eg.scale))
             for j, prev in zip(cols, [1] + [pivots[j] for j in cols])]
    dim = eg.target_D
    if len(cols) > dim:
        raise EmbeddingError("rank factorization wider than dim Harm")
    pts = []
    for sign in (1, -1):
        # negate exactly, before rounding, so a zero stays +0.0
        for i, lrow in enumerate(lam):
            row = [float(Fraction(sign * lrow[j], pivots[j])) * r if j < i
                   else (sign * r if j == i else 0.0)
                   for j, r in zip(cols, roots)]
            row += [0.0] * (dim - len(row))
            pts.append(tuple(row))
    arr = np.array(pts)
    got = arr @ arr.T
    a = np.array([[x / eg.scale for x in row] for row in eg.entries])
    want = np.block([[a, -a], [-a, a]])
    err = float(np.abs(got - want).max())
    if err > 10.0 ** (-precision):
        raise EmbeddingError(
            f"float realization error {err:.3e} exceeds 1e-{precision}; "
            f"lower the precision requirement")
    return pts
