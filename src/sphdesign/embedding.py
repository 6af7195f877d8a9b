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
from math import comb, sqrt

import numpy as np

from .designs import moment_target, venkov_3design
from .enumeration import NotAntipodalError, VectorSet, exact_matmul
from .gegenbauer import gegenbauer
from .linalg import GramMatrix, ldlt, psd_rank
from .spectrum import PairSpectrum


class EmbeddingError(ValueError):
    pass


def dim_harm(k: int, d: int) -> int:
    """Dimension of the space of degree-k harmonic polynomials on S^d."""
    if k < 0 or d < 1:
        raise ValueError("need k >= 0 and d >= 1")
    if k == 0:
        return 1
    val = Fraction(2 * k + d - 1, k + d - 1) * comb(d + k - 1, k)
    assert val.denominator == 1
    return int(val)


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
    g1 = g.at_one()
    out: dict[Fraction, int] = {}
    for s, c in full.entries:
        if c % 2:
            raise EmbeddingError(
                f"odd count {c} at s = {s}: not an antipodal spectrum")
        val = g(s) / g1
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
    """Exact Gram matrix of G_X' union -G_X' (diagonal 1, symmetric)."""

    source_d: int
    gram: GramMatrix

    def __post_init__(self):
        for i in range(self.gram.n):
            if self.gram[i, i] != 1:
                raise EmbeddingError("embedded Gram diagonal entry != 1")

    @property
    def m(self) -> int:
        return self.gram.n

    @property
    def target_D(self) -> int:
        return dim_harm(2, self.source_d)

    def rank_certificate(self) -> tuple[bool, int]:
        """(is_psd, rank), proving the code lies on S^(target_D - 1)."""
        is_psd, rank = psd_rank(self.gram)
        if rank > self.target_D:
            raise EmbeddingError(
                f"embedded Gram rank {rank} exceeds dim Harm = {self.target_D}")
        return is_psd, rank


MATRIX_CAP = 512


def _source_products(x_halved: VectorSet) -> list[list[Fraction]]:
    scale, gi = x_halved.gram.integer_entries()
    m = int(x_halved.min_norm * scale)
    v = x_halved.coords
    rows = exact_matmul(v, gi, v.T).tolist()
    return [[Fraction(int(p), m) for p in row] for row in rows]


def embedded_gram(x_halved: VectorSet, cap: int = MATRIX_CAP) -> EmbeddedGram:
    """Full exact Gram matrix of the mirrored embedded set.

    Row layout: the |X'| embedded points followed by their negatives.
    Sets larger than cap must use the spectrum-only pipeline (embed +
    theorem_check), which needs no m x m matrix.
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
    g = gegenbauer(2, d)
    g1 = g.at_one()
    cache: dict[Fraction, Fraction] = {}

    def gval(s: Fraction) -> Fraction:
        if s not in cache:
            cache[s] = g(s) / g1
        return cache[s]

    prods = _source_products(x_halved)
    a = [[gval(s) for s in row] for row in prods]
    top = [row + [-e for e in row] for row in a]
    bottom = [[-e for e in row] + list(row) for row in a]
    return EmbeddedGram(source_d=d, gram=GramMatrix.from_rows(top + bottom))


def realize_coordinates(x_halved: VectorSet, precision: int = 12,
                        cap: int = MATRIX_CAP) -> list[tuple[float, ...]]:
    """Unit vectors in R^D reproducing the embedded Gram to 10^-precision.

    Exactness lives in the Gram matrix; this is a float export built from
    the exact LDL^T rank factorization, verified against the exact products
    before returning.
    """
    eg = embedded_gram(x_halved, cap=cap)
    lmat, diag = ldlt(eg.gram)
    dim = eg.target_D
    cols = [j for j, dj in enumerate(diag) if dj != 0]
    if len(cols) > dim:
        raise EmbeddingError("rank factorization wider than dim Harm")
    roots = [sqrt(diag[j]) for j in cols]
    pts = []
    for i in range(eg.m):
        row = [float(lmat[i][j]) * r for j, r in zip(cols, roots)]
        row += [0.0] * (dim - len(row))
        pts.append(tuple(row))
    arr = np.array(pts)
    got = arr @ arr.T
    want = np.array([[float(eg.gram[i, j]) for j in range(eg.m)]
                     for i in range(eg.m)])
    err = float(np.abs(got - want).max())
    if err > 10.0 ** (-precision):
        raise EmbeddingError(
            f"float realization error {err:.3e} exceeds 1e-{precision}; "
            f"lower the precision requirement")
    return pts
