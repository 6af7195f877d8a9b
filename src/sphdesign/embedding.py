"""Degree-2 harmonic embedding of point sets, certified at Gram level.

A point x on S^d maps to the function y -> g_{2,d}((x,y)), a unit vector
G_x in the d(d+3)/2-dimensional space of degree-2 spherical harmonics with
<G_x, G_y> = g_{2,d}((x,y)) (the addition theorem; Delsarte, Goethals and
Seidel, *Spherical codes and designs*, 1977).  The kernel is even, so
G_(-x) = G_x and the embedded set G_X' union -G_X' is the same for every
half-set X' of an antipodal X: its spectrum follows from the pair spectrum
of X alone.  embed returns that spectrum as a plain PairSpectrum on
S^(D-1), D = d(d+3)/2, so its 3-design property is the antipodal moment
criterion of designs.venkov_3design, as for any code.

The rank certificate (harmonic_rank) works in Harm_2 itself: each vector
of a half-set gets integer coordinates in the (n(n+1)/2)-dimensional space
of symmetric matrices (harmonic_frame), so the rank of the embedded Gram
matrix is that of an (n(n+1)/2)-square integer matrix, whatever N is.  The
N/2 x N/2 Gram block itself (embedded_gram) is built only for the float
coordinates of export-coords (realize_coordinates).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm, sqrt

import numpy as np

from .enumeration import I64_SAFE, NotAntipodalError, VectorSet, exact_matmul
from .gegenbauer import gegenbauer
from .linalg import invert, ldlt, psd_rank
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


def embed(spec: PairSpectrum) -> PairSpectrum:
    """Spectrum of G_X' union -G_X' on S^(D-1), folded from the pair
    spectrum of X.

    Each source product s contributes C(s)/2 at +g(s) and C(s)/2 at -g(s),
    where g is the normalized degree-2 Gegenbauer polynomial and C the
    spectrum of the antipodal set X; an odd C(s) raises EmbeddingError.
    embed(emb) embeds an embedded code again.  A spectrum not flagged
    antipodal is read as that of a half-set X' and mirrored first.
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
    return PairSpectrum(d=dim_harm(2, d) - 1, size=full.size,
                        antipodal=True, entries=tuple(out.items()))


def harmonic_frame(half: VectorSet) -> tuple[np.ndarray, list[list[int]]]:
    """Integer Harm_2 coordinates Psi of the rows of half, and the Gram
    matrix W of the coordinate basis.

    With c*G = half.gram.entries, m = half.m, n = half.rank and
    G^-1 = E / s (linalg.invert), row x maps to the symmetric integer
    matrix Psi_x = s c n x x^T - m E, the image of x x^T - (m/cn) G^-1
    scaled by s c n.  Psi holds its upper triangle, one row per vector and
    n(n+1)/2 columns, ordered as numpy.triu_indices(n); (cG) E = c s I is
    checked exactly (EmbeddingError otherwise).  W[p][q] = tr(cG S_p cG S_q)
    for the symmetric basis matrices S_p (E_ii, or E_ij + E_ji for i < j),
    so that Psi_x^T W Psi_y = tr(cG Psi_x cG Psi_y).  Because
    x^T (cG) x = m for every row,
        Psi W Psi^T = s^2 c^2 n (n - 1) m^2 g(P / m),
    with P = V (cG) V^T the integer products and g the normalized
    degree-2 Gegenbauer polynomial: a positive multiple of the embedded
    Gram block A (embedded_gram), entrywise.  Every Psi_x has
    tr(cG Psi_x) = 0, so rank Psi <= n(n+1)/2 - 1 = dim Harm_2.

    Psi is int64 when s c n max|x|^2 + m max|E| < 2**62 proves every
    entry and every intermediate in range, else Python ints (object
    dtype).
    """
    g = half.gram
    n, c, m = half.rank, g.scale, half.m
    inv = invert(g)
    s, e = inv.scale, inv.entries
    ge = exact_matmul(g.entries, e).tolist()
    if any(x != (c * s if i == j else 0)
           for i, row in enumerate(ge) for j, x in enumerate(row)):
        raise EmbeddingError("(cG) E != c s I: the inverse Gram is wrong")
    iu, ju = np.triu_indices(n)
    me = [m * e[i][j] for i, j in zip(iu.tolist(), ju.tolist())]
    x = half.coords
    big = max(int(x.max(initial=0)), -int(x.min(initial=0)))
    scn = s * c * n
    dtype = (np.int64 if scn * big * big + max(map(abs, me)) < I64_SAFE
             else object)
    x = x.astype(dtype)
    psi = scn * x[:, iu] * x[:, ju] - np.array(me, dtype=dtype)
    # W[p][q] = u_p u_q (G_ik G_jl + G_il G_jk) / 2 for p = (i, j),
    # q = (k, l), with u = 1 on the diagonal and 2 off it
    ga = np.array(g.entries, dtype=object)
    u = np.where(iu == ju, 1, 2).astype(object)
    w = ((ga[np.ix_(iu, iu)] * ga[np.ix_(ju, ju)]
          + ga[np.ix_(iu, ju)] * ga[np.ix_(ju, iu)])
         * np.multiply.outer(u, u) // 2)
    return psi, w.tolist()


def harmonic_rank(half: VectorSet) -> tuple[bool, int]:
    """(is_psd, rank) of the embedded Gram block A of half, equal to those
    of the Gram matrix of G_X' union -G_X' (see EmbeddedGram), proving the
    code lies on S^(target_D - 1).

    A is a positive multiple of Psi W Psi^T (harmonic_frame).  When W is
    positive definite, which is the is_psd verdict, A is PSD and
    rank A = rank Psi = rank Psi^T Psi: the one elimination (psd_rank) is
    of the n(n+1)/2-square Psi^T Psi, divided by the gcd of its entries,
    not of the N/2-square A.  A rank above dim Harm_2 contradicts the
    trace identity and raises EmbeddingError.
    """
    psi, w = harmonic_frame(half)
    w_psd, w_rank = psd_rank(w)
    ptp = exact_matmul(psi.T, psi).tolist()
    k = gcd(*(x for row in ptp for x in row)) or 1
    _, rank = psd_rank([[x // k for x in row] for row in ptp])
    target = dim_harm(2, half.sphere_dim)
    if rank > target:
        raise EmbeddingError(
            f"embedded Gram rank {rank} exceeds dim Harm = {target}")
    return w_psd and w_rank == len(w), rank


@dataclass(frozen=True)
class EmbeddedGram:
    """Exact Gram matrix A = entries / scale of the half-set image G_X'
    (diagonal 1, symmetric), held as integers with no common factor, so
    the Bareiss minors of its LDL^T stay small.

    The embedded set G_X' union -G_X' has Gram matrix
    [[A, -A], [-A, A]] = [[1, -1], [-1, 1]] (x) A, and the 2 x 2 factor
    has eigenvalues 2 and 0, so that matrix is PSD exactly when A is and
    has the same rank.  harmonic_rank certifies both without building A;
    the float coordinate export (realize_coordinates) factors A itself.
    """

    source_d: int
    scale: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for i, row in enumerate(self.entries):
            if row[i] != self.scale:
                raise EmbeddingError("embedded Gram diagonal entry != 1")

    @property
    def target_D(self) -> int:
        return dim_harm(2, self.source_d)


MATRIX_CAP = 512


def embedded_gram(x_halved: VectorSet, cap: int = MATRIX_CAP) -> EmbeddedGram:
    """Exact Gram matrix A = (g((x, y)))_{x, y in X'} of the half-set image.

    Row i is the embedded image of the i-th vector of x_halved; the
    negated images need no rows of their own (see EmbeddedGram).  With
    P = V (cG) V^T the integer products, m = x_halved.m the scaled min norm
    and l the common denominator of the coefficients of g, entry (i, j) is
    l m^2 g(P_ij / m), an integer, and the scale is l m^2; entries and
    scale are then divided by their gcd.  Sets larger than cap must use
    the spectrum-only embedding (embed), which needs no |X'| x |X'|
    matrix.
    """
    if x_halved.antipodal:
        raise NotAntipodalError(
            "input set is antipodal; halve the set first")
    npts = x_halved.count
    if npts > cap:
        raise EmbeddingError(
            f"{npts} points exceed the matrix cap {cap}; use the "
            f"spectrum-only embedding (sphdesign embed) instead")
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
