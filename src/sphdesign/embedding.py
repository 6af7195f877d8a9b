"""Degree-2 harmonic embedding of point sets, certified at Gram level.

A point x on S^d maps to the function y -> g_{2,d}((x,y)), with
g_{2,d}(s) = ((d+1) s^2 - 1) / d the degree-2 Gegenbauer polynomial
normalized to g(1) = 1 (g2_coefficients): a unit vector G_x in the
d(d+3)/2-dimensional space of degree-2 spherical harmonics with
<G_x, G_y> = g_{2,d}((x,y)) (the addition theorem; Delsarte, Goethals and
Seidel, *Spherical codes and designs*, 1977).  The kernel is even, so
G_(-x) = G_x and the embedded set G_X' union -G_X' is the same for every
half-set X' of an antipodal X: its spectrum follows from the pair spectrum
of X alone.  embed returns that spectrum as a plain PairSpectrum on
S^(D-1), D = d(d+3)/2, so its 3-design property is the antipodal moment
criterion of designs.venkov_3design, as for any code.

The rank of the embedded Gram matrix A is D = dim Harm_2 whenever the
embedded 3-design holds, by the frame-potential bound (report.certify),
so it is computed only for a set that fails it.  That computation
(harmonic_rank) works in Harm_2 itself: each vector gets integer
coordinates in the (n(n+1)/2)-dimensional space of symmetric matrices
(_arrays.harmonic_frame), so the rank of A is that of an
(n(n+1)/2)-square integer matrix, whatever N is; A is PSD as cG is
positive definite.  The float coordinates of export-coords
(_arrays.realize_coordinates) are the G_x themselves, written in an
orthonormal basis from the LDL^T of cG and checked against the exact A
(embedded_gram).  These read the rows as an int64 array
(VectorSet.array), built once from a set held as Python ints; the frame
and the export live in sphdesign._arrays, imported on first use.  embed,
which reads the spectrum alone, is the only part of this module a small
lattice's verify runs.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd

from ._numpy import np
from .enumeration import I64_SAFE, NotAntipodalError, VectorSet, exact_matmul
from .linalg import psd_rank
from .spectrum import PairSpectrum


class EmbeddingError(ValueError):
    pass


def dim_harm(k: int, d: int) -> int:
    """Dimension of the space of degree-k harmonic polynomials on S^d:
    C(d+k, k) - C(d+k-2, k-2), all polynomials of degree k in d+1
    variables minus the multiples of |x|^2."""
    if d < 1:
        raise ValueError("sphere dimension must be at least 1")
    if k < 0:
        raise ValueError("need k >= 0")
    return comb(d + k, k) - (comb(d + k - 2, k - 2) if k >= 2 else 0)


def g2_coefficients(d: int) -> tuple[int, int, int]:
    """(c0, c2, l) with g_{2,d}(s) = (c0 + c2 s^2) / l = ((d+1) s^2 - 1) / d,
    the degree-2 Gegenbauer polynomial on S^d normalized to g(1) = 1."""
    if d < 1:
        raise ValueError("sphere dimension must be at least 1")
    return -1, d + 1, d


def embed(spec: PairSpectrum) -> PairSpectrum:
    """Spectrum of G_X' union -G_X' on S^(D-1), folded from the pair
    spectrum of the antipodal set X.

    Each source product s contributes C(s)/2 at +g(s) and C(s)/2 at -g(s),
    where g = g_{2,d} (g2_coefficients) and C the spectrum of X, whose
    counts are even (PairSpectrum).  embed(emb) embeds an embedded code
    again.  A spectrum that is not antipodal raises NotAntipodalError.
    """
    if not spec.antipodal:
        raise NotAntipodalError(
            "the embedding is defined for antipodal sets only")
    d = spec.d
    c0, c2, l = g2_coefficients(d)
    out: dict[Fraction, int] = {}
    for s, c in spec.entries:
        val = (c0 + c2 * s * s) / l
        out[val] = out.get(val, 0) + c // 2
        out[-val] = out.get(-val, 0) + c // 2
    return PairSpectrum(d=dim_harm(2, d) - 1, size=spec.size,
                        entries=tuple(out.items()))


def harmonic_rank(vs: VectorSet) -> int:
    """Rank of the embedded Gram matrix A of the rows of vs.

    For an antipodal X or any half-set X' it equals that of the Gram
    matrix [[1, -1], [-1, 1]] (x) A' of G_X' union -G_X' (the 2 x 2
    factor has eigenvalues 2 and 0), proving the code lies on
    S^(target_D - 1): Psi_x = Psi_(-x), so X gives twice the Psi^T Psi
    of X', the same matrix after the gcd reduction below.

    A is a positive multiple of the Gram matrix of the rows of Psi
    (harmonic_frame) under <S, T> = tr(cG S cG T), and with cG = R^T R,
    <S, S> = |R S R^T|_F^2.  cG is positive definite (a GramMatrix is),
    so this is an inner product, A is PSD and rank A = rank Psi =
    rank Psi^T Psi: psd_rank of the gcd-reduced n(n+1)/2-square
    Psi^T Psi, not of the N-square A.  A rank above dim Harm_2
    contradicts the trace identity and raises EmbeddingError.
    """
    from . import _arrays   # imported on first use
    psi = _arrays.harmonic_frame(vs)
    ptp = exact_matmul(psi.T, psi).tolist()
    k = gcd(*(x for row in ptp for x in row)) or 1
    rank = psd_rank([[x // k for x in row] for row in ptp])
    target = dim_harm(2, vs.sphere_dim)
    if rank > target:
        raise EmbeddingError(
            f"embedded Gram rank {rank} exceeds dim Harm = {target}")
    return rank


def embedded_gram(x_halved: VectorSet, rows, cols) -> np.ndarray:
    """Exact integer block scale * A[rows, cols] of the Gram matrix
    A = (g((x, y)))_{x, y in X'} of the half-set image; rows and cols
    index x_halved.coords.

    With P = V (cG) V^T the integer products, m = x_halved.m and
    g(t) = (c0 + c2 t^2) / l (g2_coefficients), entry (i, j) is
    (c2 P_ij^2 + c0 m^2) / k and scale = l m^2 / k, the diagonal entry:
    k = gcd(c2, c0 m^2) divides every entry, whatever the products.  int64 when |c2| max|P|^2
    + |c0| m^2 < 2**62, else Python ints (object dtype).
    """
    c0, c2, _ = g2_coefficients(x_halved.sphere_dim)
    m2 = x_halved.m ** 2
    k = gcd(c2, c0 * m2)
    v = x_halved.array
    p = exact_matmul(v[rows], x_halved.gram.entries, v[cols].T)
    big = int(np.abs(p).max(initial=0))
    if abs(c2) * big * big + abs(c0) * m2 >= I64_SAFE:
        p = p.astype(object)
    return c2 // k * p * p + c0 * m2 // k
