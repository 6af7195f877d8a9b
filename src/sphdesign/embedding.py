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

The rank certificate (harmonic_rank) works in Harm_2 itself: each vector
gets integer coordinates in the (n(n+1)/2)-dimensional space of symmetric
matrices (harmonic_frame), so the rank of the embedded Gram matrix A is
that of an (n(n+1)/2)-square integer matrix, whatever N is, and its PSD
verdict is that of the n x n Gram matrix.  The float coordinates of
export-coords (realize_coordinates) factor A of the canonical half-set
one row at a time, forming its exact entries (embedded_gram) only
against the at most D rows kept as pivots, never as the N/2 x N/2 block.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, sqrt

from ._numpy import np
from .enumeration import I64_SAFE, VectorSet, exact_matmul, halve_antipodal
from .linalg import invert, ldlt_row, psd_rank
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
    spectrum of X.

    Each source product s contributes C(s)/2 at +g(s) and C(s)/2 at -g(s),
    where g = g_{2,d} (g2_coefficients) and C the spectrum of the
    antipodal set X; an odd C(s) raises EmbeddingError.
    embed(emb) embeds an embedded code again.  A spectrum not flagged
    antipodal is read as that of a half-set X' and mirrored first.
    """
    full = spec if spec.antipodal else spec.mirrored()
    d = full.d
    c0, c2, l = g2_coefficients(d)
    out: dict[Fraction, int] = {}
    for s, c in full.entries:
        if c % 2:
            raise EmbeddingError(
                f"odd count {c} at s = {s}: not an antipodal spectrum")
        val = (c0 + c2 * s * s) / l
        out[val] = out.get(val, 0) + c // 2
        out[-val] = out.get(-val, 0) + c // 2
    return PairSpectrum(d=dim_harm(2, d) - 1, size=full.size,
                        antipodal=True, entries=tuple(out.items()))


def harmonic_frame(vs: VectorSet) -> np.ndarray:
    """Integer Harm_2 coordinates Psi of the rows of vs.

    With c*G = vs.gram.entries, m = vs.m, n = vs.rank and
    G^-1 = E / s (linalg.invert), row x maps to the symmetric integer
    matrix Psi_x = s c n x x^T - m E, the image of x x^T - (m/cn) G^-1
    scaled by s c n.  Psi holds its upper triangle, one row per vector and
    n(n+1)/2 columns, ordered as numpy.triu_indices(n); (cG) E = c s I is
    checked exactly (EmbeddingError otherwise).  On symmetric matrices
    take <S, T> = tr(cG S cG T).  Because x^T (cG) x = m for every row,
        <Psi_x, Psi_y> = s^2 c^2 n (n - 1) m^2 g(P_xy / m),
    with P = V (cG) V^T the integer products and g the normalized
    degree-2 Gegenbauer polynomial: a positive multiple of the embedded
    Gram matrix A (embedded_gram), entrywise.  Every Psi_x has
    tr(cG Psi_x) = 0, so rank Psi <= n(n+1)/2 - 1 = dim Harm_2.

    Psi is int64 when s c n max|x|^2 + m max|E| < 2**62 proves every
    entry and every intermediate in range, else Python ints (object
    dtype).
    """
    g = vs.gram
    n, c, m = vs.rank, g.scale, vs.m
    inv = invert(g)
    s, e = inv.scale, inv.entries
    ge = exact_matmul(g.entries, e).tolist()
    if any(x != (c * s if i == j else 0)
           for i, row in enumerate(ge) for j, x in enumerate(row)):
        raise EmbeddingError("(cG) E != c s I: the inverse Gram is wrong")
    iu, ju = np.triu_indices(n)
    me = [m * e[i][j] for i, j in zip(iu.tolist(), ju.tolist())]
    x = vs.coords
    big = max(int(x.max(initial=0)), -int(x.min(initial=0)))
    scn = s * c * n
    dtype = (np.int64 if scn * big * big + max(map(abs, me)) < I64_SAFE
             else object)
    x = x.astype(dtype)
    return scn * x[:, iu] * x[:, ju] - np.array(me, dtype=dtype)


def harmonic_rank(vs: VectorSet) -> tuple[bool, int]:
    """(is_psd, rank) of the embedded Gram matrix A of the rows of vs.

    For an antipodal X or any half-set X' these equal those of the Gram
    matrix [[1, -1], [-1, 1]] (x) A' of G_X' union -G_X' (the 2 x 2
    factor has eigenvalues 2 and 0), proving the code lies on
    S^(target_D - 1): Psi_x = Psi_(-x), so X gives twice the Psi^T Psi
    of X', the same matrix after the gcd reduction below.

    A is a positive multiple of the Gram matrix of the rows of Psi
    (harmonic_frame) under <S, T> = tr(cG S cG T), and with cG = R^T R,
    <S, S> = |R S R^T|_F^2.  So when cG is positive definite, the is_psd
    verdict, A is PSD and rank A = rank Psi = rank Psi^T Psi: psd_rank of
    the gcd-reduced n(n+1)/2-square Psi^T Psi, not of the N-square A.
    A rank above dim Harm_2 contradicts the trace identity and raises
    EmbeddingError.
    """
    psi = harmonic_frame(vs)
    ptp = exact_matmul(psi.T, psi).tolist()
    k = gcd(*(x for row in ptp for x in row)) or 1
    _, rank = psd_rank([[x // k for x in row] for row in ptp])
    target = dim_harm(2, vs.sphere_dim)
    if rank > target:
        raise EmbeddingError(
            f"embedded Gram rank {rank} exceeds dim Harm = {target}")
    return vs.gram.is_positive_definite(), rank


MATRIX_CAP = 512


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
    v = x_halved.coords
    p = exact_matmul(v[rows], x_halved.gram.entries, v[cols].T)
    big = int(np.abs(p).max(initial=0))
    if abs(c2) * big * big + abs(c0) * m2 >= I64_SAFE:
        p = p.astype(object)
    return c2 // k * p * p + c0 * m2 // k


def realize_coordinates(vs: VectorSet, precision: int = 12,
                        cap: int = MATRIX_CAP) -> list[tuple[float, ...]]:
    """Unit vectors in R^D reproducing the embedded Gram to 10^-precision.

    Exactness lives in A (embedded_gram); this is a float export of the
    rows of its unpivoted LDL^T scaled by sqrt(D), checked against the
    exact products on blocks of at most D columns.  Rows are the images of
    a half-set X' followed by their negatives, the rows LDL^T of
    [[A, -A], [-A, A]] gives: X' is the canonical half of an antipodal vs
    (enumeration.halve_antipodal), else vs itself.  cG positive definite
    makes A PSD (harmonic_rank), so a zero pivot has a zero column below
    it.  A is factored one row at a time (linalg.ldlt_row), each row
    formed only against the kept rows, at most D = dim Harm_2 since
    rank A <= D; the rows after the D-th kept one are dependent and form
    one batch.
    """
    half = halve_antipodal(vs) if vs.antipodal else vs
    npts = half.count
    if npts > cap:
        raise EmbeddingError(
            f"{npts} points exceed the matrix cap {cap}; use the "
            f"spectrum-only embedding (sphdesign embed) instead")
    if not half.gram.is_positive_definite():
        raise EmbeddingError("the Gram matrix is not positive definite")
    dim = dim_harm(2, half.sphere_dim)
    kept, d, lam, mult = [], [1], [], []    # d[1] = A[0][0], the scale
    while len(mult) < npts and len(kept) < dim:
        i = len(mult)
        a = embedded_gram(half, [i], kept + [i])[0].tolist()
        *u, pivot = ldlt_row(a, lam, d)
        mult.append(u)
        if pivot:
            kept.append(i)
            d.append(pivot)
            lam.append(u)
    if len(mult) < npts:
        rest = embedded_gram(half, np.arange(len(mult), npts), kept)
        *u, pivot = ldlt_row([*rest.astype(object).T, d[1]], lam, d)
        if any(pivot):
            raise EmbeddingError("rank factorization wider than dim Harm")
        mult += np.array(u).T.tolist()
    # L[i][s] = u[s] / d[s + 1] and D[s] = d[s + 1] / (d[s] d[1]); these
    # rationals, and so the floats, do not depend on the scale of A
    top = np.zeros((npts, dim))
    for i, u in enumerate(mult):
        top[i, :len(u)] = [x / p for x, p in zip(u, d[1:])]
    top[kept, range(len(kept))] = 1.0
    top[:, :len(kept)] *= [sqrt(p / (q * d[1])) for q, p in zip(d, d[1:])]
    err = 0.0
    for j in range(0, npts, dim):
        cols = np.arange(j, min(j + dim, npts))
        want = embedded_gram(half, slice(None), cols) / d[1]
        err = max(err, float(np.abs(top @ top[cols].T - want).max()))
    if err > 10.0 ** (-precision):
        raise EmbeddingError(
            f"float realization error {err:.3e} exceeds 1e-{precision}; "
            f"lower the precision requirement")
    # negate exactly, so a zero stays +0.0
    return [tuple(row) for row in np.vstack([top, 0.0 - top]).tolist()]
