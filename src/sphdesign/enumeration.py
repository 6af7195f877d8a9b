"""Exact short-vector enumeration and vector-set handling.

Enumeration first LLL-reduces the Gram matrix exactly (size_reduce, an
integral LLL that keeps the unimodular transform), runs Fincke-Pohst in the
reduced basis, where far fewer search nodes die, and maps the vectors back
through the transform.  The Fincke-Pohst search keeps every pruning
decision in exact arithmetic: the per-level tables are the integer pivots
and multipliers of the fraction-free LDL^T (linalg.ldlt), interval
endpoints come from integer square roots, and no floating point is
consulted anywhere.  A rounding error in pruning would
silently drop vectors and corrupt every downstream certificate, so none is
allowed.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import isqrt, lcm, prod

import numpy as np

from .linalg import GramMatrix, LinalgError, ldlt


class EnumerationError(ValueError):
    pass


class NotAntipodalError(ValueError):
    """Raised when an operation requires a sign-symmetric set."""


@dataclass(frozen=True)
class VectorSet:
    """Finite set of integer coordinate vectors with constant norm.

    coords is an (N x rank) integer array, rows in canonical (lexicographic)
    order; every row v satisfies v^T gram v == min_norm exactly.  m is the
    scaled min norm c * min_norm (c = gram.scale), a positive int: every
    row has v^T (c gram) v == m, and every scaled product lies in [-m, m].
    """

    gram: GramMatrix
    min_norm: Fraction
    coords: np.ndarray
    antipodal: bool
    m: int = field(init=False, repr=False)

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=np.int64)
        if c.ndim != 2:
            raise ValueError("coords must be a 2-d integer array")
        c = c[np.lexsort(c.T[::-1])]
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)
        min_norm = Fraction(self.min_norm)
        m = min_norm * self.gram.scale
        if m.denominator != 1 or m <= 0:
            raise ValueError(
                f"min_norm {min_norm} is not a positive multiple of "
                f"1/{self.gram.scale}, the Gram matrix's scale")
        object.__setattr__(self, "min_norm", min_norm)
        object.__setattr__(self, "m", int(m))

    @property
    def rank(self) -> int:
        return self.coords.shape[1]

    @property
    def count(self) -> int:
        return self.coords.shape[0]

    @property
    def sphere_dim(self) -> int:
        """Dimension d of the sphere S^d the normalized set lives on."""
        return self.rank - 1

    def as_tuples(self) -> list[tuple[int, ...]]:
        return [tuple(int(x) for x in row) for row in self.coords]

    def validate(self) -> None:
        """Check the constant-norm and uniqueness invariants exactly."""
        norms = exact_norms(self.gram, self.coords)
        if not np.all(norms == self.m):
            raise ValueError("vector with norm != min_norm present")
        if len(np.unique(self.coords, axis=0)) != self.count:
            raise ValueError("duplicate vectors present")


# every partial sum of an int64 product certified below this stays in range
I64_SAFE = 2**62
I64_MAX = 2**63 - 1


def exact_matmul(*factors) -> np.ndarray:
    """Exact integer chain product factors[0] @ factors[1] @ ...

    Runs in int64 when k_1 * ... * k_r * max|F_0| * ... * max|F_r| < 2**62
    (k_i the inner dimensions) proves no partial sum can overflow; otherwise
    in Python integers (object dtype), the only fallback.  Factors are
    integer arrays or nested lists of Python ints.
    """
    arrs = [f if isinstance(f, np.ndarray) else np.array(f, dtype=object)
            for f in factors]
    bound = (prod(f.shape[-1] for f in arrs[:-1])
             * prod(int(np.abs(f).max(initial=0)) for f in arrs))
    dtype = np.int64 if bound < I64_SAFE else object
    return reduce(np.matmul, (f.astype(dtype, copy=False) for f in arrs))


def exact_norms(gram: GramMatrix, coords: np.ndarray) -> np.ndarray:
    """Integer-scaled norms v^T (c*gram) v for all rows, computed exactly."""
    v = np.asarray(coords)
    return exact_matmul(v[:, None, :], gram.entries, v[:, :, None])[:, 0, 0]


def size_reduce(g: GramMatrix) -> tuple[GramMatrix, list[list[int]]]:
    """Exact integral LLL reduction (delta = 3/4) at Gram level.

    LLL includes size reduction, hence the name.  This is the integral LLL
    of Cohen, *A Course in Computational Algebraic Number Theory*,
    Alg. 2.6.7, run on the integer entries c * g of g.  The loop
    holds only integers: the Gram entries of the current basis, d[i] (the
    Gram determinant of the first i basis vectors) and
    lam[k][j] = d[j + 1] * mu_kj, so no Fraction and no float enters it.

    Returns (reduced_gram, transform) with transform unimodular and
    reduced_gram == T * g * T^T exactly, at the scale c of g: a unimodular
    T keeps the Z-span of the Gram entries, so c stays minimal.  The
    Gram-Schmidt coefficients of the result satisfy |mu_kj| <= 1/2 and the
    Lovasz condition |b*_k|^2 >= (3/4 - mu_{k,k-1}^2) |b*_{k-1}|^2.
    Raises LinalgError when some d[k] <= 0, i.e. g is not positive
    definite.
    """
    n = g.n
    a = [list(row) for row in g.entries]
    t = [[int(i == j) for j in range(n)] for i in range(n)]
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]

    def gram_schmidt(k: int) -> None:
        for j in range(k + 1):
            u = a[k][j]
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            elif u <= 0:
                raise LinalgError("gram matrix is not positive definite")
            else:
                d[k + 1] = u

    def reduce_pair(k: int, l: int) -> None:
        # b_k <- b_k - q b_l with q the integer nearest mu_kl
        dl = d[l + 1]
        if 2 * abs(lam[k][l]) <= dl:
            return
        q = (2 * lam[k][l] + dl) // (2 * dl)
        t[k] = [x - q * y for x, y in zip(t[k], t[l])]
        akk = a[k][k] - 2 * q * a[k][l] + q * q * a[l][l]
        for i in range(n):
            a[k][i] -= q * a[l][i]
            a[i][k] = a[k][i]
        a[k][k] = akk
        lam[k][l] -= q * dl
        for i in range(l):
            lam[k][i] -= q * lam[l][i]

    def swap(k: int, kmax: int) -> None:
        # exchange b_{k-1} and b_k; lam[k][k-1] is unchanged
        t[k - 1], t[k] = t[k], t[k - 1]
        a[k - 1], a[k] = a[k], a[k - 1]
        for row in a:
            row[k - 1], row[k] = row[k], row[k - 1]
        for j in range(k - 1):
            lam[k - 1][j], lam[k][j] = lam[k][j], lam[k - 1][j]
        lk = lam[k][k - 1]
        b = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
        for i in range(k + 1, kmax + 1):
            ti = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * ti) // d[k]
            lam[i][k - 1] = (b * ti + lk * lam[i][k]) // d[k + 1]
        d[k] = b

    if n:
        gram_schmidt(0)
    k, kmax = 1, 0
    while k < n:
        if k > kmax:
            kmax = k
            gram_schmidt(k)
        reduce_pair(k, k - 1)
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2:
            swap(k, kmax)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce_pair(k, l)
            k += 1
    return GramMatrix(g.scale, a), t


def _level_data(g: GramMatrix):
    """Scaled-integer Fincke-Pohst tables from the integer LDL^T of c*g.

    With p the pivots and lam the multipliers of c*g (c = g.scale),
    D_i = p[i] / (c p[i-1]) and L[j][i] = lam[j][i] / p[i], so
    Q(x) = sum_i (p[i] x_i + sum_{j>i} lam[j][i] x_j)^2 / w[i] with
    w[i] = c p[i-1] p[i].  mscale[i] clears the denominators of levels
    i.., so the partial sums T_i are kept as integers T_i * mscale[i].
    """
    n, c = g.n, g.scale
    p, lam = ldlt(g.entries)
    w = [c * x * y for x, y in zip([1] + p, p)]
    urow = [[lam[j][i] for j in range(i + 1, n)] for i in range(n)]
    mscale = [1] * (n + 1)
    for i in range(n - 1, -1, -1):
        mscale[i] = lcm(mscale[i + 1], w[i])
    fup = [mscale[i] // mscale[i + 1] for i in range(n)]
    gup = [mscale[i] // w[i] for i in range(n)]
    return p, w, urow, mscale, fup, gup


def _fincke_pohst(reduced: GramMatrix, bound: Fraction) -> np.ndarray:
    """One vector of each +-pair with v^T reduced v <= bound, as unsorted
    int64 rows in the basis of ``reduced`` (the LLL-reduced Gram)."""
    n = reduced.n
    p, w, urow, mscale, fup, gup = _level_data(reduced)
    bn, bd = bound.numerator, bound.denominator

    coords = [0] * n
    out = array("q")
    out_extend = out.extend
    isqrt_ = isqrt

    def descend(i: int, ts_next: int, nonzero_above: bool) -> None:
        # interval for x_i: (q x_i + C)^2 / w_i <= bound - T_{i+1}, q = p_i
        rn = bn * mscale[i + 1] - bd * ts_next
        if rn < 0:
            return
        q = p[i]
        c = 0
        row = urow[i]
        if row:
            xs = coords[i + 1:]
            c = sum(u * x for u, x in zip(row, xs) if x)
        den = bd * mscale[i + 1]
        s = isqrt_(w[i] * rn * den)
        a = -c * den
        qq = q * den
        hi = (a + s) // qq
        lo = -((-a + s) // qq)
        if i == 0:
            if not nonzero_above:
                lo = max(lo, 1)
            for x in range(lo, hi + 1):
                coords[0] = x
                out_extend(coords)
            coords[0] = 0
            return
        if not nonzero_above:
            lo = max(lo, 0)
        f_i, g_i = fup[i], gup[i]
        base = ts_next * f_i
        for x in range(lo, hi + 1):
            coords[i] = x
            t = x * q + c
            descend(i - 1, base + g_i * t * t, nonzero_above or x != 0)
        coords[i] = 0

    descend(n - 1, 0, False)
    if not out:
        return np.zeros((0, n), np.int64)
    return np.frombuffer(out.tobytes(), dtype=np.int64).reshape(-1, n)


def _both_signs(half: np.ndarray, trans: list[list[int]]) -> np.ndarray:
    """Rows half @ trans and their negations, sorted lexicographically.

    The map back to input coordinates is an exact_matmul; a coordinate
    that does not fit in int64 (with its negation) raises EnumerationError.
    """
    half = exact_matmul(half, trans)
    if half.dtype == object:
        big = max((abs(x) for x in half.flat), default=0)
        if big > I64_MAX:
            raise EnumerationError(
                f"vector coordinate of magnitude {big} does not fit in int64")
        half = half.astype(np.int64)
    full = np.concatenate([half, -half])
    return full[np.lexsort(full.T[::-1])]


def enumerate_short_vectors(gram: GramMatrix, bound) -> np.ndarray:
    """All nonzero integer vectors v with v^T gram v <= bound, both signs.

    Fincke-Pohst runs in the LLL-reduced basis and the vectors are mapped
    back through its transform.  Output rows are sorted lexicographically;
    the set is sign-symmetric and duplicate-free.  Raises LinalgError on a
    gram matrix that is not positive definite.
    """
    bound = Fraction(bound)
    if bound <= 0:
        raise EnumerationError("bound must be positive")
    reduced, trans = size_reduce(gram)
    return _both_signs(_fincke_pohst(reduced, bound), trans)


def shortest_norm_and_vectors(gram: GramMatrix) -> tuple[Fraction, np.ndarray]:
    """Minimal nonzero norm of the lattice and all vectors attaining it.

    Reduces once, enumerates at the smallest diagonal entry of the reduced
    Gram (the shortest reduced basis vector's norm, at most 2^(n-1) times
    the minimal norm), keeps the vectors of the smallest norm found and
    maps only those back to input coordinates.
    """
    reduced, trans = size_reduce(gram)
    bound = min(reduced[i, i] for i in range(reduced.n))
    half = _fincke_pohst(reduced, bound)
    if half.shape[0] == 0:
        raise EnumerationError("no nonzero vectors at the basis-diagonal bound")
    norms = exact_norms(reduced, half)
    m = norms.min()
    return Fraction(int(m), reduced.scale), _both_signs(half[norms == m], trans)


def minimal_vector_set(gram: GramMatrix) -> VectorSet:
    """VectorSet of all minimal vectors."""
    min_norm, vecs = shortest_norm_and_vectors(gram)
    return VectorSet(gram=gram, min_norm=min_norm, coords=vecs, antipodal=True)


def halve_antipodal(vs: VectorSet, seed: int | None = None) -> VectorSet:
    """One representative per antipodal pair.

    Rows are sorted lexicographically and negation reverses that order, so
    a zero-free set is sign-symmetric exactly when its count is even and
    coords[::-1] == -coords, and the partner of row i is row N-1-i.  The
    canonical rule keeps the vector whose first nonzero coordinate is
    positive, i.e. the upper half coords[N//2:]; passing a seed instead
    picks per-pair representatives from a seeded RNG (for
    halving-invariance property tests).  Raises NotAntipodalError naming
    an unpaired vector.
    """
    c = vs.coords
    n = vs.count
    if n % 2 or not is_sign_symmetric(c):
        raise NotAntipodalError(
            f"vector {_unpaired(c)} has no antipodal partner")
    if seed is None:
        keep = c[n // 2:]
    else:
        rng = random.Random(seed)
        keep = c[[i if rng.random() < 0.5 else n - 1 - i
                  for i in range(n // 2)]]
    return VectorSet(gram=vs.gram, min_norm=vs.min_norm, coords=keep,
                     antipodal=False)


def is_sign_symmetric(coords: np.ndarray) -> bool:
    """Whether lexicographically sorted, duplicate-free rows are closed
    under negation: negation reverses lexicographic order, so exactly
    when coords[::-1] == -coords."""
    return np.array_equal(coords[::-1], -coords)


def _unpaired(coords: np.ndarray) -> tuple[int, ...]:
    """A row with no antipodal partner: one whose negation is absent, else
    the middle row, the zero vector when an odd count passes the identity."""
    rows = [tuple(row) for row in coords.tolist()]
    present = set(rows)
    return next((v for v in rows if tuple(-x for x in v) not in present),
                rows[len(rows) // 2])

