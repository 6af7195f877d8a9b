"""Exact short-vector enumeration and vector-set handling.

The Fincke-Pohst search keeps every pruning decision in exact arithmetic:
the LDL^T data is converted to per-level scaled integers, interval endpoints
come from integer square roots, and no floating point is consulted anywhere.
A rounding error in pruning would silently drop vectors and corrupt every
downstream certificate, so none is allowed.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
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
    order; every row v satisfies v^T gram v == min_norm exactly.
    """

    gram: GramMatrix
    min_norm: Fraction
    coords: np.ndarray
    antipodal: bool

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=np.int64)
        if c.ndim != 2:
            raise ValueError("coords must be a 2-d integer array")
        c = c[np.lexsort(c.T[::-1])]
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)
        object.__setattr__(self, "min_norm", Fraction(self.min_norm))

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
        scale, _ = self.gram.integer_entries()
        target = self.min_norm * scale
        if target.denominator != 1:
            raise ValueError("min_norm inconsistent with gram denominator scale")
        if not np.all(norms == int(target)):
            raise ValueError("vector with norm != min_norm present")
        if len(np.unique(self.coords, axis=0)) != self.count:
            raise ValueError("duplicate vectors present")


# every partial sum of an int64 product certified below this stays in range
I64_SAFE = 2**62


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
    _, gi = gram.integer_entries()
    v = np.asarray(coords)
    return exact_matmul(v[:, None, :], gi, v[:, :, None])[:, 0, 0]


def _round_half(x: Fraction) -> int:
    """Nearest integer to x (half rounds down in magnitude-neutral floor way)."""
    return (2 * x.numerator + x.denominator) // (2 * x.denominator)


def size_reduce(g: GramMatrix) -> tuple[GramMatrix, list[list[int]]]:
    """Integral size-reduction pass at Gram level.

    Returns (reduced_gram, transform) with transform unimodular and
    reduced_gram == T * g * T^T; Gram-Schmidt coefficients of the result
    all have absolute value <= 1/2.
    """
    n = g.n
    a = [list(row) for row in g.entries]
    t = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    lmat, _ = ldlt(GramMatrix.from_rows(a))
    mu = [list(row) for row in lmat]
    for i in range(1, n):
        for j in range(i - 1, -1, -1):
            q = _round_half(mu[i][j])
            if q == 0:
                continue
            # b_i <- b_i - q b_j
            for k in range(n):
                t[i][k] -= q * t[j][k]
            aij = a[i][j]
            for k in range(n):
                if k != i:
                    a[i][k] -= q * a[j][k]
                    a[k][i] = a[i][k]
            a[i][i] += q * q * a[j][j] - 2 * q * aij
            for k in range(j + 1):
                mu[i][k] -= q * mu[j][k]
    return GramMatrix.from_rows(a), t


def _level_data(g: GramMatrix):
    """Scaled-integer Fincke-Pohst tables from the exact LDL^T of g."""
    n = g.n
    lmat, diag = ldlt(g)
    if any(d <= 0 for d in diag):
        raise LinalgError("gram matrix is not positive definite")
    # Q(x) = sum_i d_i (x_i + sum_{j>i} L[j][i] x_j)^2
    dn = [d.numerator for d in diag]
    dd = [d.denominator for d in diag]
    qden = [1] * n
    urow: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        us = [lmat[j][i] for j in range(i + 1, n)]
        qden[i] = lcm(*(u.denominator for u in us), 1)
        urow[i] = [int(u * qden[i]) for u in us]
    mscale = [1] * (n + 1)
    for i in range(n - 1, -1, -1):
        mscale[i] = lcm(mscale[i + 1], dd[i] * qden[i] * qden[i])
    fup = [mscale[i] // mscale[i + 1] for i in range(n)]
    gup = [mscale[i] // (dd[i] * qden[i] * qden[i]) for i in range(n)]
    return dn, dd, qden, urow, mscale, fup, gup


def enumerate_short_vectors(gram: GramMatrix, bound) -> np.ndarray:
    """All nonzero integer vectors v with v^T gram v <= bound, both signs.

    Output rows are sorted lexicographically; the set is sign-symmetric and
    duplicate-free.  Raises on an indefinite gram matrix.
    """
    bound = Fraction(bound)
    if bound <= 0:
        raise EnumerationError("bound must be positive")
    n = gram.n
    reduced, trans = size_reduce(gram)
    dn, dd, qden, urow, mscale, fup, gup = _level_data(reduced)
    bn, bd = bound.numerator, bound.denominator

    coords = [0] * n
    out = array("q")
    out_extend = out.extend
    isqrt_ = isqrt

    def descend(i: int, ts_next: int, nonzero_above: bool) -> None:
        # interval for x_i: d_i (x_i + C/q)^2 <= bound - T_{i+1}
        rn = bn * mscale[i + 1] - bd * ts_next
        if rn < 0:
            return
        q = qden[i]
        c = 0
        row = urow[i]
        if row:
            xs = coords[i + 1:]
            c = sum(u * x for u, x in zip(row, xs) if x)
        den = bd * mscale[i + 1] * dn[i]
        s = isqrt_(q * q * dd[i] * rn * den)
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
        f_i, g_i, dn_i = fup[i], gup[i], dn[i]
        base = ts_next * f_i
        for x in range(lo, hi + 1):
            coords[i] = x
            t = x * q + c
            descend(i - 1, base + g_i * dn_i * t * t, nonzero_above or x != 0)
        coords[i] = 0

    descend(n - 1, 0, False)
    half = np.frombuffer(out.tobytes(), dtype=np.int64).reshape(-1, n) if len(out) else np.zeros((0, n), np.int64)
    if half.size:
        half = half @ np.array(trans, dtype=np.int64)
        full = np.concatenate([half, -half])
        full = full[np.lexsort(full.T[::-1])]
    else:
        full = half
    return full


def shortest_norm_and_vectors(gram: GramMatrix) -> tuple[Fraction, np.ndarray]:
    """Minimal nonzero norm of the lattice and all vectors attaining it.

    Enumerates at the smallest Gram diagonal entry (the shortest basis
    vector's norm) and shrinks to the smallest norm found.
    """
    bound = min(gram[i, i] for i in range(gram.n))
    vecs = enumerate_short_vectors(gram, bound)
    if vecs.shape[0] == 0:
        raise EnumerationError("no nonzero vectors at the basis-diagonal bound")
    scale, _ = gram.integer_entries()
    norms = exact_norms(gram, vecs)
    m = norms.min()
    keep = vecs[norms == m]
    return Fraction(int(m), scale), keep


def minimal_vector_set(gram: GramMatrix, expected_kissing: int | None = None) -> VectorSet:
    """VectorSet of all minimal vectors; cross-checked against an expected count."""
    min_norm, vecs = shortest_norm_and_vectors(gram)
    if expected_kissing is not None and vecs.shape[0] != expected_kissing:
        raise EnumerationError(
            f"kissing number mismatch: enumerated {vecs.shape[0]}, "
            f"expected {expected_kissing} (catalog data corrupt)"
        )
    return VectorSet(gram=gram, min_norm=min_norm, coords=vecs, antipodal=True)


def _pair_index(vs: VectorSet) -> list[tuple[int, int]]:
    """Indices (i, j) of each antipodal pair with row i lexicographically
    smaller; raises NotAntipodalError naming an unpaired vector."""
    lookup = {tuple(int(x) for x in row): i for i, row in enumerate(vs.coords)}
    pairs = []
    seen = set()
    for i, row in enumerate(vs.coords):
        if i in seen:
            continue
        v = tuple(int(x) for x in row)
        j = lookup.get(tuple(-x for x in v))
        if j is None or j == i:
            raise NotAntipodalError(f"vector {v} has no antipodal partner")
        pairs.append((i, j))
        seen.add(i)
        seen.add(j)
    return pairs


def halve_antipodal(vs: VectorSet, seed: int | None = None) -> VectorSet:
    """One representative per antipodal pair.

    The canonical rule keeps the vector whose first nonzero coordinate is
    positive; passing a seed instead picks per-pair representatives from a
    seeded RNG (for halving-invariance property tests).
    """
    pairs = _pair_index(vs)
    rng = random.Random(seed) if seed is not None else None
    keep_rows = []
    for i, j in pairs:
        if rng is not None:
            keep_rows.append(i if rng.random() < 0.5 else j)
        else:
            row = vs.coords[i]
            first = next(int(x) for x in row if x != 0)
            keep_rows.append(i if first > 0 else j)
    return VectorSet(gram=vs.gram, min_norm=vs.min_norm,
                     coords=vs.coords[sorted(keep_rows)], antipodal=False)


def union_with_negation(vs: VectorSet) -> VectorSet:
    """X union -X as a single antipodal set (inputs must be antipodal-free)."""
    coords = np.concatenate([vs.coords, -vs.coords])
    if len(np.unique(coords, axis=0)) != coords.shape[0]:
        raise NotAntipodalError("set already contains an antipodal pair")
    return VectorSet(gram=vs.gram, min_norm=vs.min_norm, coords=coords, antipodal=True)
