"""Shared fixtures and test-only helpers.

The big point sets (E8, BW16, Leech) are session-scoped so enumeration and
the quadratic pair pass run once for the whole suite.  The Gegenbauer
recurrence lives here only: it is the oracle for the even-moment design
criterion of sphdesign.designs and for the closed-form degree-2
polynomial of sphdesign.embedding.
"""

from __future__ import annotations

import os
import random
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt

import numpy as np
import pytest

from sphdesign.catalog import (
    LatticeSpec,
    catalog,
    catalog_names,
    expectations,
)
from sphdesign._arrays import _both_signs, _fincke_pohst, _sweep_levels
from sphdesign.embedding import embedded_gram
from sphdesign.enumeration import (
    EnumerationError,
    NotAntipodalError,
    VectorSet,
    exact_norms,
    minimal_vector_set,
    size_reduce,
)
from sphdesign.linalg import (
    GramMatrix,
    LinalgError,
    PivotError,
    invert,
    ldlt,
)
from sphdesign.spectrum import PairSpectrum, pair_spectrum

THREADS = min(4, os.cpu_count() or 1)


def lattice_vectors(name: str) -> VectorSet:
    spec = catalog(name)
    vs = minimal_vector_set(spec.gram)
    assert vs.count == spec.expected_kissing, \
        f"{name}: enumerated {vs.count}, expected {spec.expected_kissing}"
    return vs


def as_tuples(vs: VectorSet) -> list[tuple[int, ...]]:
    """The rows of vs as tuples of Python ints, in canonical order."""
    return [tuple(row) for row in vs.array.tolist()]


def matmul(a, b):
    """Exact matrix product of nested sequences, as nested tuples."""
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def congruent(u, g: GramMatrix) -> GramMatrix:
    """U g U^T, exact."""
    return GramMatrix(g.scale, matmul(matmul(u, g.entries), list(zip(*u))))


def random_unimodular(n: int, rng: random.Random, ops: int):
    """P E_ops ... E_1 with E = I +- e_i e_j^T and P a permutation."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(ops):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    rng.shuffle(u)
    return u


def quadratic_form(g: GramMatrix, v) -> Fraction:
    """v^T g v, exact."""
    rows = g.entries
    total = sum(vi * rows[i][j] * vj
                for i, vi in enumerate(v) for j, vj in enumerate(v))
    return Fraction(total, g.scale)


def gauss_jordan_inverse(g: GramMatrix) -> GramMatrix:
    """Exact inverse by Fraction Gauss-Jordan on the rows of c*g, whose
    inverse times c is that of g: an oracle for linalg.invert."""
    n = g.n
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
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
    return GramMatrix.from_rows([[g.scale * x for x in row[n:]] for row in a])


def reference_ldlt(rows) -> tuple[tuple[tuple[Fraction, ...], ...],
                                   tuple[Fraction, ...]]:
    """Oracle: the former Fraction-arithmetic LDL^T of linalg, on any
    symmetric matrix of rationals.

    Unpivoted LDL^T factorization: returns (L, D) with L unit lower
    triangular and L*diag(D)*L^T == rows exactly.  A zero pivot with a
    zero column below it is skipped (D[k] = 0); a zero pivot with a
    nonzero remainder below it raises PivotError.  So the matrix is
    positive semidefinite exactly when this returns and every D[k] >= 0,
    and positive definite exactly when every D[k] > 0.
    """
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    L = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
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


def harmonic_gram(entries) -> list[list[int]]:
    """W, the Gram matrix of the coordinate basis of embedding.harmonic_frame
    under <S, T> = tr(cG S cG T), cG = entries, any symmetric integer
    matrix (a GramMatrix's entries when cG is positive definite).

    W[p][q] = tr(cG S_p cG S_q) for the symmetric basis matrices S_p (E_ii,
    or E_ij + E_ji for i < j, ordered as numpy.triu_indices), so that
    Psi_x^T W Psi_y = <Psi_x, Psi_y>; W[p][q] = u_p u_q (G_ik G_jl
    + G_il G_jk) / 2 for p = (i, j), q = (k, l), with u = 1 on the
    diagonal and 2 off it.
    """
    iu, ju = np.triu_indices(len(entries))
    ga = np.array(entries, dtype=object)
    u = np.where(iu == ju, 1, 2).astype(object)
    w = ((ga[np.ix_(iu, iu)] * ga[np.ix_(ju, ju)]
          + ga[np.ix_(iu, ju)] * ga[np.ix_(ju, iu)])
         * np.multiply.outer(u, u) // 2)
    return w.tolist()


def embedded_block(half: VectorSet) -> list[list[int]]:
    """The whole N/2 x N/2 integer block embedding.embedded_gram gives for
    the rows of half; its diagonal entries are the scale."""
    every = np.arange(half.count)
    return embedded_gram(half, every, every).tolist()


def as_array_set(vs: VectorSet) -> VectorSet:
    """The same set with its rows held as an int64 array, the form the
    numpy kernels take, whichever form vs holds."""
    return VectorSet(gram=vs.gram, min_norm=vs.min_norm, coords=vs.array)


def random_half(vs: VectorSet, seed: int) -> VectorSet:
    """A seeded half-set of the antipodal vs: per pair, row i or its
    partner N-1-i (rows are sorted, so negation reverses them), an oracle
    for the invariance of every result under the choice of half-set that
    enumeration.halve_antipodal fixes to the upper half."""
    if not vs.antipodal:
        raise NotAntipodalError("random_half needs an antipodal set")
    rng = random.Random(seed)
    n = vs.count
    keep = [i if rng.random() < 0.5 else n - 1 - i for i in range(n // 2)]
    return VectorSet(gram=vs.gram, min_norm=vs.min_norm,
                     coords=vs.array[keep])


def union_with_negation(vs: VectorSet) -> VectorSet:
    """X union -X as a single antipodal set (inputs must be antipodal-free)."""
    coords = np.concatenate([vs.array, -vs.array])
    if len(np.unique(coords, axis=0)) != coords.shape[0]:
        raise NotAntipodalError("set already contains an antipodal pair")
    return VectorSet(gram=vs.gram, min_norm=vs.min_norm, coords=coords)


def mirror(spec: PairSpectrum) -> PairSpectrum:
    """Spectrum of X union -X from that of an antipodal-free X:
    C(s) = 2 c(s) + 2 c(-s), the fold spectrum.pair_spectrum applies to
    the canonical half, here for any half-set."""
    if spec.antipodal:
        raise NotAntipodalError("spectrum is already antipodal")
    full: dict[Fraction, int] = {}
    for s, c in spec.entries:
        full[s] = full.get(s, 0) + 2 * c
        full[-s] = full.get(-s, 0) + 2 * c
    return PairSpectrum(d=spec.d, size=2 * spec.size,
                        entries=tuple(full.items()))


def dual(spec: LatticeSpec) -> LatticeSpec:
    """The dual lattice: Gram matrix replaced by its exact inverse."""
    name = spec.name[:-4] if spec.name.endswith("dual") else spec.name + "dual"
    kissing, min_norm = (expectations(name) if name in catalog_names()
                         else (None, None))
    return LatticeSpec(name=name, gram=invert(spec.gram),
                       expected_kissing=kissing, expected_min_norm=min_norm)


def spectrum_from_counts(d: int, counts: dict) -> PairSpectrum:
    """A PairSpectrum from {s: count}, of size sqrt(sum of counts)."""
    return PairSpectrum(d=d, size=isqrt(sum(counts.values())),
                        entries=tuple(counts.items()))


def certified_sweep(g: GramMatrix, bound) -> np.ndarray:
    """_fincke_pohst on g itself at bound, one row per +-pair, unsorted;
    _sweep_levels must accept the form and bound."""
    p, lam = ldlt(g.entries)
    levels = _sweep_levels(g, p, lam, Fraction(bound))
    assert levels is not None, "_sweep_levels refuses this form and bound"
    return _fincke_pohst(levels)


def enumerate_short_vectors(gram: GramMatrix, bound) -> np.ndarray:
    """All nonzero integer vectors v with v^T gram v <= bound, both signs,
    sorted lexicographically: the breadth-first pipeline of
    minimal_vector_set at a given bound, for bounds _sweep_levels
    accepts."""
    bound = Fraction(bound)
    if bound <= 0:
        raise EnumerationError("bound must be positive")
    reduced, trans, _, _ = size_reduce(gram)
    half = certified_sweep(reduced, bound)
    # norms are integers, so <= bound * c exactly when <= its floor
    keep = exact_norms(reduced, half) <= int(bound * reduced.scale)
    return _both_signs(half[keep], trans)


# ---------------------------------------------------------------------------
# Gegenbauer polynomials for S^d, normalized to 1 at x = 1, with exact
# rational coefficients from the three-term recurrence
#     Q_0 = 1,  Q_1 = x,
#     Q_{k+1}(x) = ((2k + d - 1) x Q_k(x) - k Q_{k-1}(x)) / (k + d - 1).
# For d = 1 it degenerates to the Chebyshev family (cos k theta), the
# harmonic family on the circle.

@dataclass(frozen=True)
class GegenbauerPoly:
    """Degree-k sphere polynomial; coefficients[i] multiplies x^i."""

    k: int
    d: int
    coefficients: tuple[Fraction, ...]

    def __call__(self, x) -> Fraction:
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def at_one(self) -> Fraction:
        return sum(self.coefficients, Fraction(0))


def _shift_up(coeffs: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    return (Fraction(0),) + coeffs


@lru_cache(maxsize=None)
def gegenbauer(k: int, d: int) -> GegenbauerPoly:
    """Normalized Gegenbauer polynomial g_{k,d} with g_{k,d}(1) = 1."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    if d < 1:
        raise ValueError("sphere dimension must be at least 1")
    if k == 0:
        return GegenbauerPoly(0, d, (Fraction(1),))
    if k == 1:
        return GegenbauerPoly(1, d, (Fraction(0), Fraction(1)))
    prev2 = gegenbauer(k - 2, d).coefficients
    lifted = _shift_up(gegenbauer(k - 1, d).coefficients)
    m = k - 1
    num_x = Fraction(2 * m + d - 1, m + d - 1)
    num_c = Fraction(m, m + d - 1)
    coeffs = [num_x * lifted[i] - num_c * (prev2[i] if i < len(prev2) else 0)
              for i in range(k + 1)]
    poly = GegenbauerPoly(k, d, tuple(coeffs))
    if poly.at_one() != 1:
        raise ArithmeticError(
            f"g_{{{k},{d}}}(1) = {poly.at_one()}, not 1: the recurrence "
            f"lost its normalization")
    return poly


def gegenbauer_sum(spec: PairSpectrum, k: int) -> Fraction:
    """Exact sum_s count(s) * g_{k,d}(s); zero iff the degree-k harmonic
    moments of the set vanish.  Warns on a spectrum that is not antipodal."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not spec.antipodal:
        warnings.warn("Gegenbauer test on a spectrum that is not antipodal",
                      stacklevel=2)
    g = gegenbauer(k, spec.d)
    return sum((c * g(s) for s, c in spec.entries), Fraction(0))


def gegenbauer_strength(spec: PairSpectrum, t_max: int) -> int:
    """Largest t <= t_max with vanishing Gegenbauer sums for k = 1..t: the
    oracle for designs.design_strength."""
    return next((k - 1 for k in range(1, t_max + 1)
                 if gegenbauer_sum(spec, k) != 0), t_max)


@pytest.fixture(scope="session")
def threads() -> int:
    return THREADS


@pytest.fixture(scope="session")
def hexagon() -> VectorSet:
    return lattice_vectors("A2")


@pytest.fixture(scope="session")
def octahedron() -> VectorSet:
    coords = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0],
                       [0, -1, 0], [0, 0, 1], [0, 0, -1]])
    return VectorSet(gram=GramMatrix.identity(3), min_norm=Fraction(1),
                     coords=coords)


@pytest.fixture(scope="session")
def d4_vectors() -> VectorSet:
    return lattice_vectors("D4")


@pytest.fixture(scope="session")
def e8_vectors() -> VectorSet:
    return lattice_vectors("E8")


@pytest.fixture(scope="session")
def e8_spectrum(e8_vectors):
    return pair_spectrum(e8_vectors, threads=THREADS)
