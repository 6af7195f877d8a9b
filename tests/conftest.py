"""Shared fixtures.

The big point sets (E8, BW16, Leech) are session-scoped so enumeration and
the quadratic pair pass run once for the whole suite.
"""

from __future__ import annotations

import os
from fractions import Fraction

import numpy as np
import pytest

from sphdesign.catalog import catalog
from sphdesign.embedding import embedded_gram
from sphdesign.enumeration import (
    NotAntipodalError,
    VectorSet,
    minimal_vector_set,
)
from sphdesign.linalg import GramMatrix, LinalgError
from sphdesign.spectrum import pair_spectrum

THREADS = min(4, os.cpu_count() or 1)


def lattice_vectors(name: str) -> VectorSet:
    spec = catalog(name)
    vs = minimal_vector_set(spec.gram)
    assert vs.count == spec.expected_kissing, \
        f"{name}: enumerated {vs.count}, expected {spec.expected_kissing}"
    return vs


def as_tuples(vs: VectorSet) -> list[tuple[int, ...]]:
    """The rows of vs as tuples of Python ints, in canonical order."""
    return [tuple(row) for row in vs.coords.tolist()]


def matmul(a, b):
    """Exact matrix product of nested sequences, as nested tuples."""
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


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


def harmonic_gram(g: GramMatrix) -> list[list[int]]:
    """W, the Gram matrix of the coordinate basis of embedding.harmonic_frame
    under <S, T> = tr(cG S cG T), cG = g.entries.

    W[p][q] = tr(cG S_p cG S_q) for the symmetric basis matrices S_p (E_ii,
    or E_ij + E_ji for i < j, ordered as numpy.triu_indices), so that
    Psi_x^T W Psi_y = <Psi_x, Psi_y>; W[p][q] = u_p u_q (G_ik G_jl
    + G_il G_jk) / 2 for p = (i, j), q = (k, l), with u = 1 on the
    diagonal and 2 off it.
    """
    iu, ju = np.triu_indices(g.n)
    ga = np.array(g.entries, dtype=object)
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


def union_with_negation(vs: VectorSet) -> VectorSet:
    """X union -X as a single antipodal set (inputs must be antipodal-free)."""
    coords = np.concatenate([vs.coords, -vs.coords])
    if len(np.unique(coords, axis=0)) != coords.shape[0]:
        raise NotAntipodalError("set already contains an antipodal pair")
    return VectorSet(gram=vs.gram, min_norm=vs.min_norm, coords=coords,
                     antipodal=True)


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
                     coords=coords, antipodal=True)


@pytest.fixture(scope="session")
def d4_vectors() -> VectorSet:
    return lattice_vectors("D4")


@pytest.fixture(scope="session")
def e8_vectors() -> VectorSet:
    return lattice_vectors("E8")


@pytest.fixture(scope="session")
def e8_spectrum(e8_vectors):
    return pair_spectrum(e8_vectors, threads=THREADS)
