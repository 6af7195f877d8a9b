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
from sphdesign.enumeration import (
    NotAntipodalError,
    VectorSet,
    minimal_vector_set,
)
from sphdesign.linalg import GramMatrix
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
