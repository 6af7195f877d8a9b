"""The even-moment design criterion, against the Gegenbauer oracle.

The program's one criterion (even moments hitting the sphere averages)
and the oracle of conftest (vanishing Gegenbauer sums) are independent
implementations and must agree everywhere; the acceptance suite re-checks
that on the big sets.
"""

from __future__ import annotations

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphdesign.catalog import available_names
from sphdesign.designs import (
    design_strength,
    even_moments,
    moment_target,
    venkov_3design,
    venkov_5design,
)
from sphdesign.embedding import embed
from sphdesign.enumeration import NotAntipodalError, VectorSet, halve_antipodal
from sphdesign.linalg import GramMatrix
from sphdesign.spectrum import pair_spectrum

from conftest import gegenbauer_strength, gegenbauer_sum, lattice_vectors


def test_moment_targets():
    assert moment_target(7, 2) == F(1, 8)
    assert moment_target(7, 4) == F(3, 80)
    assert moment_target(2, 4) == F(1, 5)
    assert moment_target(23, 10) == F(945, 24 * 26 * 28 * 30 * 32)
    assert moment_target(23, 10) == F(3, 53248)
    # (2k-1)!! / ((d+1)(d+3)...(d+2k-1)) with d = 1 collapses to
    # the circle averages 1/2, 3/8, ...
    assert moment_target(1, 2) == F(1, 2)
    assert moment_target(1, 4) == F(3, 8)


def test_moment_accessors(octahedron):
    sp = pair_spectrum(octahedron)
    assert list(even_moments(sp, 2)) == [(F(1, 3), F(1, 3)),
                                         (F(1, 3), F(1, 5))]
    assert list(even_moments(sp, 0)) == []


def test_octahedron_is_3_not_5(octahedron):
    sp = pair_spectrum(octahedron)
    ok3, lhs = venkov_3design(sp)
    assert ok3 and lhs == F(1, 3)
    ok5, lhs2, lhs4 = venkov_5design(sp)
    assert not ok5
    assert lhs2 == F(1, 3)
    assert lhs4 == F(1, 3)          # target is 1/5
    assert design_strength(sp, 11) == 3


def test_hexagon_strength_five(hexagon):
    sp = pair_spectrum(hexagon)
    assert design_strength(sp, 11) == 5
    ok5, lhs2, lhs4 = venkov_5design(sp)
    assert ok5 and lhs2 == F(1, 2) and lhs4 == F(3, 8)


def test_e8_strength_seven(e8_spectrum):
    assert design_strength(e8_spectrum, 11) == 7
    ok5, lhs2, lhs4 = venkov_5design(e8_spectrum)
    assert ok5 and lhs2 == F(1, 8) and lhs4 == F(3, 80)
    assert gegenbauer_sum(e8_spectrum, 8) != 0


@pytest.mark.parametrize("name,strength", [
    ("A2", 5), ("D4", 5), ("E6", 5), ("E6dual", 5),
    ("E7", 5), ("E7dual", 5), ("CT12", 5),
])
def test_catalog_strengths(name, strength):
    sp = pair_spectrum(lattice_vectors(name))
    assert design_strength(sp, strength + 1) == strength


def test_odd_gegenbauer_sums_vanish_on_antipodal(e8_spectrum):
    for k in (1, 3, 5, 7, 9, 11):
        assert gegenbauer_sum(e8_spectrum, k) == 0


def test_venkov_requires_antipodal(hexagon):
    half = pair_spectrum(halve_antipodal(hexagon))
    with pytest.raises(NotAntipodalError):
        venkov_5design(half)
    with pytest.raises(NotAntipodalError):
        venkov_3design(half)


def test_design_strength_requires_antipodal(hexagon):
    half = pair_spectrum(halve_antipodal(hexagon))
    for t_max in (1, 2, 11):
        with pytest.raises(NotAntipodalError, match="antipodal"):
            design_strength(half, t_max)
    with pytest.raises(ValueError, match="t_max must be >= 1"):
        design_strength(half, 0)


def test_criteria_reject_zero_sphere():
    # on S^0 every moment and target is 1: refused, not counted to t_max
    sp = pair_spectrum(VectorSet(gram=GramMatrix.identity(1), min_norm=F(1),
                                 coords=np.array([[-1], [1]])))
    assert sp.d == 0 and sp.antipodal
    with pytest.raises(ValueError, match="sphere dimension"):
        design_strength(sp, 10**9)
    with pytest.raises(ValueError, match="sphere dimension"):
        venkov_5design(sp)


def test_huge_t_max_stops_at_first_mismatch(e8_spectrum):
    assert design_strength(e8_spectrum, 10**9) == 7


@pytest.mark.parametrize("name", [n for n in available_names()
                                  if n != "Leech"])
def test_strength_matches_oracle_on_catalog(name):
    """design_strength equals the Gegenbauer-sum strength for every cap,
    on the source spectrum and on the embedded one."""
    src = pair_spectrum(lattice_vectors(name))
    for sp in (src, embed(src)):
        for t_max in range(1, 12):
            assert design_strength(sp, t_max) == \
                gegenbauer_strength(sp, t_max), (name, sp.d, t_max)


@pytest.mark.parametrize("name", ["A2", "D4", "E6", "E6dual", "E7",
                                  "E7dual"])
def test_criteria_agree_small_lattices(name):
    """even-moment equalities for k <= K iff Gegenbauer sums vanish
    through degree 2K+1."""
    sp = pair_spectrum(lattice_vectors(name))
    for cap in range(1, 6):
        by_moments = all(lhs == rhs for lhs, rhs in even_moments(sp, cap))
        by_sums = all(
            gegenbauer_sum(sp, k) == 0 for k in range(1, 2 * cap + 2))
        assert by_moments == by_sums


_D4_HALF = halve_antipodal(lattice_vectors("D4"))


def _d4_antipodal_subset(picks) -> VectorSet:
    rows = _D4_HALF.array[sorted(picks)]
    return VectorSet(gram=_D4_HALF.gram, min_norm=_D4_HALF.min_norm,
                     coords=np.vstack([rows, -rows]))


@given(st.sets(st.integers(min_value=0, max_value=11), min_size=1))
@settings(max_examples=60, deadline=None)
def test_criteria_agree_on_random_antipodal_subsets(picks):
    """The equivalence must hold for every antipodal subset of an orbit,
    not only for full minimal-vector sets."""
    sp = pair_spectrum(_d4_antipodal_subset(picks))
    for cap in (1, 2, 3):
        by_moments = all(lhs == rhs for lhs, rhs in even_moments(sp, cap))
        by_sums = all(
            gegenbauer_sum(sp, k) == 0 for k in range(1, 2 * cap + 2))
        assert by_moments == by_sums


@given(st.sets(st.integers(min_value=0, max_value=11), min_size=1),
       st.integers(min_value=1, max_value=11))
@settings(max_examples=60, deadline=None)
def test_strength_matches_oracle_on_random_antipodal_subsets(picks, t_max):
    sp = pair_spectrum(_d4_antipodal_subset(picks))
    assert design_strength(sp, t_max) == gegenbauer_strength(sp, t_max)
