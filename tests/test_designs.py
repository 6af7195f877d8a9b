"""Moment criteria and Gegenbauer-sum design tests.

The two design criteria (even moments hitting the sphere averages, and
vanishing Gegenbauer sums) are independent implementations and must agree
everywhere; the acceptance suite re-checks that on the big sets.
"""

from __future__ import annotations

import warnings
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphdesign.designs import (
    design_strength,
    gegenbauer_sum,
    moment,
    moment_target,
    venkov_3design,
    venkov_5design,
)
from sphdesign.enumeration import NotAntipodalError, halve_antipodal
from sphdesign.spectrum import pair_spectrum

from conftest import lattice_vectors


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
    assert moment(sp, 2) == F(1, 3)
    assert moment(sp, 4) == F(1, 3)
    assert moment_target(sp.d, 4) == F(1, 5)


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


def test_gegenbauer_sum_warns_on_non_antipodal(hexagon):
    half = pair_spectrum(halve_antipodal(hexagon))
    with pytest.warns(UserWarning, match="antipodal"):
        gegenbauer_sum(half, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gegenbauer_sum(pair_spectrum(hexagon), 2)  # no warning


def test_venkov_requires_antipodal(hexagon):
    half = pair_spectrum(halve_antipodal(hexagon))
    with pytest.raises(NotAntipodalError):
        venkov_5design(half)
    with pytest.raises(NotAntipodalError):
        venkov_3design(half)


@pytest.mark.parametrize("name", ["A2", "D4", "E6", "E6dual", "E7",
                                  "E7dual"])
def test_criteria_agree_small_lattices(name):
    """even-moment equalities for k <= K iff Gegenbauer sums vanish
    through degree 2K+1."""
    sp = pair_spectrum(lattice_vectors(name))
    for cap in range(1, 6):
        by_moments = all(
            moment(sp, 2 * j) == moment_target(sp.d, 2 * j)
            for j in range(1, cap + 1))
        by_sums = all(
            gegenbauer_sum(sp, k) == 0 for k in range(1, 2 * cap + 2))
        assert by_moments == by_sums


_D4_HALF = halve_antipodal(lattice_vectors("D4"))


@given(st.sets(st.integers(min_value=0, max_value=11), min_size=1))
@settings(max_examples=60, deadline=None)
def test_criteria_agree_on_random_antipodal_subsets(picks):
    """The equivalence must hold for every antipodal subset of an orbit,
    not only for full minimal-vector sets."""
    import numpy as np

    from sphdesign.enumeration import VectorSet

    rows = _D4_HALF.coords[sorted(picks)]
    coords = np.vstack([rows, -rows])
    vs = VectorSet(gram=_D4_HALF.gram, min_norm=_D4_HALF.min_norm,
                   coords=coords, antipodal=True)
    sp = pair_spectrum(vs)
    for cap in (1, 2, 3):
        by_moments = all(
            moment(sp, 2 * j) == moment_target(sp.d, 2 * j)
            for j in range(1, cap + 1))
        by_sums = all(
            gegenbauer_sum(sp, k) == 0 for k in range(1, 2 * cap + 2))
        assert by_moments == by_sums
