"""Spherical design criteria evaluated exactly on pair spectra.

An antipodal set X on S^d is a t-design iff its even moments
(1/N^2) sum_s count(s) s^(2j) equal those of the sphere,
(2j-1)!! / ((d+1)(d+3)...(d+2j-1)), for every 2j <= t (Venkov,
*Reseaux et designs spheriques*, 2001): its odd Gegenbauer sums vanish,
and g_0, g_2, ..., g_2J span the same polynomials as 1, s^2, ..., s^2J.
Every criterion here reads those moments (even_moments), which refuse a
spectrum that is not antipodal: one whose counts at s = -1 and s = 1
differ (PairSpectrum.antipodal).
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from math import prod

from .enumeration import NotAntipodalError
from .spectrum import PairSpectrum


def moment_target(d: int, two_k: int) -> Fraction:
    """(2k-1)!! / ((d+1)(d+3)...(d+2k-1)), the 2k-th moment of the sphere."""
    if two_k < 2 or two_k % 2:
        raise ValueError("even power >= 2 required")
    return Fraction(prod(range(1, two_k, 2)), prod(range(d + 1, d + two_k, 2)))


def even_moments(spec: PairSpectrum,
                 k: int) -> Iterator[tuple[Fraction, Fraction]]:
    """(moment, moment_target) for the powers 2, 4, ..., 2k of an antipodal
    spectrum, exact, computed as they are read; any other spectrum raises
    NotAntipodalError."""
    if not spec.antipodal:
        raise NotAntipodalError(
            "moment criterion is stated for antipodal sets only")
    if spec.d < 1:
        # on S^0 every moment and every target is 1: no cap would stop
        # design_strength short of t_max
        raise ValueError("sphere dimension must be at least 1")
    n2 = spec.size * spec.size
    for two_j in range(2, 2 * k + 1, 2):
        total = sum(c * s ** two_j for s, c in spec.entries)
        yield total / n2, moment_target(spec.d, two_j)


def design_strength(spec: PairSpectrum, t_max: int) -> int:
    """Largest t <= t_max such that the antipodal set is a t-design:
    min(t_max, 2J + 1) with J the number of leading moments that match."""
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    j = 0
    for lhs, rhs in even_moments(spec, t_max // 2):
        if lhs != rhs:
            break
        j += 1
    return min(t_max, 2 * j + 1)


def venkov_3design(spec: PairSpectrum) -> tuple[bool, Fraction]:
    """Antipodal 3-design criterion: mean squared product equals 1/(d+1)."""
    [(lhs, rhs)] = even_moments(spec, 1)
    return lhs == rhs, lhs


def venkov_5design(spec: PairSpectrum) -> tuple[bool, Fraction, Fraction]:
    """Antipodal 5-design criterion: second and fourth moments both match."""
    [(lhs2, rhs2), (lhs4, rhs4)] = even_moments(spec, 2)
    return lhs2 == rhs2 and lhs4 == rhs4, lhs2, lhs4
