"""Spherical design criteria evaluated exactly on pair spectra.

A finite set X on S^d is a t-design iff the Gegenbauer sums
sum_s count(s) * g_{k,d}(s) vanish for k = 1..t.  For antipodal sets the
equivalent even-moment form compares (1/N^2) sum count(s) s^(2k) against
(2k-1)!! / ((d+1)(d+3)...(d+2k-1)); both are exposed and cross-checked.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from math import prod

from .enumeration import NotAntipodalError
from .gegenbauer import gegenbauer
from .spectrum import PairSpectrum


def gegenbauer_sum(spec: PairSpectrum, k: int) -> Fraction:
    """Exact value of sum_s count(s) * g_{k,d}(s); zero iff degree-k harmonic
    moments of the set vanish."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not spec.antipodal:
        warnings.warn("Gegenbauer test on a spectrum not flagged antipodal",
                      stacklevel=2)
    return _gsum(spec, k)


def _gsum(spec: PairSpectrum, k: int) -> Fraction:
    g = gegenbauer(k, spec.d)
    return sum((c * g(s) for s, c in spec.entries), Fraction(0))


def design_strength(spec: PairSpectrum, t_max: int) -> int:
    """Largest t <= t_max with vanishing Gegenbauer sums for k = 1..t."""
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    if not spec.antipodal:
        warnings.warn("Gegenbauer test on a spectrum not flagged antipodal",
                      stacklevel=2)
    for k in range(1, t_max + 1):
        if _gsum(spec, k) != 0:
            return k - 1
    return t_max


def _require_antipodal(spec: PairSpectrum) -> None:
    if not spec.antipodal:
        raise NotAntipodalError(
            "moment criterion is stated for antipodal sets only")


def moment(spec: PairSpectrum, power: int) -> Fraction:
    """(1/N^2) sum_s count(s) * s^power, exact."""
    n2 = Fraction(spec.size * spec.size)
    return sum((c * s ** power for s, c in spec.entries), Fraction(0)) / n2


def moment_target(d: int, two_k: int) -> Fraction:
    """(2k-1)!! / ((d+1)(d+3)...(d+2k-1)), the 2k-th moment of the sphere."""
    if two_k < 2 or two_k % 2:
        raise ValueError("even power >= 2 required")
    return Fraction(prod(range(1, two_k, 2)), prod(range(d + 1, d + two_k, 2)))


def venkov_3design(spec: PairSpectrum) -> tuple[bool, Fraction]:
    """Antipodal 3-design criterion: mean squared product equals 1/(d+1)."""
    _require_antipodal(spec)
    lhs = moment(spec, 2)
    return lhs == moment_target(spec.d, 2), lhs


def venkov_5design(spec: PairSpectrum) -> tuple[bool, Fraction, Fraction]:
    """Antipodal 5-design criterion: second and fourth moments both match."""
    _require_antipodal(spec)
    lhs2 = moment(spec, 2)
    lhs4 = moment(spec, 4)
    holds = (lhs2 == moment_target(spec.d, 2)
             and lhs4 == moment_target(spec.d, 4))
    return holds, lhs2, lhs4

