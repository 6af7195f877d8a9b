"""Gegenbauer polynomials for the sphere S^d, normalized to 1 at x = 1.

Coefficients are exact rationals from the three-term recurrence

    Q_0 = 1,  Q_1 = x,
    Q_{k+1}(x) = ((2k + d - 1) x Q_k(x) - k Q_{k-1}(x)) / (k + d - 1).

For d = 1 the recurrence degenerates to the Chebyshev family (cos k*theta),
which is the correct harmonic family on the circle, so no special case is
needed beyond the base cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


@dataclass(frozen=True)
class GegenbauerPoly:
    """Degree-k sphere polynomial with exact rational coefficients.

    coefficients[i] multiplies x^i; only powers matching k mod 2 appear.
    """

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
    prev1 = gegenbauer(k - 1, d).coefficients
    m = k - 1
    num_x = Fraction(2 * m + d - 1, m + d - 1)
    num_c = Fraction(m, m + d - 1)
    lifted = _shift_up(prev1)
    coeffs = []
    for i in range(k + 1):
        a = lifted[i] if i < len(lifted) else Fraction(0)
        b = prev2[i] if i < len(prev2) else Fraction(0)
        coeffs.append(num_x * a - num_c * b)
    poly = GegenbauerPoly(k, d, tuple(coeffs))
    if poly.at_one() != 1:
        raise ArithmeticError(
            f"g_{{{k},{d}}}(1) = {poly.at_one()}, not 1: the recurrence "
            f"lost its normalization")
    return poly
