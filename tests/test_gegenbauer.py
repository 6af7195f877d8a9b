"""The Gegenbauer oracle of conftest, checked against closed forms and
sympy: the polynomial family and the sums that test the design criteria."""

from __future__ import annotations

import warnings
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from conftest import gegenbauer, gegenbauer_sum
from sphdesign.enumeration import halve_antipodal
from sphdesign.spectrum import pair_spectrum


DIMS = [1, 2, 3, 5, 6, 7, 9, 11, 15, 23]


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("k", range(12))
def test_normalized_at_one(k, d):
    assert gegenbauer(k, d)(F(1)) == 1


@pytest.mark.parametrize("d", DIMS)
def test_degree_two_closed_form(d):
    # ((d+1) x^2 - 1) / d
    g = gegenbauer(2, d)
    for x in (F(0), F(1, 2), F(-1, 3), F(1), F(-1)):
        assert g(x) == ((d + 1) * x * x - 1) / F(d)


def test_degree_one_is_identity():
    for d in DIMS:
        g = gegenbauer(1, d)
        assert g(F(1, 3)) == F(1, 3)


def test_chebyshev_degeneration_on_circle():
    # on S^1 the family reduces to Chebyshev T_k: T_k(cos t) = cos kt
    t3 = gegenbauer(3, 1)
    t4 = gegenbauer(4, 1)
    x = F(1, 2)  # cos(pi/3)
    assert t3(x) == F(-1)   # cos(pi)
    assert t4(x) == F(-1, 2)  # cos(4pi/3)


@pytest.mark.parametrize("k", range(8))
def test_parity(k):
    g = gegenbauer(k, 5)
    for x in (F(1, 3), F(2, 7)):
        assert g(-x) == (-1) ** k * g(x)


@given(st.integers(min_value=0, max_value=11),
       st.sampled_from(DIMS),
       st.fractions(min_value=-1, max_value=1, max_denominator=40))
@settings(max_examples=120, deadline=None)
def test_matches_sympy_jacobi_normalization(k, d, x):
    import sympy

    # ultraspherical with alpha = (d-1)/2, normalized to 1 at x=1
    alpha = sympy.Rational(d - 1, 2)
    xs = sympy.Symbol("x")
    if d == 1:
        ref = sympy.chebyshevt(k, sympy.Rational(x))
    else:
        poly = sympy.gegenbauer(k, alpha, xs)
        at_one = poly.subs(xs, 1)
        ref = (poly / at_one).subs(xs, sympy.Rational(x))
    assert sympy.Rational(gegenbauer(k, d)(F(x))) == ref


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        gegenbauer(-1, 3)
    with pytest.raises(ValueError):
        gegenbauer(2, 0)


def test_lost_normalization_raises(monkeypatch):
    # a broken recurrence must fail loudly, also under python -O
    monkeypatch.setattr(conftest, "_shift_up",
                        lambda c: (F(0),) + tuple(2 * x for x in c))
    gegenbauer.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match="normalization"):
            gegenbauer(2, 5)
    finally:
        gegenbauer.cache_clear()


def test_gegenbauer_sum_warns_on_non_antipodal(hexagon):
    half = pair_spectrum(halve_antipodal(hexagon))
    with pytest.warns(UserWarning, match="antipodal"):
        gegenbauer_sum(half, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gegenbauer_sum(pair_spectrum(hexagon), 2)  # no warning
