"""Truncated power series arithmetic, checked against plain polynomial algebra."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from polydiff.series import series_reciprocal

import _oracles as orc


rational = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def test_reciprocal_small_case():
    # 1 / (1 - u) = 1 + u + u^2 + ...
    assert series_reciprocal([1, -1], 4) == [1, 1, 1, 1, 1]


def test_reciprocal_requires_unit():
    with pytest.raises(ZeroDivisionError):
        series_reciprocal([0, 1], 2)


@given(st.lists(rational, min_size=1, max_size=6))
def test_reciprocal_inverts(coeffs):
    if coeffs[0] == 0:
        coeffs[0] = Fraction(1)
    order = len(coeffs)
    h = series_reciprocal(coeffs, order)
    assert orc.poly_mul(coeffs, h)[:order + 1] == [1] + [0] * order
