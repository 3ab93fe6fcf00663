"""Truncated power series arithmetic on plain coefficient lists.

A series of order n is a list of n + 1 coefficients [c_0, ..., c_n] of
u^0 .. u^n.  All routines work over any of the scalar fields; exactness
is preserved when the inputs are rational.
"""

from __future__ import annotations


def series_trunc(a, order: int) -> list:
    """Pad with zeros or cut so that exactly order + 1 coefficients remain."""
    a = list(a)
    zero = a[0] * 0 if a else 0
    if len(a) < order + 1:
        a = a + [zero] * (order + 1 - len(a))
    return a[:order + 1]


def series_reciprocal(a, order: int) -> list:
    """Reciprocal of a series with nonzero constant term.

    Standard triangular recurrence: with h = 1/a,
    h_0 = 1/a_0 and h_t = -(sum_{r=1..t} a_r h_{t-r}) / a_0.
    """
    a = series_trunc(a, order)
    if a[0] == 0:
        raise ZeroDivisionError("series reciprocal needs a nonzero constant term")
    h = [1 / a[0]]
    for t in range(1, order + 1):
        acc = sum(a[r] * h[t - r] for r in range(1, t + 1))
        h.append(-acc / a[0])
    return h
