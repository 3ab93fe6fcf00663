"""Truncated power series reciprocal on a plain coefficient list.

A series of order n is a list of n + 1 coefficients [c_0, ..., c_n] of
u^0 .. u^n.  The recurrence works over any of the scalar fields; exactness
is preserved when the inputs are rational.
"""

from __future__ import annotations


def series_reciprocal(a, order: int) -> list:
    """Reciprocal of a series with nonzero constant term, to order ``order``.

    Standard triangular recurrence: with h = 1/a,
    h_0 = 1/a_0 and h_t = -(sum_{r=1..t} a_r h_{t-r}) / a_0.
    Coefficients past ``order`` are ignored and missing ones count as zero.
    """
    a = a[:order + 1]
    if not a or a[0] == 0:
        raise ZeroDivisionError("series reciprocal needs a nonzero constant term")
    h = [1 / a[0]]
    for t in range(1, order + 1):
        acc = sum(a[r] * h[t - r] for r in range(1, min(t, len(a) - 1) + 1))
        h.append(-acc / a[0])
    return h
