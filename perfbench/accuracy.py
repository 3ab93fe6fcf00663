"""d_fwd_err: forward error of float differentiation matrices.

The probes are fixed: Lagrange and Hermite with confluency 1 on the 166
Chebyshev points (n = 165), and Hermite with confluency 3 on the 22
Chebyshev points (n = 21).  Each float matrix is compared, in the
infinity norm, with a reference built on the same float nodes read as
exact numbers: mpmath at 40 digits for the simple nodes, exact
rationals for the confluent probe (exact references at n = 165 take
minutes, so that probe stays small).  The metric is the largest of the
three normwise relative errors.  Without mpmath the simple-node
references are unavailable and the metric is reported as null.
"""

from __future__ import annotations

import math
from fractions import Fraction

MP_DIGITS = 40


def chebyshev_nodes(n: int) -> list[float]:
    return [math.cos(math.pi * (n - j) / n) for j in range(n + 1)]


def _mp_lagrange_reference(mpmath, nodes):
    """D_ij = (w_j / w_i) / (t_i - t_j); D_ii = sum_{j != i} 1 / (t_i - t_j)."""
    ts = [mpmath.mpf(t) for t in nodes]
    n = len(ts)
    weights = []
    for k in range(n):
        prod = mpmath.mpf(1)
        for j in range(n):
            if j != k:
                prod *= ts[k] - ts[j]
        weights.append(1 / prod)
    return [[sum(1 / (ts[i] - ts[m]) for m in range(n) if m != i) if i == j
             else weights[j] / (weights[i] * (ts[i] - ts[j])) for j in range(n)]
            for i in range(n)]


def _relative_error(D, ref, convert) -> float:
    num = max(sum(abs(convert(d) - r) for d, r in zip(D.row(i), row))
              for i, row in enumerate(ref))
    den = max(sum(abs(r) for r in row) for row in ref)
    return float(num / den)


def forward_errors(mods) -> dict | None:
    """Normwise relative error of each probe, or None without mpmath."""
    try:
        import mpmath
    except ImportError:
        return None
    core, lagrange, hermite = mods["core"], mods["lagrange"], mods["hermite"]
    out = {}
    nodes = chebyshev_nodes(165)
    with mpmath.workdps(MP_DIGITS):
        ref = _mp_lagrange_reference(mpmath, nodes)
        out["lagrange_n165"] = _relative_error(
            lagrange.diff_matrix_lagrange(core.NodeSet(nodes)), ref, mpmath.mpf)
        out["hermite_s1_n165"] = _relative_error(
            hermite.diff_matrix_hermite(core.NodeSet(nodes, [1] * len(nodes))), ref, mpmath.mpf)
    nodes = chebyshev_nodes(21)
    exact = hermite.diff_matrix_hermite(core.NodeSet([Fraction(t) for t in nodes], [3] * len(nodes)))
    out["hermite_s3_n21"] = _relative_error(
        hermite.diff_matrix_hermite(core.NodeSet(nodes, [3] * len(nodes))),
        exact.to_rows(), Fraction)
    return out
