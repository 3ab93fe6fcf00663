"""Barycentric Lagrange interpolation and its differentiation matrix.

Simple nodes are confluent nodes with confluency 1, so the weights, the
first barycentric form and the matrix come from the core in
``hermite.py``, on nodes that ``LagrangeBasis`` finds simple.  This
module adds the second barycentric form.  In floating point it also rewrites
the diagonal of the core's matrix in place with the negative sum.
"""

from __future__ import annotations

import math

from .core import DenseMatrix, Field, LagrangeBasis, zero_of
from .hermite import (
    GenBaryWeights,
    _at_points,
    _pole_sums,
    constant_data,
    diff_matrix_hermite,
    gen_bary_weights,
    hermite_eval,
)


def bary_weights(nodes) -> GenBaryWeights:
    """Weights beta_k = prod_{j != k} (t_k - t_j)^(-1), stored as weights[k][0]."""
    return gen_bary_weights(LagrangeBasis(nodes).nodes)


def eval_first_form(w: GenBaryWeights, values, zs) -> list:
    """First barycentric form w(z) * sum beta_k rho_k / (z - t_k) at every z in zs;
    a point that hits a node returns the stored value for that node.  Far out the
    value can be nan, as ``hermite_eval`` says: w(z) overflows while the sum cancels."""
    LagrangeBasis(w.nodes)
    return hermite_eval(w, values, zs)


def eval_second_form(w: GenBaryWeights, values, zs) -> list:
    """Second barycentric form at every z in zs: the pole sum over the values divided by
    the pole sum over ones, w(z) cancelling; a bad count or a node hit is the first form's.
    Far out, where the pole sum over ones is 0.0, the value is nan, as the first form gives."""
    LagrangeBasis(w.nodes)
    return _at_points(w, values, zs, lambda v, rest: [
        a / b if b else a * math.nan
        for a, b in zip(_pole_sums(w, v, rest), _pole_sums(w, constant_data(w.nodes), rest))])


def diff_matrix_lagrange(nodes) -> DenseMatrix:
    """Differentiation matrix on function values at simple nodes.

    Entry (i, j) is the derivative at t_i of the j-th cardinal function,
    beta_j / (beta_i (t_i - t_j)) off the diagonal; the core forms it from
    the node products directly (see ``diff_matrix_hermite``).  In floating
    point the result is the core's entries with each diagonal entry
    replaced in place by minus the sum of its row's other entries, so
    that D maps constants to zero up to the rounding of that sum
    (Baltensperger & Trummer 2003); this keeps D f accurate when f has a
    large constant part.  Exact rows sum to zero already and are returned
    as the core built them.  Construction is O(n^2).
    """
    D = diff_matrix_hermite(LagrangeBasis(nodes).nodes)
    if D.field is Field.RATIONAL:
        return D
    n, zero, entries = D.rows, zero_of(D.field), list(D.entries)
    for i in range(n):
        start = i * n
        entries[start + i] = zero
        entries[start + i] = zero - sum(entries[start:start + n])
    return DenseMatrix(n, n, entries, D.field)
