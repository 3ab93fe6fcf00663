"""Barycentric interpolation at simple and confluent nodes: the one core.

Simple nodes are confluent nodes with confluency 1, so this module
serves both the Hermite and the Lagrange interpolational bases;
``lagrange.py`` holds the confluency-1 entry points over it.

Data layout
-----------
All routines here share one flattening of derivative data at confluent
nodes: node-major, scaled derivatives.  For nodes t_0, t_1, ... with
confluencies s_0, s_1, ... the data vector is

    p(t_0), p'(t_0)/1!, ..., p^(s_0-1)(t_0)/(s_0-1)!,  p(t_1), ...

so slot (i, j) holds the order-j Taylor coefficient of p about t_i.

Weights
-------
The generalized barycentric weights b_{i,j} are the coefficients of the
partial fraction expansion

    1 / w(z) = sum_i sum_{j < s_i} b_{i,j} / (z - t_i)^(j+1),

where w is the node polynomial prod (z - t_i)^(s_i).  They are read off
a truncated reciprocal power series of g_i(z) = w(z) / (z - t_i)^(s_i)
about each node, which keeps the whole computation local and exact over
rationals.  At confluency 1 they are the barycentric weights
1 / prod_{m != i} (t_i - t_m).

``hermite_eval`` and ``node_polynomial_value`` take any iterable of points and
return a list, doing each point's float operations of a point-by-point loop, in
order; ``hermite_eval`` in one pass per node that multiplies the node's factors into
w(z) and adds its share to the pole sum (see ``_pole_sums``).  A point that hits a
node gets its stored value, one that overflows next to a node its Taylor polynomial
(see ``_at_points``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from itertools import repeat
from operator import mul, truediv
from typing import NamedTuple

from .core import (
    DenseMatrix,
    Field,
    NodeSet,
    _integer_scaled,
    all_finite,
    as_node_set,
    one_of,
    zero_of,
)
from .series import series_reciprocal


class GenBaryWeights(NamedTuple):
    """Generalized barycentric weights, one ragged row per node.

    ``weights[i][j]`` stores b_{i,j} for 0 <= j < s_i.
    """

    nodes: NodeSet
    weights: tuple


def node_polynomial_value(nodes, zs) -> list:
    """w(z) = prod (z - t_k)^(s_k) at every z in zs, one factor at a time, left to right."""
    nodes, zs, out = as_node_set(nodes), list(zs), None
    for t, s in zip(nodes.nodes, nodes.confluencies):
        diffs = [z - t for z in zs]
        for _ in range(s):
            out = diffs if out is None else list(map(mul, out, diffs))
    return out


def _local_series(nodes: NodeSet, extra: int):
    """Taylor coefficients of every g_i about its own node t_i: (L, ts, coefficients).

    Entry i lists the coefficients of u^0 .. u^(s_i - 1 + extra) with
    u = z - t_i.  Each linear factor (u + t_i - t_m) is multiplied into
    every node's list at once, g_0 <- g_0 c and g_t <- g_{t-1} + c g_t,
    and node m's own entries are then restored: each coefficient sees a
    node-by-node product's operations in order.  Every node carries
    max(s) + extra orders, in node order, and keeps its first s_i + extra.
    Rational nodes run over the integers ts = T = L t instead, giving
    h_i(v) = prod_{m != i} (T_i - T_m + v)^(s_m) = L^(dim - s_i) g_i(v / L).
    """
    exact, confs = nodes.field is Field.RATIONAL, nodes.confluencies
    L, ts = _integer_scaled(nodes.nodes) if exact else (1, nodes.nodes)
    one, zero = (1, 0) if exact else (one_of(nodes.field), zero_of(nodes.field))
    # g[t][i]: coefficient t of node i's product so far
    g = [[one] * len(ts)] + [[zero] * len(ts) for _ in range(1, max(confs) + extra)]
    for m, (tm, sm) in enumerate(zip(ts, confs)):
        cs = [ti - tm for ti in ts]
        for _ in range(sm):
            new = [list(map(mul, g[0], cs))]
            new += [[p + c * q for p, c, q in zip(prev, cs, cur)] for prev, cur in zip(g, g[1:])]
            for row, old in zip(new, g):
                row[m] = old[m]
            g = new
    return L, ts, [[row[i] for row in g[:s + extra]] for i, s in enumerate(confs)]


def _integer_reciprocal(h, si: int) -> list:
    """R_0 .. R_(s_i - 1) with 1/h = sum_t R_t v^t / H^(t+1), H = h[0]:
    R_0 = 1 and R_t = -sum_{r=1..t} h_r R_{t-r} H^(r-1), all integers."""
    R = [1]
    for t in range(1, si):
        R.append(-sum(h[r] * R[t - r] * h[0] ** (r - 1) for r in range(1, t + 1)))
    return R


def _weights_from_series(nodes: NodeSet, local) -> GenBaryWeights:
    """Invert each g_i to order s_i - 1; b_{i, s_i-1-t} is coefficient t."""
    rows = []
    for i, (g, si) in enumerate(zip(local, nodes.confluencies)):
        if g[0] == 0 or not all_finite(nodes.field, (g[0],)):
            raise ArithmeticError(f"the node product g_{i}(t_{i}) = {g[0]!r} "
                                  "is outside the floating-point range")
        h = series_reciprocal(g, si - 1)
        rows.append(tuple(h[si - 1 - j] for j in range(si)))
    return GenBaryWeights(nodes, tuple(rows))


def gen_bary_weights(nodes) -> GenBaryWeights:
    """Partial fraction coefficients of 1/w, node by node.

    For node i, expand g_i = w(z) / (z - t_i)^(s_i) about t_i, invert
    the series to order s_i - 1, and read the weights in reverse:
    b_{i, s_i-1-t} is the order-t reciprocal coefficient.  Rational nodes
    run over integers: b_{i, s_i-1-t} = L^(dim-s_i+t) R_t / H_i^(t+1).
    """
    nodes = as_node_set(nodes)
    L, _, local = _local_series(nodes, 0)
    if nodes.field is not Field.RATIONAL:
        return _weights_from_series(nodes, local)
    rows = []
    for si, h in zip(nodes.confluencies, local):
        R = _integer_reciprocal(h, si)
        rows.append(tuple(Fraction(L ** (nodes.dimension - 1 - j) * R[si - 1 - j], h[0] ** (si - j))
                          for j in range(si)))
    return GenBaryWeights(nodes, tuple(rows))


def _pole_sums(w: GenBaryWeights, data, zs: list, times_w: bool = False) -> list:
    """sum_{i, k <= j} b_{i,j} d_{i,k} / (z - t_i)^(j+1-k) at each z off the nodes in O(dim),
    times w(z) with times_w: per node, Horner in u = 1/(z - t_i), P_0 = d_{i,0} and
    P_j = u P_{j-1} + d_{i,j}, gives the share u sum_j b_{i,j} P_j, added left to right in the
    pass that multiplies in the node's factors of w; both start as the first node's list."""
    ws = out = None
    for t, row, o in zip(w.nodes.nodes, w.weights, w.nodes.offsets):
        for _ in range(len(row) if times_w else 0):
            ws = [z - t for z in zs] if ws is None else [p * (z - t) for p, z in zip(ws, zs)]
        c, b, d = row[0] * data[o], row[-1], data[o + len(row) - 1]
        if len(row) == 1:   # the share c u, added in the same pass
            out = [c * (1 / (z - t)) for z in zs] if out is None else \
                [a + c * (1 / (z - t)) for a, z in zip(out, zs)]
            continue
        us = [1 / (z - t) for z in zs]
        ps, local = [data[o]] * len(zs), [c] * len(zs)
        for bj, dj in zip(row[1:-1], data[o + 1:o + len(row) - 1]):
            ps = [p * u + dj for p, u in zip(ps, us)]
            local = [acc + bj * p for acc, p in zip(local, ps)]
        # the last Horner step, the share and the add in one pass
        out = [(l + b * (p * u + d)) * u for l, p, u in zip(local, ps, us)] if out is None else \
            [a + (l + b * (p * u + d)) * u for a, l, p, u in zip(out, local, ps, us)]
    return list(map(mul, ws, out)) if times_w else out


def _at_points(w: GenBaryWeights, data, zs, off_nodes) -> list:
    """Stored values at node hits (== to a node: -0.0 hits 0.0), off_nodes(data, rest) at the rest;
    a value that is not finite is redone by ``_near_node``, and so is the whole grid where it
    divides by zero or an exact value is past the float range."""
    data = tuple(data)
    if len(data) != w.nodes.dimension:
        raise ValueError(f"expected {w.nodes.dimension} data entries, got {len(data)}")
    zs, nodes = list(zs), w.nodes.nodes
    stored = {t: data[o] for t, o in zip(nodes, w.nodes.offsets)}
    rest = [z for z in zs if z not in stored]
    try:
        vals = list(off_nodes(data, rest))
        total = sum(vals, 0.0)   # a float sum is finite only if every value is
    except (ZeroDivisionError, OverflowError):   # a zero difference, or an exact value past floats
        vals, total = [_near_node(w, data, z, off_nodes) for z in rest], 0.0
    if total - total != 0:
        vals = [v if v - v == 0 else _near_node(w, data, z, off_nodes) for v, z in zip(vals, rest)]
    rest = iter(vals)
    return [stored[z] if z in stored else next(rest) for z in zs]


def _size(x) -> float:
    return math.hypot(x.real, x.imag)   # abs(x), but inf where abs of a complex x would raise


def _near_node(w: GenBaryWeights, data: tuple, z, off_nodes):
    """off_nodes(data, [z]), or, where that is not finite from finite data and the overflow
    comes from z's nearest node t_i (some |b_{i,j}| / |z - t_i|^(j+1) past the float range),
    t_i's Taylor polynomial sum_{j < s_i} d_{i,j} (z - t_i)^j: d_{i,0} at s_i = 1 or z - t_i = 0."""
    nodes = w.nodes.nodes
    i = min(range(len(nodes)), key=lambda k: _size(z - nodes[k]))
    u, o, row = z - nodes[i], w.nodes.offsets[i], w.weights[i]
    if u == 0:   # a point of another type than the nodes: the int 2**53 + 1 at 2.0**53
        return data[o]
    value = next(iter(off_nodes(data, [z])))
    if value - value == 0 or not all(d - d == 0 for d in data) or not any(
            reduce(truediv, repeat(_size(u), j + 1), _size(b)) == math.inf for j, b in enumerate(row)):
        return value
    return reduce(lambda p, d: p * u + d, reversed(data[o:o + len(row)]))


def hermite_eval(w: GenBaryWeights, data, zs) -> list:
    """First-form evaluation of the interpolant defined by layout data, at every z in zs.

    p(z) = w(z) sum_i sum_j sum_{k <= j} b_{i,j} d_{i,k} / (z-t_i)^(j+1-k),
    where d are the layout entries.  A point that hits a node returns the
    stored value there (see ``_at_points``).  Far from the nodes the value can
    be nan where p is finite: at z = 1e160 for nodes [0, 0.5, 1], w(z) is inf
    and the pole sum cancels to 0.0; no double-precision form recovers it.
    """
    return _at_points(w, data, zs, lambda d, rest: _pole_sums(w, d, rest, times_w=True))


def monomial_data(nodes, k: int) -> tuple:
    """Layout vector of x^k: C(k, j) t_i^(k-j) in slot (i, j), zero for j > k.

    The entries share the nodes' field, so floating nodes get floating
    data even at k = 0.
    """
    nodes = as_node_set(nodes)
    zero = zero_of(nodes.field)
    return tuple(math.comb(k, j) * t ** (k - j) if j <= k else zero
                 for t, s in zip(nodes.nodes, nodes.confluencies) for j in range(s))


def constant_data(nodes) -> tuple:
    """Layout vector of the constant 1: one at each node, zero derivatives."""
    return monomial_data(nodes, 0)


def _exact_row(L: int, T, series, confluencies, i: int) -> list:
    """Row (i, s_i - 1) of the rational D: entry (l, m) is s_i L^(s_i - m) N / D.

    With K = s_l - 1 - m and d = T_i - T_l, N = H_i sum_t R^(l)_t d^t H_l^(K-t)
    and D = (H_l d)^(K+1) for l != i; N = sum_k R_(K-k) h_i[k+1] H_i^k and
    D = H_i^(K+1) for l = i.  A negative power of L joins the denominator.
    """
    si, (hi, Ri) = confluencies[i], series[i]
    row = []
    for l, (sl, (hl, Rl)) in enumerate(zip(confluencies, series)):
        if l == i:
            nd = [(sum(Ri[K - k] * hi[k + 1] * hi[0] ** k for k in range(K + 1)), hi[0] ** (K + 1))
                  for K in range(sl)]
        else:
            d, nd, N, D = T[i] - T[l], [], 0, 1
            for K in range(sl):
                N, D = N * hl[0] + Rl[K] * d ** K, D * hl[0] * d
                nd.append((hi[0] * N, D))
        for m, (N, D) in enumerate(reversed(nd)):
            row.append(Fraction(si * N * L ** (si - m), D) if si >= m
                       else Fraction(si * N, D * L ** (m - si)))
    return row


def diff_matrix_hermite(nodes) -> DenseMatrix:
    """Differentiation matrix on the scaled-derivative data layout.

    Maps the layout of p to the layout of p'.  For output order
    j < s_i - 1 the row is a shift, (j+1) times input slot (i, j+1).
    The single nontrivial row per node (output order s_i - 1) is s_i
    times the order-s_i Taylor coefficient about t_i of every cardinal
    function, sum_k b_{l,m+k} w(z) / (z - t_l)^(k+1).  That coefficient
    of w(z) / (z - t_l)^(k+1) is g_i(t_i) / (t_i - t_l)^(k+1) for l != i,
    and the coefficient k+1 of g_i for l = i, where the pole cancels
    against the node factor inside w.  At confluency 1 the entries are
    b_l g_i(t_i) / (t_i - t_l) off the diagonal and g_i'(t_i) / g_i(t_i)
    on it.  Construction is O(dim^2) once the g_i are known.  Floating
    rows are built one column block l at a time over all rows at once and
    then transposed, each entry with the operations, in order, and the
    ``sum`` of an entry-by-entry loop; the powers of t_i - t_l start at
    the difference itself.  Rational nodes form each entry from integers
    as one Fraction, see ``_exact_row``.
    """
    nodes = as_node_set(nodes)
    confs, one, zero = nodes.confluencies, one_of(nodes.field), zero_of(nodes.field)
    L, T, local = _local_series(nodes, 1)
    if nodes.field is Field.RATIONAL:
        series = [(h, _integer_reciprocal(h, s)) for h, s in zip(local, confs)]
        last = [_exact_row(L, T, series, confs, i) for i in range(len(confs))]
    else:
        g0s, cols = [g[0] for g in local], []
        for l, (tl, wl) in enumerate(zip(T, _weights_from_series(nodes, local).weights)):
            # powers of c = t_i - t_l by repeated multiplication; c = 1 stands in at l
            cs = [ti - tl for ti in T]
            cs[l] = one
            ps = cs
            qs = [list(map(truediv, g0s, ps))]
            for _ in range(1, len(wl)):
                ps = list(map(mul, ps, cs))
                qs.append(list(map(truediv, g0s, ps)))
            for k, qk in enumerate(qs):
                qk[l] = local[l][k + 1]
            for m in range(len(wl)):
                # entry i is s_i sum_k b_{l,m+k} q_k[i]: ``sum`` in k order keeps its float
                terms = [map(mul, repeat(b), qk) for b, qk in zip(wl[m:], qs)]
                cols.append(list(map(mul, confs, map(sum, zip(*terms)))))
        last = list(zip(*cols))
    rows, dim = [], nodes.dimension
    for si, oi, row in zip(confs, nodes.offsets, last):
        rows += [[zero] * (oi + j) + [j * one] + [zero] * (dim - oi - j - 1) for j in range(1, si)]
        rows.append(row)
    return DenseMatrix.from_rows(rows, nodes.field)
