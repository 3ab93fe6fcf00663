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

so slot (i, j) holds the order-j Taylor coefficient of p about t_i: for x^k
it is C(k, j) t_i^(k-j), and column k of ``structure.monomial_images`` holds it.

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

``hermite_eval`` takes any iterable of points and returns a list, doing each point's float
operations of a point-by-point loop, in order, in one compiled loop over the points per run of
eight nodes, which multiplies each node's factors into w(z) and adds its share to the pole sum
(see ``_pole_sums`` and ``_chunk_pass``).  A point that hits a node gets its stored value, one
that overflows next to a node its Taylor polynomial (see ``_at_points``).
Construction runs compiled loops too, each float with the operations of an
entry-by-entry loop, in order: one product loop per node for the g_i
(``_series_pass``) and one pass over the rows of D per run of eight column
nodes (``_row_pass``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, reduce
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


def _local_series(nodes: NodeSet, extra: int):
    """Taylor coefficients of every g_i about its own node t_i: (L, ts, coefficients).

    Entry i lists the coefficients of u^0 .. u^(s_i - 1 + extra) with
    u = z - t_i.  One compiled loop per node (``_series_pass``) multiplies
    in its linear factors (u + t_i - t_m), node m's s_m times, in node
    order with node i skipped: each coefficient sees the operations of a
    node-by-node product, in order.  Rational nodes run over the integers
    ts = T = L t instead, giving
    h_i(v) = prod_{m != i} (T_i - T_m + v)^(s_m) = L^(dim - s_i) g_i(v / L).
    """
    exact, confs = nodes.field is Field.RATIONAL, nodes.confluencies
    L, ts = _integer_scaled(nodes.nodes) if exact else (1, nodes.nodes)
    one, zero = (1, 0) if exact else (one_of(nodes.field), zero_of(nodes.field))
    flat = [t for t, s in zip(ts, confs) for _ in range(s)]
    return L, ts, [_series_pass(s + extra)(ti, flat[:o] + flat[o + s:], one, zero)
                   for ti, s, o in zip(ts, confs, nodes.offsets)]


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
        if not all_finite(nodes.field, rows[-1]):   # g_i(t_i) finite, but too small to invert
            j = next(j for j, b in enumerate(rows[-1]) if not all_finite(nodes.field, (b,)))
            raise ArithmeticError(f"the weight b_{i},{j} = {rows[-1][j]!r} is outside the floating-point range")
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


_CHUNK = 8      # nodes per compiled pass
_PASSES = 256   # compiled passes kept, one per key


def _compiled(source: str, name: str):
    """The function ``run`` that source defines, compiled under name; ``mul`` is in its globals."""
    namespace = {"mul": mul}
    exec(compile(source, name, "exec"), namespace)
    return namespace["run"]


@lru_cache(maxsize=_PASSES)
def _series_pass(length: int):
    """The product loop of one node's Taylor coefficients a_0 .. a_(length-1), compiled once per
    length: from a_0 = one and zeros, per factor c = t_i - t_m in turn, a_t = a_(t-1) + c a_t from
    the top down, then a_0 = a_0 c.  The coefficients are locals until the loop ends."""
    return _compiled("\n    ".join([
        "def run(ti, tms, one, zero):", "a0 = one", *(f"a{t} = zero" for t in range(1, length)),
        "for tm in tms:", "    c = ti - tm", *(f"    a{t} = a{t - 1} + c * a{t}" for t in range(length - 1, 0, -1)),
        "    a0 = a0 * c", "return [" + ", ".join(f"a{t}" for t in range(length)) + "]"]), f"<hermite series {length}>")


@lru_cache(maxsize=_PASSES)
def _chunk_pass(confs: tuple, first: bool, times_w: bool):
    """The pass over a run of nodes whose weight rows have lengths confs, compiled once per key:
    a plain loop that, per point and per node k in order, sets e = z - t_k, with times_w does
    w = w * e s_k times, and adds the share c_k (1 / e) at s_k = 1, else q u after the Horner
    steps p = p u + d_{k,j}, q = q + b_{k,j} p from u = 1 / e, p = d_{k,0} and q = c_k, where
    c_k = b_{k,0} d_{k,0}.  It returns the lists of w and of the sum; the first run starts both
    from its first node's values.  Statements, not one expression per point, so that a
    confluency in the thousands compiles.  The source holds only integers and fixed names:
    nodes, weights, data and points are arguments."""
    lines, ks = [], range(len(confs))
    for k, s in enumerate(confs):
        start = first and k == 0   # w and the sum start as this node's values
        lines.append(f"e = z - t{k}")
        if times_w:
            lines += ["w = e"] * start + ["w = w * e"] * (s - start)
        p, q, share = f"d{k}_0", f"c{k}", f"c{k} * (1 / e)"
        if s > 1:
            lines.append("u = 1 / e")
            for j in range(1, s):
                lines += [f"p = {p} * u + d{k}_{j}", f"q = {q} + b{k}_{j} * p"]
                p, q, share = "p", "q", "q * u"
        lines.append(f"a = {share}" if start else f"a = a + {share}")
    loop = "z in zs" if first else "z, w, a in zip(zs, ws, acc)" if times_w else "z, a in zip(zs, acc)"
    b_names = "".join("(" + "".join(f"b{k}_{j}, " for j in range(s)) + "), " for k, s in enumerate(confs))
    d_names = "".join(f"d{k}_{j}, " for k, s in enumerate(confs) for j in range(s))
    source = "\n    ".join([
        "def run(zs, ws, acc, ts, rows, ds):",
        "".join(f"t{k}, " for k in ks) + "= ts", b_names + "= rows", d_names + "= ds",
        *(f"c{k} = b{k}_0 * d{k}_0" for k in ks),
        "wo, ao = [], []", "push_w, push_a = wo.append, ao.append", f"for {loop}:",
        *(f"    {line}" for line in lines), "    push_a(a)", *["    push_w(w)"] * times_w,
        "return wo, ao"])
    return _compiled(source, f"<hermite pass {confs}>")


@lru_cache(maxsize=_PASSES)
def _row_pass(confs: tuple):
    """The pass that extends every nontrivial row of D by a run of column nodes whose weight rows
    have lengths confs, compiled once per key: per row i and node l in order, c = (t_i - t_l) or
    one, the powers p = c, p c, ... of it, q_k = g_i(t_i) / p and, per m, s_i times the sum from 0
    of b_{l,m+k} q_k over k in order; one += per row.  The row's own node gets c = one, and its
    block is overwritten afterwards.  A sum of three or more terms calls ``sum``, which rounds
    unlike chained + from Python 3.12 on; a node of confluency above ``_CHUNK`` runs loops."""
    lines, entries, names = [], [], []
    for l, s in enumerate(confs):
        lines.append(f"c = ti - t{l} or one")
        if s <= _CHUNK:
            names.append("(" + "".join(f"b{l}_{j}, " for j in range(s)) + ")")
            lines.append(f"q{l}_0 = g / c")
            for k in range(1, s):
                lines += [f"p = {'p' if k > 1 else 'c'} * c", f"q{l}_{k} = g / p"]
            for m in range(s):
                terms = [f"b{l}_{m + k} * q{l}_{k}" for k in range(s - m)]
                entries.append(f"si * sum(({', '.join(terms)}))" if m < s - 2 else f"si * (0 + {' + '.join(terms)})")
        else:
            names.append(f"b{l}")
            lines += ["p = c", f"q{l} = [g / p]", f"for _ in range({s - 1}):", "    p = p * c",
                      f"    q{l}.append(g / p)", f"e{l} = [si * sum(map(mul, b{l}[m:], q{l})) for m in range({s})]"]
            entries.append(f"*e{l}")
    return _compiled("\n    ".join([
        "def run(rows, ts, gs, sis, tls, bls, one):", "".join(f"t{l}, " for l in range(len(confs))) + "= tls",
        "".join(f"{name}, " for name in names) + "= bls", "for row, ti, g, si in zip(rows, ts, gs, sis):",
        *(f"    {line}" for line in lines), "    row += (" + ", ".join(entries) + ",)"]), f"<hermite rows {confs}>")


def _pole_sums(w: GenBaryWeights, data, zs: list, times_w: bool = False) -> list:
    """sum_{i, k <= j} b_{i,j} d_{i,k} / (z - t_i)^(j+1-k) at each z off the nodes in O(dim),
    times w(z) with times_w: per node, Horner in u = 1/(z - t_i), P_0 = d_{i,0} and
    P_j = u P_{j-1} + d_{i,j}, gives the share u sum_j b_{i,j} P_j, added left to right in the
    pass that multiplies in the node's factors of w.  One compiled pass (``_chunk_pass``) runs
    each point through a run of ``_CHUNK`` nodes and hands its two lists to the next run."""
    nodes, offsets, rows = w.nodes.nodes, w.nodes.offsets, w.weights
    ws = out = None
    for i in range(0, len(nodes), _CHUNK):
        run = rows[i:i + _CHUNK]
        confs = tuple(map(len, run))
        ws, out = _chunk_pass(confs, i == 0, times_w)(
            zs, ws, out, nodes[i:i + _CHUNK], run, data[offsets[i]:offsets[i] + sum(confs)])
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


def constant_data(nodes) -> tuple:
    """Layout vector of the constant 1, in the nodes' field: column 0 of ``structure.monomial_images``."""
    nodes = as_node_set(nodes)
    one, zero = one_of(nodes.field), zero_of(nodes.field)
    return tuple(zero if j else one for s in nodes.confluencies for j in range(s))


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
    rows are built row by row, one compiled pass per run of column nodes
    (``_row_pass``), each entry with the operations, in order, of an
    entry-by-entry loop; the powers of t_i - t_l start at the difference
    itself.  Each node's own block is then written over with its ``sum``s.
    Rational nodes form each entry from integers as one Fraction, see
    ``_exact_row``.
    """
    nodes = as_node_set(nodes)
    confs, one, zero = nodes.confluencies, one_of(nodes.field), zero_of(nodes.field)
    L, T, local = _local_series(nodes, 1)
    if nodes.field is Field.RATIONAL:
        series = [(h, _integer_reciprocal(h, s)) for h, s in zip(local, confs)]
        last = [_exact_row(L, T, series, confs, i) for i in range(len(confs))]
    else:
        g0s, weights, last = [g[0] for g in local], _weights_from_series(nodes, local).weights, [[] for _ in T]
        for l in range(0, len(T), _CHUNK):
            _row_pass(confs[l:l + _CHUNK])(last, T, g0s, confs, T[l:l + _CHUNK], weights[l:l + _CHUNK], one)
        for row, si, oi, bi, gi in zip(last, confs, nodes.offsets, weights, local):
            row[oi:oi + si] = [si * sum(map(mul, bi[m:], gi[1:])) for m in range(si)]
    rows, dim = [], nodes.dimension
    for si, oi, row in zip(confs, nodes.offsets, last):
        rows += [[zero] * (oi + j) + [j * one] + [zero] * (dim - oi - j - 1) for j in range(1, si)]
        rows.append(row)
    return DenseMatrix.from_rows(rows, nodes.field)
