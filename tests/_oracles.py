"""Independent reference constructions used only by the tests.

Everything here goes the long way around on purpose: basis elements are
expanded into monomial coefficient lists with exact Fractions, derivatives
are taken coefficientwise, and expansions back into the basis under test
are obtained either from the defining data functionals (Lagrange, Hermite)
or by solving a linear system with a local Gaussian elimination.  None of
the package's matrix machinery is reused, so agreement with these oracles
is meaningful evidence.
"""

from fractions import Fraction
from functools import reduce
from itertools import chain, repeat
from math import comb, gcd, inf, lcm
from operator import add, mul

from polydiff.core import (
    Field,
    SingularMatrixError,
    _integer_scaled,
    coerce_scalar,
    field_of,
    join_fields,
    one_of,
    zero_of,
)


# ---------------------------------------------------------- polynomials
# a polynomial is a list of Fractions, index = power of x

def poly_trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def poly_add(p, q):
    n = max(len(p), len(q))
    return [(p[i] if i < len(p) else Fraction(0)) + (q[i] if i < len(q) else Fraction(0))
            for i in range(n)]


def poly_scale(p, c):
    return [c * a for a in p]


def poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def poly_deriv(p):
    return [Fraction(k) * p[k] for k in range(1, len(p))] or [Fraction(0)]


def poly_eval(p, x):
    acc = Fraction(0) if isinstance(x, (int, Fraction)) else x * 0
    for a in reversed(p):
        acc = acc * x + a
    return acc


def poly_shifted_eval(p, x, order):
    """order-th derivative of p at x, divided by order!."""
    q = list(p)
    for _ in range(order):
        q = poly_deriv(q)
    return poly_eval(q, x) / (1 if order == 0 else _factorial(order))


def _factorial(k):
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


# ---------------------------------------------------------- linear solve

def solve_exact(A, bs):
    """Solve A X = B columnwise by Gaussian elimination over Fractions.

    A is a list of row lists, bs a list of right-hand-side columns.
    Returns the solution columns.  Raises on a singular system.
    """
    n = len(A)
    M = [list(map(Fraction, row)) + [Fraction(b[i]) for b in bs]
         for i, row in enumerate(A)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular system in oracle")
        M[col], M[piv] = M[piv], M[col]
        inv = 1 / M[col][col]
        M[col] = [x * inv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return [[M[r][n + k] for r in range(n)] for k in range(len(bs))]


def gauss_jordan_inverse(rows):
    """The package's former exact inverse, kept step for step as a reference.

    Gauss-Jordan on [A | I] over Fractions with the first nonzero pivot:
    the pivot row is divided by its pivot and every other row loses its
    multiple of it.  Takes and returns lists of rows; raises the
    package's ``SingularMatrixError`` on a singular matrix.
    """
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def nilpotency_index_by_powers(rows):
    """The package's former nilpotency index: D^0, D^1, ..., D^n in turn.

    Returns the first power that is zero and raises ``ArithmeticError``
    when D^n is not, as the package does.  D is cleared to integers once,
    A = L D with L the lcm of its denominators, and the powers are plain
    integer products of A, each divided by its content: a power of A is
    zero exactly when that power of D is, and the integers stay small.
    """
    n = len(rows)
    scale = lcm(*(Fraction(x).denominator for row in rows for x in row))
    cols = list(zip(*[[int(x * scale) for x in row] for row in rows]))
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(n + 1):
        content = gcd(*chain.from_iterable(power))
        if not content:
            return k
        power = [[sum(map(mul, row, col)) // content for col in cols] for row in power]
    raise ArithmeticError("matrix is not nilpotent within its dimension")


# ---------------------------------------------------------- forward error over integers

def row_forward_errors(float_rows, exact_rows):
    """Normwise relative forward error of each float row, with no Fraction formed.

    ``exact_rows`` holds (D, [N_j]) with D > 0, entry j being N_j / D.  A float
    x = p/q (``float.as_integer_ratio``) is off N/D by |p D - N q| / (q D); row
    i gives max_j of those over max_j |N_j| / D, each quotient one correctly
    rounded ``int / int``.  A zero exact row gives 0.0 when the float row is
    zero too, else inf.
    """
    out = []
    for row, (den, nums) in zip(float_rows, exact_rows, strict=True):
        err = 0.0
        for x, num in zip(row, nums, strict=True):
            p, q = x.as_integer_ratio()
            err = max(err, abs(p * den - num * q) / (q * den))
        size = max(map(abs, nums), default=0) / den
        out.append(err / size if size else (inf if err else 0.0))
    return out


# ---------------------------------------------------------- former constructors
# The package's former exact constructors, one Fraction operation per
# arithmetic step, kept as references: the package now runs them on
# integer rows and forms one Fraction per entry.

def degree_graded_by_fractions(alpha, beta, gamma, n):
    """Rows of the degree-graded matrix from the second-order recurrence in Q.

    Q[i][j] is the coefficient of phi_{j-1} in phi_i'; column k of the
    matrix is row k of Q shifted down by one.  Floating coefficients run
    the same operations in floating point.
    """
    zero = type(alpha[0])(0) if alpha else Fraction(0)
    Q = [[zero] * (n + 2) for _ in range(n + 1)]
    for i in range(1, n + 1):
        Q[i][i] = i / alpha[i - 1]
        for j in range(i - 1, 0, -1):
            acc = (beta[j - 1] - beta[i - 1]) * Q[i - 1][j]
            if j >= 2:
                acc += alpha[j - 2] * Q[i - 1][j - 1]
            acc += gamma[j] * Q[i - 1][j + 1]
            if i >= 2:
                acc -= gamma[i - 1] * Q[i - 2][j]
            Q[i][j] = acc / alpha[i - 1]
    return [[Q[k][r + 1] if r < k else zero for k in range(n + 1)] for r in range(n + 1)]


def monomial_images_by_fractions(alpha, beta, gamma, dim):
    """Rows of the former degree-graded monomial images M, column k holding x^k.

    Column k + 1 is x times column k by x phi_j = alpha_j phi_{j+1} +
    beta_j phi_j + gamma_j phi_{j-1}, one operation per term, zero
    coefficients skipped, and each column padded with zeros to ``dim``:
    the former column-by-column helper, step for step.  Floating
    coefficients run the same operations in floating point.
    """
    zero = type(alpha[0])(0) if alpha else Fraction(0)
    cols = [[zero + 1]]
    for _ in range(dim - 1):
        out = [zero] * (len(cols[-1]) + 1)
        for j, c in enumerate(cols[-1]):
            if c == 0:
                continue
            out[j + 1] += alpha[j] * c
            out[j] += beta[j] * c
            if j >= 1:
                out[j - 1] += gamma[j] * c
        cols.append(out)
    return [[c[i] if i < len(c) else zero for c in cols] for i in range(dim)]


def hermite_image_columns_by_slots(nodes):
    """Columns of the former Hermite and Lagrange monomial images M: column k is the layout
    of x^k, C(k, j) t_i^(k-j) in slot (i, j) and the nodes' zero for j > k, one column at
    a time in the nodes' field: the former ``hermite.monomial_data`` loop, step for step."""
    zero = zero_of(nodes.field)
    return [tuple(comb(k, j) * t ** (k - j) if j <= k else zero
                  for t, s in zip(nodes.nodes, nodes.confluencies) for j in range(s))
            for k in range(nodes.dimension)]


def bernstein_images_by_fractions(n):
    """Rows of the former Bernstein monomial images M: column k holds x^k, entry i
    C(i, k) / C(n, k), one reduced Fraction per entry."""
    return [[Fraction(comb(i, k), comb(n, k)) for k in range(n + 1)] for i in range(n + 1)]


def _local_series_by_fractions(nodes, confluencies, extra):
    """Per node, u^0 .. u^(s_i - 1 + extra) of g_i(u) = prod_{m != i} (u + t_i - t_m)^(s_m)."""
    nodes = [Fraction(t) for t in nodes]
    out = []
    for i, (ti, si) in enumerate(zip(nodes, confluencies)):
        g = [Fraction(1)] + [Fraction(0)] * (si - 1 + extra)
        for m, (tm, sm) in enumerate(zip(nodes, confluencies)):
            for _ in range(sm if m != i else 0):
                c = ti - tm
                g = [c * g[0]] + [g[k - 1] + c * g[k] for k in range(1, len(g))]
        out.append(g)
    return out


def _reciprocal_series(a, order):
    """h = 1/a to the given order: h_0 = 1/a_0, h_t = -(sum_{r=1..t} a_r h_{t-r}) / a_0."""
    h = [1 / a[0]]
    for t in range(1, order + 1):
        h.append(-sum(a[r] * h[t - r] for r in range(1, t + 1)) / a[0])
    return h


def gen_bary_weights_by_fractions(nodes, confluencies):
    """b_{i, s_i-1-t} = coefficient t of 1/g_i about t_i, one ragged row per node."""
    local = _local_series_by_fractions(nodes, confluencies, 0)
    return [[_reciprocal_series(g, s - 1)[s - 1 - j] for j in range(s)]
            for g, s in zip(local, confluencies)]


def diff_matrix_hermite_by_fractions(nodes, confluencies):
    """Rows of the confluent differentiation matrix from the weights and the g_i.

    Shift rows (j+1) times slot (i, j+1) below order s_i - 1; row (i, s_i - 1)
    holds s_i sum_k b_{l,m+k} c_k with c_k = g_i(t_i) / (t_i - t_l)^(k+1) for
    l != i and c_k the coefficient k+1 of g_i for l = i.
    """
    nodes = [Fraction(t) for t in nodes]
    local = _local_series_by_fractions(nodes, confluencies, 1)
    weights = gen_bary_weights_by_fractions(nodes, confluencies)
    dim, offset, rows = sum(confluencies), 0, []
    for i, (ti, si, gi) in enumerate(zip(nodes, confluencies, local)):
        for j in range(1, si):
            rows.append([Fraction(j) if col == offset + j else Fraction(0) for col in range(dim)])
        row = []
        for l, (tl, sl, wl) in enumerate(zip(nodes, confluencies, weights)):
            coeffs = gi[1:] if l == i else [gi[0] / (ti - tl) ** (k + 1) for k in range(sl)]
            row += [si * sum(wl[m + k] * coeffs[k] for k in range(sl - m)) for m in range(sl)]
        rows.append(row)
        offset += si
    return rows


# ---------------------------------------------------------- former float loops
# The package's former floating-point constructors, one entry at a time,
# kept operation for operation: the whole-list passes that replaced them
# must give the same floats, by type and repr.

def local_series_by_columns(nodes, extra):
    """Per node, g_i's coefficients of u^0 .. u^(s_i - 1 + extra) about t_i: the
    factors t_i - t_m multiplied in flat order, one coefficient's history at a time."""
    one, zero = type(nodes.nodes[0])(1), type(nodes.nodes[0])(0)
    flat = [t for t, s in zip(nodes.nodes, nodes.confluencies) for _ in range(s)]
    out = []
    for ti, si, oi in zip(nodes.nodes, nodes.confluencies, nodes.offsets):
        factors = [ti - tm for tm in flat[:oi] + flat[oi + si:]]
        column = [one]
        for c in factors:
            column.append(column[-1] * c)
        g = [column[-1]]
        for _ in range(si - 1 + extra):
            new = [zero]
            for prev, c in zip(column, factors):
                new.append(prev + c * new[-1])
            column = new
            g.append(column[-1])
        out.append(g)
    return out


def gen_bary_weights_by_series(nodes):
    """b_{i, s_i-1-t} = coefficient t of 1/g_i about t_i, from the column-wise g_i."""
    return [[_reciprocal_series(g, s - 1)[s - 1 - j] for j in range(s)]
            for g, s in zip(local_series_by_columns(nodes, 0), nodes.confluencies)]


def diff_matrix_hermite_by_entries(nodes):
    """Rows of the floating confluent matrix, entry by entry: s_i sum_k b_{l,m+k} c_k
    with c_k = g_i(t_i) / p_k, p_1 = c ** 0 * c and p_{k+1} = p_k c for c = t_i - t_l,
    and c_k the coefficient k+1 of g_i on the diagonal block."""
    local = local_series_by_columns(nodes, 1)
    weights = gen_bary_weights_by_series(nodes)
    one, zero = type(nodes.nodes[0])(1), type(nodes.nodes[0])(0)
    rows = []
    for i, (ti, si, oi) in enumerate(zip(nodes.nodes, nodes.confluencies, nodes.offsets)):
        for j in range(1, si):
            row = [zero] * nodes.dimension
            row[oi + j] = j * one
            rows.append(row)
        gi, row = local[i], []
        for l, (tl, sl, wl) in enumerate(zip(nodes.nodes, nodes.confluencies, weights)):
            if l == i:
                coeffs = gi[1:]
            else:
                c = ti - tl
                p = c ** 0 * c
                coeffs = [gi[0] / p]
                for _ in range(1, sl):
                    p = p * c
                    coeffs.append(gi[0] / p)
            for m in range(sl):
                row.append(si * sum(map(mul, wl[m:], coeffs)))
        rows.append(row)
    return rows


def diff_matrix_lagrange_by_entries(nodes):
    """The simple-node rows above, each diagonal entry replaced by minus its row's other entries."""
    rows = diff_matrix_hermite_by_entries(nodes)
    zero = type(nodes.nodes[0])(0)
    for i, row in enumerate(rows):
        row[i] = zero
        row[i] = zero - sum(row)
    return rows


def matmul_by_fractions(A, B, cols):
    """A B over Fractions for lists of rows, B having ``cols`` columns: each entry
    a sum from Fraction(0), one Fraction product at a time."""
    columns = [[row[j] for row in B] for j in range(cols)]
    return [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in columns] for row in A]


def mat_power_by_products(rows, k):
    """rows^k as the package formed it before: I, then k products with the matrix, over Fractions."""
    n = len(rows)
    out = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    cols = list(zip(*rows))
    for _ in range(k):
        out = [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in cols] for row in out]
    return out


# ---------------------------------------------------------- former bookkeeping
# The package's former constructor bookkeeping, kept as written: the field
# rule as ``DenseMatrix`` ran it and the Taylor coefficients of the g_i with
# the nodes held by falling confluency.  The one field rule and the node
# order that replaced them must give the same values, by type and repr.

_SCALAR_TYPE = {Field.RATIONAL: Fraction, Field.REAL: float, Field.COMPLEX: complex}


def coerce_all_by_passes(values, field=None):
    """(field, values coerced into it): ``DenseMatrix``'s former join and type-set skip
    in front of the former ``_coerce_all`` and its two passes."""
    values = tuple(values)
    if field is None:
        field = join_fields(Field.RATIONAL, *(field_of(e) for e in values))
    if set(map(type, values)) <= {_SCALAR_TYPE[field]}:
        return field, values
    plain = {bool, int, Fraction, float, _SCALAR_TYPE[field]}
    if field is Field.RATIONAL or not set(map(type, values)) <= plain:
        return field, tuple([coerce_scalar(x, field) for x in values])
    return field, tuple(map(_SCALAR_TYPE[field], [x.numerator / x.denominator if type(x) is Fraction
                                                  else x for x in values]))


def local_series_by_rank(nodes, extra):
    """(L, ts, coefficients) of the g_i as the package formed them with the nodes ranked by
    falling confluency: row t holds only the nodes that need order t, a prefix, and each
    factor restores its own node's entries by a slice that may fall past a short row."""
    exact, confs = nodes.field is Field.RATIONAL, nodes.confluencies
    L, ts = _integer_scaled(nodes.nodes) if exact else (1, nodes.nodes)
    one, zero = (1, 0) if exact else (one_of(nodes.field), zero_of(nodes.field))
    rank = sorted(range(len(ts)), key=confs.__getitem__, reverse=True)
    pos = {i: k for k, i in enumerate(rank)}
    g = [[one] * len(ts)] + [[zero] * sum(s + extra > t for s in confs)
                             for t in range(1, max(confs) + extra)]
    for m, (tm, sm) in enumerate(zip(ts, confs)):
        cs, k = [ts[i] - tm for i in rank], pos[m]
        for _ in range(sm):
            new = [list(map(mul, g[0], cs))]
            new += [[p + c * q for p, c, q in zip(prev, cs, cur)] for prev, cur in zip(g, g[1:])]
            for row, old in zip(new, g):
                row[k:k + 1] = old[k:k + 1]
            g = new
    return L, ts, [[row[pos[i]] for row in g[:s + extra]] for i, s in enumerate(confs)]


# ---------------------------------------------------------- basis elements

def degree_graded_polys(alpha, beta, gamma, n):
    """phi_0 .. phi_n as monomial coefficient lists, from the x-multiplication rule."""
    polys = [[Fraction(1)]]
    for j in range(n):
        xp = [Fraction(0)] + polys[j]
        t = poly_add(xp, poly_scale(polys[j], -beta[j]))
        if j >= 1:
            t = poly_add(t, poly_scale(polys[j - 1], -gamma[j]))
        polys.append(poly_scale(t, 1 / Fraction(alpha[j])))
    return polys


def lagrange_polys(nodes):
    out = []
    for k, tk in enumerate(nodes):
        p = [Fraction(1)]
        for j, tj in enumerate(nodes):
            if j != k:
                p = poly_mul(p, [Fraction(-tj), Fraction(1)])
                p = poly_scale(p, 1 / (Fraction(tk) - Fraction(tj)))
        out.append(p)
    return out


def hermite_slots(nodes, confluencies):
    return [(i, j) for i, s in enumerate(confluencies) for j in range(s)]


def hermite_polys(nodes, confluencies):
    """Cardinal polynomials per slot, via the dual-functional linear system."""
    slots = hermite_slots(nodes, confluencies)
    dim = len(slots)
    # row s, column k: the slot-s functional applied to x^k
    A = [[Fraction(comb(k, m)) * Fraction(nodes[l]) ** (k - m) if k >= m else Fraction(0)
          for k in range(dim)]
         for (l, m) in slots]
    eyes = [[Fraction(1 if r == s else 0) for r in range(dim)] for s in range(dim)]
    return solve_exact(A, eyes)


def bernstein_polys(n):
    out = []
    for k in range(n + 1):
        p = [Fraction(comb(n, k))]
        for _ in range(k):
            p = poly_mul(p, [Fraction(0), Fraction(1)])
        for _ in range(n - k):
            p = poly_mul(p, [Fraction(1), Fraction(-1)])
        out.append(p)
    return out


# ---------------------------------------------------------- diff matrices

def _pad(p, n):
    return list(p) + [Fraction(0)] * (n - len(p))


def diff_matrix_by_expansion(polys):
    """Column k = coefficients of phi_k' re-expanded in phi, by linear solve."""
    dim = len(polys)
    A = [[_pad(polys[k], dim)[r] for k in range(dim)] for r in range(dim)]
    rhs = [_pad(poly_deriv(p), dim) for p in polys]
    cols = solve_exact(A, rhs)
    return [[cols[k][r] for k in range(dim)] for r in range(dim)]


def diff_matrix_by_values(polys, nodes):
    """Lagrange oracle: entry (i, k) = phi_k'(node_i)."""
    ders = [poly_deriv(p) for p in polys]
    return [[poly_eval(ders[k], Fraction(t)) for k in range(len(polys))]
            for t in nodes]


def diff_matrix_by_data(polys, nodes, confluencies):
    """Hermite oracle: row slot (l, m) takes the (l, m) data of each phi_k'."""
    slots = hermite_slots(nodes, confluencies)
    ders = [poly_deriv(p) for p in polys]
    return [[poly_shifted_eval(ders[k], Fraction(nodes[l]), m)
             for k in range(len(polys))]
            for (l, m) in slots]


# ---------------------------------------------------------- barycentric forms
# The package's former evaluation loops, kept operation for operation as
# references: the package now runs one recurrence for both forms.

def first_form_by_powers(w, data, z):
    """Confluent first form, one term b_ij d_ik (z - t_i)^-(j+1-k) at a time.

    Terms are formed as b_ij * d_ik * (1/(z - t_i)) ** (j+1-k) and added
    in (i, j, k) order; the node product multiplies out left to right.
    """
    nodes = w.nodes
    data = tuple(data)
    if z in nodes.nodes:
        return data[nodes.offsets[nodes.nodes.index(z)]]
    diffs = [z - t for t in nodes.nodes]
    total = None
    for x, row, o in zip(diffs, w.weights, nodes.offsets):
        inv = 1 / x
        local = None
        for j, bij in enumerate(row):
            for k in range(j + 1):
                term = bij * data[o + k] * inv ** (j + 1 - k)
                local = term if local is None else local + term
        total = local if total is None else total + local
    product = None
    for x, s in zip(diffs, nodes.confluencies):
        for _ in range(s):
            product = x if product is None else product * x
    return product * total


def second_form_by_sums(w, values, z):
    """Second form at simple nodes, sum b v / (z - t) over sum b / (z - t)."""
    ts = w.nodes.nodes
    values = tuple(values)
    for k, t in enumerate(ts):
        if z == t:
            return values[k]
    bs = [row[0] for row in w.weights]
    num = sum(b * v / (z - t) for b, v, t in zip(bs, values, ts))
    den = sum(b / (z - t) for b, t in zip(bs, ts))
    return num / den


# ---------------------------------------------------------- one point at a time
# The package's evaluation before it ran node-major over a list of points,
# kept operation for operation: the list kernels must give the same floats.

def node_polynomial_at(nodes, z):
    """w(z) = prod (z - t_k)^(s_k), multiplied out one factor at a time, left to right."""
    diffs = [z - t for t in nodes.nodes]
    return reduce(mul, chain.from_iterable(map(repeat, diffs, nodes.confluencies)))


def pole_sum_at(w, data, z):
    """sum_{i, k <= j} b_{i,j} d_{i,k} / (z - t_i)^(j+1-k): per node, Horner in
    u = 1/(z - t_i), P_0 = d_{i,0} and P_j = u P_{j-1} + d_{i,j}, gives the
    share u sum_j b_{i,j} P_j; shares are added left to right."""
    shares = []
    for t, row, o in zip(w.nodes.nodes, w.weights, w.nodes.offsets):
        u = 1 / (z - t)
        p = data[o]
        local = row[0] * p
        for j in range(1, len(row)):
            p = p * u + data[o + j]
            local += row[j] * p
        shares.append(local * u)
    return reduce(add, shares)


def first_form_at(w, data, z):
    """w(z) times the pole sum, or the stored value when z hits a node."""
    nodes = w.nodes
    data = tuple(data)
    if len(data) != nodes.dimension:
        raise ValueError(f"expected {nodes.dimension} data entries, got {len(data)}")
    if z in nodes.nodes:
        return data[nodes.offsets[nodes.nodes.index(z)]]
    return node_polynomial_at(nodes, z) * pole_sum_at(w, data, z)


def second_form_at(w, values, z):
    """Pole sum over the values over the pole sum over ones; a node hit is the first form's."""
    nodes = w.nodes
    values = tuple(values)
    if len(values) != nodes.dimension or z in nodes.nodes:
        return first_form_at(w, values, z)
    ones = [1 * t ** 0 for t in nodes.nodes]   # constant_data at simple nodes
    return pole_sum_at(w, values, z) / pole_sum_at(w, ones, z)


# ---------------------------------------------------------- scalar text

def parse_complex(s):
    """The complex scalar grammar written out by hand: "a+bi", "bi", "i", "-i", "a".

    It splits the token at its last sign that is neither leading nor part
    of an exponent and reads each side with ``float``.  Only ASCII spaces
    are removed inside the token; ``float`` strips any whitespace at the
    ends of each side.
    """
    t = s.strip().replace(" ", "")
    if not t:
        raise ValueError("empty complex literal")
    if t[-1] not in "iI":
        return complex(float(t), 0.0)
    body = t[:-1]
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "eE":
            re_part, im_part = body[:k], body[k:]
            break
    else:
        re_part, im_part = "", body
    if im_part in ("", "+"):
        im = 1.0
    elif im_part == "-":
        im = -1.0
    else:
        im = float(im_part)
    return complex(float(re_part) if re_part else 0.0, im)
