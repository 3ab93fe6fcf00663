"""Differentiation matrices for degree-graded polynomial bases.

A degree-graded basis phi_0, phi_1, ... (deg phi_k = k, phi_0 = 1) is
described here by the coefficients of its multiplication-by-x rule

    x phi_j = alpha_j phi_{j+1} + beta_j phi_j + gamma_j phi_{j-1},

with every alpha_j nonzero.  The monomial, Chebyshev, Legendre and Newton bases
are instances; the first three build their (strictly upper triangular) matrices
from closed forms, the others from the recurrence, as
``structure.monomial_images`` does x^k.  Chebyshev and Legendre antiderivative
companions zero their first row, the arbitrary constant, by convention.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain

from .core import (
    DegreeGradedBasis,
    DenseMatrix,
    Field,
    NodeSet,
    _coerce_all,
    _integer_scaled,
    all_finite,
    zero_of,
)


class RecurrenceSpec:
    """Multiplication-by-x coefficients for a degree-graded basis.

    Holds alpha_j, beta_j, gamma_j for j = 0 .. n-1; gamma_0 is kept for
    uniform indexing but never used (phi_{-1} is identically zero).
    """

    __slots__ = ("alpha", "beta", "gamma", "field")

    def __init__(self, alpha, beta=None, gamma=None):
        alpha = tuple(alpha)
        n = len(alpha)
        beta = tuple(beta) if beta is not None else (0,) * n
        gamma = tuple(gamma) if gamma is not None else (0,) * n
        if len(beta) != n or len(gamma) != n:
            raise ValueError("alpha, beta, gamma must have equal length")
        if any(a == 0 for a in alpha):
            raise ValueError("every alpha_j must be nonzero")
        field, abg = _coerce_all(alpha + beta + gamma)
        self.alpha, self.beta, self.gamma = abg[:n], abg[n:2 * n], abg[2 * n:]
        if not all_finite(field, abg):
            raise ValueError("recurrence coefficients must be finite numbers")
        self.field = field

    def __len__(self):
        return len(self.alpha)

    def __repr__(self):
        return f"RecurrenceSpec(n={len(self.alpha)}, field={self.field.value})"


def monomial_recurrence(n: int) -> RecurrenceSpec:
    """x * x^j = x^(j+1): alpha = 1, beta = gamma = 0."""
    return RecurrenceSpec((Fraction(1),) * n)


def chebyshev_recurrence(n: int) -> RecurrenceSpec:
    """x T_j = (T_{j+1} + T_{j-1}) / 2 for j >= 1, and x T_0 = T_1."""
    half = Fraction(1, 2)
    alpha = (Fraction(1),) + (half,) * max(n - 1, 0)
    gamma = (Fraction(0),) + (half,) * max(n - 1, 0)
    return RecurrenceSpec(alpha[:n], None, gamma[:n])


def legendre_recurrence(n: int) -> RecurrenceSpec:
    """x P_j = ((j+1) P_{j+1} + j P_{j-1}) / (2j + 1)."""
    alpha = tuple(Fraction(j + 1, 2 * j + 1) for j in range(n))
    gamma = tuple(Fraction(j, 2 * j + 1) for j in range(n))
    return RecurrenceSpec(alpha, None, gamma)


def newton_recurrence(points) -> RecurrenceSpec:
    """x N_j = N_{j+1} + z_j N_j for the Newton basis on centers z_j."""
    points = tuple(points)
    return RecurrenceSpec((1,) * len(points), points, None)


def monomial_basis(n: int):
    return DegreeGradedBasis(monomial_recurrence(n), n, name="monomial")


def chebyshev_basis(n: int):
    return DegreeGradedBasis(chebyshev_recurrence(n), n, name="chebyshev")


def legendre_basis(n: int):
    return DegreeGradedBasis(legendre_recurrence(n), n, name="legendre")


def newton_basis(nodes):
    zs = nodes.flat_nodes() if isinstance(nodes, NodeSet) else tuple(nodes)
    if not zs:
        raise ValueError("need at least one center")
    # every center is checked and joins the field; the last recurrence term goes unused
    return DegreeGradedBasis(newton_recurrence(zs), len(zs) - 1, name="newton")


def _integer_rows(rec: RecurrenceSpec, n: int) -> list:
    """Rows 0 .. n of Q as (integer numerators N_i, positive denominator e_i).

    A, B, G are alpha, beta, gamma times L, the lcm of their denominators.
    Row i combines rows i-1 and i-2 over c = lcm(e_{i-1}, e_{i-2}), with
    diagonal i L c and denominator A_{i-1} c, then is divided by gcd(e_i, *N_i) unless that is 1.
    """
    L, abg = _integer_scaled(rec.alpha[:n] + rec.beta[:n] + rec.gamma[:n])
    A, B, G = abg[:n], abg[n:2 * n], abg[2 * n:]
    rows = [([0] * (n + 2), 1)]
    for i in range(1, n + 1):
        (N1, e1), (N2, e2) = rows[i - 1], rows[max(i - 2, 0)]
        c = math.lcm(e1, e2)
        u, v, b = c // e1, c // e2 * G[i - 1], B[i - 1]
        # N1[0] = 0, so the A term vanishes at j = 1
        N = [0, *[u * ((B[j - 1] - b) * N1[j] + A[j - 2] * N1[j - 1] + G[j] * N1[j + 1]) - v * N2[j]
                  for j in range(1, i)], i * L * c, *[0] * (n + 1 - i)]
        e = A[i - 1] * c
        k = math.gcd(e, *N) if e > 0 else -math.gcd(e, *N)
        rows.append((N, e) if k == 1 else ([x // k for x in N], e // k))
    return rows


def diff_matrix_degree_graded(rec: RecurrenceSpec, n: int) -> DenseMatrix:
    """Differentiation matrix of dimension n + 1 for a degree-graded basis.

    Column k holds the coefficients of phi_k' in phi_0 .. phi_n.  The
    entries are filled by a second-order recurrence in the coefficients
    of the multiplication-by-x rule; each entry costs O(1), so the whole
    construction is O(n^2), one comprehension per row of Q.  Rationals
    run it on integer rows, see ``_integer_rows``, and D keeps them where
    every column is integer, else holds one Fraction per entry.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if len(rec) < n:
        raise ValueError(f"degree {n} needs {n} recurrence terms, got {len(rec)}")
    if rec.field is Field.RATIONAL:
        zero, rows = Fraction(0), _integer_rows(rec, n)
        if all(e == 1 for _, e in rows):   # row r of D holds N_k[r + 1] for k > r
            return DenseMatrix._from_ints(n + 1, [(1, [0] * (r + 1) + [N[r + 1] for N, _ in rows[r + 1:]])
                                                  for r in range(n + 1)])
        return DenseMatrix(n + 1, n + 1, [Fraction(rows[k][0][r + 1], rows[k][1]) if r < k else zero
                                          for r in range(n + 1) for k in range(n + 1)], rec.field)
    a, b, g = rec.alpha, rec.beta, rec.gamma
    zero = zero_of(rec.field)
    # Q[i][j] = coefficient of phi_{j-1} in phi_i', 1 <= j <= i <= n, from rows i-1 and i-2;
    # column 0 and the entries above the diagonal stay zero, and column 1 has no alpha term
    Q = [[zero] * (n + 2)]
    for i in range(1, n + 1):
        P, PP, ai, bi, gi = Q[i - 1], Q[max(i - 2, 0)], a[i - 1], b[i - 1], g[i - 1]
        row = [zero]
        if i > 1:
            row.append(((b[0] - bi) * P[1] + g[1] * P[2] - gi * PP[1]) / ai)
        row += [((b[j - 1] - bi) * P[j] + a[j - 2] * P[j - 1] + g[j] * P[j + 1] - gi * PP[j]) / ai
                for j in range(2, i)]
        Q.append(row + [i / ai] + [zero] * (n + 1 - i))
    # column k of D is row k of Q without its column 0
    return DenseMatrix(n + 1, n + 1, chain.from_iterable(zip(*(q[1:] for q in Q))), rec.field)


def monomial_diff_matrix(n: int) -> DenseMatrix:
    """Monomial differentiation matrix from (x^k)' = k x^(k-1): k at row k - 1 of column k."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return DenseMatrix._from_ints(n + 1, [(1, ([0] * (r + 1) + [r + 1] + [0] * n)[:n + 1]) for r in range(n + 1)])


def legendre_diff_matrix(n: int) -> DenseMatrix:
    """Legendre differentiation matrix from P_k' = sum of (2r + 1) P_r over r < k, k - r odd."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return DenseMatrix._from_ints(n + 1, [(1, [0] * (r + 1) + ([2 * r + 1, 0] * n)[:n - r]) for r in range(n + 1)])


def chebyshev_diff_matrix(n: int) -> DenseMatrix:
    """Chebyshev differentiation matrix from the closed-form coefficients.

    T_k' spreads 2k over T_{k-1}, T_{k-3}, ..., except that the T_0 slot
    receives k (odd k) or nothing (even k).
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return DenseMatrix._from_ints(n + 1, [(1, [(2 * k if r else k) if k > r and (k - r) % 2 else 0
                                              for k in range(n + 1)]) for r in range(n + 1)])


def chebyshev_antideriv_matrix(n: int) -> DenseMatrix:
    """Antidifferentiation companion in the Chebyshev basis.

    Maps coefficients of p to coefficients of an antiderivative of p,
    with the free constant fixed by zeroing the T_0 slot of the output.
    The matrix is tridiagonal with zero main diagonal: integrating T_k
    gives T_{k+1} / (2(k+1)) - T_{k-1} / (2(k-1)) for k >= 2, T_2 / 4
    for k = 1, and T_1 for k = 0; T_{n+1}, outside the space, is dropped.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    # row r >= 1 over 2r: 1 in column r - 1 (2 at r = 1, from T_0) and -1 in column r + 1
    return DenseMatrix._from_ints(n + 1, [(1, [0] * (n + 1))] + [
        (2 * r, ([0] * (r - 1) + [1 + (r == 1), 0, -1] + [0] * n)[:n + 1]) for r in range(1, n + 1)])


def legendre_antideriv_matrix(n: int) -> DenseMatrix:
    """Antidifferentiation companion in the Legendre basis.

    Integrating P_k gives (P_{k+1} - P_{k-1}) / (2k + 1), with P_{n+1} dropped;
    the P_0 slot of the output (the free constant) is zeroed by convention.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    # row r >= 1 over (2r - 1)(2r + 3): 2r + 3 in column r - 1 and 1 - 2r in column r + 1
    return DenseMatrix._from_ints(n + 1, [(1, [0] * (n + 1))] + [((2 * r - 1) * (2 * r + 3), (
        [0] * (r - 1) + [2 * r + 3, 0, 1 - 2 * r] + [0] * n)[:n + 1]) for r in range(1, n + 1)])


def newton_diff_matrix(nodes) -> DenseMatrix:
    """Differentiation matrix for the Newton basis on the given centers.

    ``newton_basis`` reads ``nodes``: a NodeSet (confluencies expand to
    repeated centers, node-major) or a plain sequence of centers,
    repetitions allowed.  With all centers equal the Newton basis
    degenerates to shifted monomials and the matrix to the monomial one.
    """
    basis = newton_basis(nodes)
    return diff_matrix_degree_graded(basis.recurrence, basis.degree)

