"""Structural facts shared by every differentiation matrix here.

Every basis this package handles spans the polynomials of some degree
n, so its differentiation matrix D is similar to the single nilpotent
Jordan block J of dimension n + 1: the similarity is carried by the
matrix V whose column k holds the coefficients of x^k / k! in the
basis.  From V one gets a structured generalized inverse
D+ = V J^T V^(-1), which satisfies D D+ D = D and D+ D D+ = D+ but is
not the Moore-Penrose pseudoinverse in general.

The same data yields an independent oracle for any differentiation
matrix: conjugate the (trivially correct) monomial matrix by the
basis-change matrix M whose columns are the monomial images x^k.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .core import (
    BernsteinBasis,
    DegreeGradedBasis,
    DenseMatrix,
    Field,
    HermiteBasis,
    SingularMatrixError,
    _integer_scaled,
    approx_equal,
    one_of,
    zero_of,
)
from .bernstein import monomial_in_bernstein
from .degree_graded import multiply_by_x
from .hermite import monomial_data


def monomial_images(basis) -> DenseMatrix:
    """Matrix M whose column k holds the coefficients of x^k in the basis."""
    dim = basis.dimension
    if isinstance(basis, DegreeGradedBasis):
        zero, cols = zero_of(basis.field), [[one_of(basis.field)]]
        for _ in range(dim - 1):
            cols.append(multiply_by_x(basis.recurrence, cols[-1]))
        cols = [tuple(c) + (zero,) * (dim - len(c)) for c in cols]
    elif isinstance(basis, HermiteBasis):   # LagrangeBasis too: confluency 1
        cols = [monomial_data(basis.nodes, k) for k in range(dim)]
    elif isinstance(basis, BernsteinBasis):
        cols = [monomial_in_bernstein(basis.degree, k) for k in range(dim)]
    else:
        raise TypeError(f"unsupported basis: {basis!r}")
    return DenseMatrix(dim, dim, [c for row in zip(*cols) for c in row])


def build_V(M: DenseMatrix) -> DenseMatrix:
    """Similarity matrix: column k of the monomial images M divided by k!."""
    if M.rows != M.cols:
        raise ValueError("need a square matrix of monomial images")
    facts = [math.factorial(k) for k in range(M.cols)]
    return DenseMatrix(M.rows, M.cols,
                       [c / f for r in range(M.rows) for c, f in zip(M.row(r), facts)])


def jordan_block(dim: int, field: Field = Field.RATIONAL) -> DenseMatrix:
    """Single nilpotent Jordan block: ones on the superdiagonal."""
    one, zero = one_of(field), zero_of(field)
    return DenseMatrix(dim, dim, [one if j == i + 1 else zero
                                  for i in range(dim) for j in range(dim)], field)


def invert_matrix(M: DenseMatrix) -> DenseMatrix:
    """Inverse by Gauss-Jordan elimination.

    Floating fields pivot by magnitude.  Rationals take the first nonzero
    pivot on integer rows A = diag(L) M, step r <- (p/g) r - (f/g) r_pivot
    with g = gcd(p, f), divide each new row by its content, and finish
    with M^(-1) = A^(-1) diag(L).
    """
    if M.rows != M.cols:
        raise ValueError("only square matrices invert")
    n = M.rows
    exact = M.field is Field.RATIONAL
    one, zero = (1, 0) if exact else (one_of(M.field), zero_of(M.field))
    scaled = [_integer_scaled(M.row(i)) if exact else (1, list(M.row(i))) for i in range(n)]
    a = [row + [one if i == j else zero for j in range(n)] for i, (_, row) in enumerate(scaled)]
    for col in range(n):
        if exact:
            piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        else:
            piv = max(range(col, n), key=lambda r: abs(a[r][col]))
            piv = piv if a[piv][col] != 0 else None
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        p = a[col][col]
        if not exact:
            a[col] = [x / p for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                if exact:
                    pg, fg = p // (g := math.gcd(p, f)), f // g
                    row = [pg * x - fg * y for x, y in zip(a[r], a[col])]
                    content = math.gcd(*row)
                    a[r] = [x // content for x in row]
                else:
                    a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    if exact:
        return DenseMatrix(n, n, [Fraction(row[n + j] * L, row[i]) for i, row in enumerate(a)
                                  for j, (L, _) in enumerate(scaled)], Field.RATIONAL)
    return DenseMatrix.from_rows([row[n:] for row in a], M.field)


def jordan_check(D: DenseMatrix, V: DenseMatrix, tol: float = 1e-10) -> bool:
    """Does D V = V J hold (exactly over rationals, to tol otherwise)?"""
    if D.rows != D.cols or (V.rows, V.cols) != (D.rows, D.cols):
        raise ValueError("dimension mismatch")
    return approx_equal(D * V, V * jordan_block(D.rows, D.field), tol)


def pseudo_inverse(D: DenseMatrix, V: DenseMatrix) -> DenseMatrix:
    """Structured generalized inverse V J^T V^(-1).

    Inverts differentiation up to the lost constant: D+ maps the
    coefficients of p' back to those of p minus its degree-0 Taylor
    part.  Not the Moore-Penrose pseudoinverse in general.
    """
    if D.rows != D.cols or (V.rows, V.cols) != (D.rows, D.cols):
        raise ValueError("dimension mismatch")
    # V J^T is V shifted one column left, with a zero last column
    n, zero = V.rows, zero_of(V.field)
    VJt = DenseMatrix(n, n, [e for i in range(n) for e in V.row(i)[1:] + (zero,)], V.field)
    return VJt * invert_matrix(V)


def verify_generalized_inverse(D: DenseMatrix, Dp: DenseMatrix, tol: float = 1e-10) -> bool:
    """Check D D+ D = D and D+ D D+ = D+."""
    if (D.rows, D.cols) != (Dp.rows, Dp.cols):
        return False
    return approx_equal(D * Dp * D, D, tol) and approx_equal(Dp * D * Dp, Dp, tol)


def nilpotency_index(D: DenseMatrix) -> int:
    """Smallest k with D^k = 0, over integers; requires the exact rational field."""
    if D.rows != D.cols:
        raise ValueError("nilpotency is a property of square matrices")
    if D.field is not Field.RATIONAL:
        raise ValueError("nilpotency index needs the exact rational field")
    n, (_, a) = D.rows, _integer_scaled(D.entries)
    cols = [a[j::n] for j in range(n)]
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(n + 1):
        # dividing a power by its content does not change whether it is zero
        content = math.gcd(*(x for row in P for x in row))
        if content == 0:
            return k
        P = [[sum(map(mul, row, col)) // content for col in cols] for row in P]
    raise ArithmeticError("matrix is not nilpotent within its dimension")


def conjugation_oracle(basis) -> DenseMatrix:
    """Differentiation matrix built independently of any basis-specific rule.

    Conjugates the monomial differentiation matrix (superdiagonal
    1, 2, 3, ...) by the basis-change matrix M of monomial images.  M
    times that matrix is M shifted one column right, column k scaled by
    k and column 0 zero, formed without a product just as
    ``pseudo_inverse`` forms V J^T.  Its cost is mostly inverting M.
    """
    M = monomial_images(basis)
    n, zero = M.rows, zero_of(M.field)
    MD = DenseMatrix(n, n, [k * e for i in range(n)
                            for k, e in enumerate((zero,) + M.row(i)[:-1])], M.field)
    return MD * invert_matrix(M)
