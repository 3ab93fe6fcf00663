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
from operator import mul

from .core import (
    BernsteinBasis,
    DegreeGradedBasis,
    DenseMatrix,
    Field,
    HermiteBasis,
    SingularMatrixError,
    approx_equal,
    one_of,
    zero_of,
)
from .degree_graded import _monomial_rows
from .hermite import monomial_data


def monomial_images(basis) -> DenseMatrix:
    """Matrix M whose column k holds the coefficients of x^k in the basis."""
    dim = basis.dimension
    if isinstance(basis, BernsteinBasis):   # C(i, k)/C(n, k) = perm(i, k) perm(n-k, i-k)/perm(n, i)
        n = basis.degree
        return DenseMatrix._from_ints(dim, [(math.perm(n, i), [math.perm(i, k) * math.perm(n - k, i - k)
                                            for k in range(i + 1)] + [0] * (n - i)) for i in range(dim)])
    elif isinstance(basis, DegreeGradedBasis) and basis.recurrence.field is Field.RATIONAL:
        return DenseMatrix._from_ints(dim, _monomial_rows(basis.recurrence, dim))
    elif isinstance(basis, DegreeGradedBasis):
        # x c_j = zero + alpha_(j-1) c_(j-1) + beta_j c_j + gamma_(j+1) c_(j+1), in this order
        rec, n, zero = basis.recurrence, dim - 1, zero_of(basis.recurrence.field)
        A, B, G = (zero,) + rec.alpha[:n], rec.beta[:n] + (zero,), rec.gamma[1:n] + (zero, zero)
        cols = [[one_of(rec.field)] + [zero] * n]
        for _ in range(n):
            Z = [zero, *cols[-1], zero]
            cols.append([zero + a * x + b * y + g * z
                         for a, x, b, y, g, z in zip(A, Z, B, Z[1:], G, Z[2:])])
    elif isinstance(basis, HermiteBasis) and basis.nodes.field is Field.RATIONAL:
        # row (i, j) holds C(k, j) t_i^(k-j) = C(k, j) p^(k-j) q^(e-k) / q^e, t_i = p/q, e = dim-1-j
        nodes = basis.nodes
        return DenseMatrix._from_ints(dim, [(t.denominator ** (dim - 1 - j), [
            math.comb(k, j) * t.numerator ** (k - j) * t.denominator ** (dim - 1 - k) if k >= j else 0
            for k in range(dim)]) for t, s in zip(nodes.nodes, nodes.confluencies) for j in range(s)])
    elif isinstance(basis, HermiteBasis):   # LagrangeBasis too: confluency 1
        cols = [monomial_data(basis.nodes, k) for k in range(dim)]
    else:
        raise TypeError(f"unsupported basis: {basis!r}")
    return DenseMatrix(dim, dim, [c for row in zip(*cols) for c in row])


def build_V(M: DenseMatrix) -> DenseMatrix:
    """Similarity matrix: column k of the monomial images M divided by k!."""
    if M.rows != M.cols:
        raise ValueError("need a square matrix of monomial images")
    facts = [math.factorial(k) for k in range(M.cols)]
    if M.field is Field.RATIONAL:   # entry k times F / k! over the row's den times F = (n-1)!
        F = math.factorial(max(M.cols - 1, 0))
        return DenseMatrix._from_ints(M.cols, [(d * F, [x * (F // f) for x, f in zip(r, facts)])
                                               for d, r in M._int_rows()])
    return DenseMatrix(M.rows, M.cols,
                       [c / f for r in range(M.rows) for c, f in zip(M.row(r), facts)])


def _shift_columns(M: DenseMatrix, step: int) -> DenseMatrix:
    """M J for step 1 and M J^T for step -1, without a product: M shifted
    one column right or left, the vacated column zero."""
    if M.field is Field.RATIONAL:
        return DenseMatrix._from_ints(M.cols, [(d, ([0] + r)[:M.cols] if step > 0 else (r + [0])[1:])
                                               for d, r in M._int_rows()])
    pad = (zero_of(M.field),)
    return DenseMatrix(M.rows, M.cols, [e for i in range(M.rows) for e in (
        pad + M.row(i)[:-1] if step > 0 else M.row(i)[1:] + pad)], M.field)


def jordan_block(dim: int, field: Field = Field.RATIONAL) -> DenseMatrix:
    """Single nilpotent Jordan block: ones on the superdiagonal, I J."""
    return _shift_columns(DenseMatrix.identity(dim, field), 1)


def invert_matrix(M: DenseMatrix) -> DenseMatrix:
    """Inverse by Gauss-Jordan elimination.

    Floating fields pivot by magnitude on [M | I].  Rationals take the
    first nonzero pivot on integer rows A = diag(L) M, step
    r <- (p/g) r - (f/g) r_pivot with g = gcd(p, f), and divide each new
    row by its content, in place on n columns: after step c, position c
    of a row holds the inverse side's column orig[c], the original row
    that pivoted there.  A row that has not pivoted keeps its identity
    entry as one scalar, a row that has keeps its diagonal entry, and
    the scalar enters the row's content.  Then
    M^(-1)[r][orig[c]] = a[r][c] L_orig[c] / diag[r].
    """
    if M.rows != M.cols:
        raise ValueError("only square matrices invert")
    n = M.rows
    if M.field is Field.RATIONAL:
        rows = M._int_rows()
        a, scalar, orig = [list(r) for _, r in rows], [1] * n, list(range(n))
        for c in range(n):
            piv = next((r for r in range(c, n) if a[r][c]), None)
            if piv is None:
                raise SingularMatrixError("matrix is singular")
            for v in (a, scalar, orig):
                v[c], v[piv] = v[piv], v[c]
            P, p, s = a[c], a[c][c], scalar[c]
            P[c], scalar[c] = s, p   # the pivot row's identity entry enters at c
            for r in range(n):
                if r != c and (f := a[r][c]):
                    pg, fg = p // (g := math.gcd(p, f)), f // g
                    a[r][c] = 0   # so position c becomes -fg s, the entering column
                    row = [pg * x - fg * y for x, y in zip(a[r], P)]
                    k = math.gcd(d := pg * scalar[r], *row)
                    a[r], scalar[r] = [x // k for x in row], d // k
        L = [rows[o][0] for o in orig]
        at = sorted(range(n), key=orig.__getitem__)   # at[j]: the position holding column j
        return DenseMatrix._from_ints(n, [(d, [row[c] * L[c] for c in at])
                                          for d, row in zip(scalar, a)])
    one, zero = one_of(M.field), zero_of(M.field)
    a = [list(M.row(i)) + [one if i == j else zero for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[piv][col] == 0:
            raise SingularMatrixError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return DenseMatrix.from_rows([row[n:] for row in a], M.field)


def jordan_check(D: DenseMatrix, V: DenseMatrix, tol: float = 1e-10) -> bool:
    """Does D V = V J hold (exactly over rationals, to tol otherwise)?"""
    if D.rows != D.cols or (V.rows, V.cols) != (D.rows, D.cols):
        raise ValueError("dimension mismatch")
    return approx_equal(D * V, _shift_columns(V, 1), tol)


def pseudo_inverse(D: DenseMatrix, V: DenseMatrix) -> DenseMatrix:
    """Structured generalized inverse V J^T V^(-1).

    Inverts differentiation up to the lost constant: D+ maps the
    coefficients of p' back to those of p minus its degree-0 Taylor
    part.  Not the Moore-Penrose pseudoinverse in general.
    """
    if D.rows != D.cols or (V.rows, V.cols) != (D.rows, D.cols):
        raise ValueError("dimension mismatch")
    return _shift_columns(V, -1) * invert_matrix(V)


def verify_generalized_inverse(D: DenseMatrix, Dp: DenseMatrix, tol: float = 1e-10) -> bool:
    """Check D D+ D = D and D+ D D+ = D+ as X D = D and D+ X = D+, X = D D+ formed once."""
    if (D.rows, D.cols) != (Dp.rows, Dp.cols):
        return False
    X = D * Dp
    return approx_equal(X * D, D, tol) and approx_equal(Dp * X, Dp, tol)


def _reduced_product(X, Y) -> list:
    """X Y over integer rows, divided by its content; a zero product stays zero."""
    cols = list(zip(*Y))
    P = [[sum(map(mul, row, col)) for col in cols] for row in X]
    content = math.gcd(*(x for row in P for x in row))
    return [[x // content for x in row] for row in P] if content else P


def nilpotency_index(D: DenseMatrix) -> int:
    """Smallest k with D^k = 0, over integers; requires the exact rational field.

    Squares A = L D, L the lcm of its row denominators, until a power
    vanishes, then builds the largest nonzero power A^e from the squares,
    largest first: O(log n) products, each divided by its content, which keeps zero zero.
    """
    if D.rows != D.cols:
        raise ValueError("nilpotency is a property of square matrices")
    if D.field is not Field.RATIONAL:
        raise ValueError("nilpotency index needs the exact rational field")
    n, L = D.rows, math.lcm(*(d for d, _ in D._int_rows()))
    squares = [[[x * (L // d) for x in r] for d, r in D._int_rows()]]   # A^(2^j), each up to a factor
    while any(map(any, squares[-1])):
        if 2 ** (len(squares) - 1) >= n:
            raise ArithmeticError("matrix is not nilpotent within its dimension")
        squares.append(_reduced_product(squares[-1], squares[-1]))
    X, e = None, 0   # X = A^e, None standing for A^0
    for j in reversed(range(len(squares) - 1)):
        Y = squares[j] if X is None else _reduced_product(X, squares[j])
        if any(map(any, Y)):
            X, e = Y, e + 2 ** j
    return e + 1 if n else 0


def conjugation_oracle(basis) -> DenseMatrix:
    """Differentiation matrix built independently of any basis-specific rule.

    Conjugates the monomial differentiation matrix (superdiagonal
    1, 2, 3, ...) by the basis-change matrix M of monomial images.  M
    times that matrix is M J, M shifted one column right, with column k
    scaled by k.  Its cost is mostly inverting M.
    """
    M = monomial_images(basis)
    MJ, n = _shift_columns(M, 1), M.rows
    MD = (DenseMatrix._from_ints(n, [(d, list(map(mul, range(n), r))) for d, r in MJ._int_rows()])
          if M.field is Field.RATIONAL else
          DenseMatrix(n, n, [k * e for i in range(n) for k, e in enumerate(MJ.row(i))], M.field))
    return MD * invert_matrix(M)
