"""Structural facts shared by every differentiation matrix here.

Every basis this package handles spans the polynomials of some degree
n, so its differentiation matrix D is similar to the single nilpotent
Jordan block J of dimension n + 1: the similarity is carried by the
matrix V whose column k holds the coefficients of x^k / k! in the
basis.  From V one gets a structured generalized inverse
D+ = V J^T V^(-1), which satisfies D D+ D = D and D+ D D+ = D+ but is
not the Moore-Penrose pseudoinverse in general.

The same data yields an independent oracle for any differentiation matrix:
conjugate the (trivially correct) monomial matrix by the basis-change matrix M
of monomial images x^k, which ``monomial_images`` builds by each family's rule.
The nilpotency index n + 1 is the longest Krylov chain D^k e_j over the
basis vectors; for every basis here the chain from the last element has it.

The four checks of these exact identities, ``jordan_check``, ``verify_generalized_inverse``,
``nilpotency_index`` and ``conjugation_oracle``, compare with ``==`` and refuse any field but
the rationals.  Float ``--pinv`` runs ``monomial_images``, ``build_V``, ``pseudo_inverse``, ``invert_matrix``.
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
    _integer_scaled,
    one_of,
    zero_of,
)


def _monomial_rows(rec, dim: int) -> list:
    """Integer rows (den, nums) of the images x^0 .. x^(dim-1), column k of M being x^k.

    Column k is integers N_k over e_k; column k+1 is x N_k by A, B, G over
    e_k L, divided by its content.  Row i sits over the lcm of the e_k it uses.
    """
    n = dim - 1
    L, abg = _integer_scaled(rec.alpha[:n] + rec.beta[:n] + rec.gamma[:n])
    A, B, G = [0] + abg[:n], abg[n:2 * n] + [0], abg[2 * n + 1:3 * n] + [0, 0]
    cols = [([1], 1)]
    for _ in range(n):
        N, e = cols[-1]
        Z = [0, *N, 0, 0]   # entry j of x N: A_(j-1) N_(j-1) + B_j N_j + G_(j+1) N_(j+1)
        X = [a * x + b * y + g * z for a, x, b, y, g, z in zip(A, Z, B, Z[1:], G, Z[2:])]
        k = math.gcd(e * L, *X)
        cols.append(([x // k for x in X], e * L // k))
    rows = []
    for i in range(dim):
        den = math.lcm(*[e for N, e in cols[i:] if N[i]])
        rows.append((den, [0] * i + [N[i] and N[i] * (den // e) for N, e in cols[i:]]))
    return rows


def monomial_images(basis) -> DenseMatrix:
    """Matrix M whose column k holds the coefficients of x^k in the basis, by each family's own rule."""
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
        return DenseMatrix(dim, dim, [c for row in zip(*cols) for c in row])
    elif isinstance(basis, HermiteBasis) and basis.nodes.field is Field.RATIONAL:
        # row (i, j) holds C(k, j) t_i^(k-j) = C(k, j) p^(k-j) q^(e-k) / q^e, t_i = p/q, e = dim-1-j
        nodes = basis.nodes
        return DenseMatrix._from_ints(dim, [(t.denominator ** (dim - 1 - j), [
            math.comb(k, j) * t.numerator ** (k - j) * t.denominator ** (dim - 1 - k) if k >= j else 0
            for k in range(dim)]) for t, s in zip(nodes.nodes, nodes.confluencies) for j in range(s)])
    elif isinstance(basis, HermiteBasis):   # LagrangeBasis too, at confluency 1: row (i, j) as above
        nodes, zero = basis.nodes, zero_of(basis.nodes.field)
        try:
            powers = [[t ** e for e in range(dim)] for t in nodes.nodes]
        except OverflowError:   # if some t^e overflows, the largest |t| does at e = dim - 1: name that
            t = max(nodes.nodes, key=abs)
            raise OverflowError(f"x^{dim - 1} at node t_{nodes.nodes.index(t)} = {t!r} is outside the "
                                "floating-point range") from None
        j = min((dim - 1) // 2, max(nodes.confluencies) - 1)   # C(dim - 1, j) is the largest binomial
        try:   # each entry converts its binomial to a float, so this one overflows first
            float(math.comb(dim - 1, j))
        except OverflowError:
            raise OverflowError(f"the binomial C({dim - 1}, {j}) is outside the floating-point range") from None
        return DenseMatrix(dim, dim, [math.comb(k, j) * p[k - j] if k >= j else zero for p, s in
                                      zip(powers, nodes.confluencies) for j in range(s) for k in range(dim)])
    raise TypeError(f"unsupported basis: {basis!r}")


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
            if r != col and (f := a[r][col]) != 0:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return DenseMatrix.from_rows([row[n:] for row in a], M.field)


def _exact(check: str, *matrices: DenseMatrix) -> None:   # the one rule of the four checks
    if any(M.field is not Field.RATIONAL for M in matrices):
        raise ValueError(f"{check} needs the exact rational field")


def jordan_check(D: DenseMatrix, V: DenseMatrix) -> bool:
    """Does D V = V J hold?"""
    if D.rows != D.cols or (V.rows, V.cols) != (D.rows, D.cols):
        raise ValueError("dimension mismatch")
    _exact("jordan check", D, V)
    return D * V == _shift_columns(V, 1)


def pseudo_inverse(D: DenseMatrix, V: DenseMatrix) -> DenseMatrix:
    """Structured generalized inverse V J^T V^(-1).

    Inverts differentiation up to the lost constant: D+ maps the
    coefficients of p' back to those of p minus its degree-0 Taylor
    part.  Not the Moore-Penrose pseudoinverse in general.
    """
    if D.rows != D.cols or (V.rows, V.cols) != (D.rows, D.cols):
        raise ValueError("dimension mismatch")
    return _shift_columns(V, -1) * invert_matrix(V)


def verify_generalized_inverse(D: DenseMatrix, Dp: DenseMatrix) -> bool:
    """Check D D+ D = D and D+ D D+ = D+ as X D = D and D+ X = D+, X = D D+ formed once."""
    _exact("generalized inverse check", D, Dp)
    if (D.rows, D.cols) != (Dp.rows, Dp.cols):
        return False
    X = D * Dp
    return X * D == D and Dp * X == Dp


def nilpotency_index(D: DenseMatrix) -> int:
    """Smallest k with D^k = 0, over integers; requires the exact rational field.

    One rule: the longest chain e_j, A e_j, A^2 e_j, ... over the basis vectors, A = L D
    with L the lcm of its row denominators and each v divided by its content (zero stays
    zero), since A^k = 0 exactly when every A^k e_j = 0.  Chains start at e_(n-1), then
    e_0, e_1, ...: a triangular nilpotent A has its longest chain at one end, e_(n-1) if
    upper triangular (every degree-graded D), e_0 if lower.  A chain of length n proves
    index n: v, ..., A^(n-1) v are then independent (apply A^(n-1-j) to a relation with
    lowest term j), a basis A^n kills; A^n v != 0 proves A is not nilpotent.
    """
    if D.rows != D.cols:
        raise ValueError("nilpotency is a property of square matrices")
    _exact("nilpotency index", D)
    n, L = D.rows, math.lcm(*(d for d, _ in D._int_rows()))
    A, index = [[x * (L // d) for x in r] for d, r in D._int_rows()], 0
    for j in (n - 1, *range(n - 1)):
        v, k = [int(i == j) for i in range(n)], 0
        while k < n and any(v):
            v = [sum(map(mul, row, v)) for row in A]
            c, k = math.gcd(*v) or 1, k + 1
            v = [x // c for x in v]
        if any(v):
            raise ArithmeticError("matrix is not nilpotent within its dimension")
        if k == n:
            return n
        index = max(index, k)
    return index


def conjugation_oracle(basis) -> DenseMatrix:
    """Differentiation matrix built independently of any basis-specific rule.

    Conjugates the monomial differentiation matrix (superdiagonal
    1, 2, 3, ...) by the basis-change matrix M of monomial images.  M
    times that matrix is M J, M shifted one column right, with column k
    scaled by k.  Its cost is mostly inverting M.
    """
    M = monomial_images(basis)
    _exact("conjugation oracle", M)
    MJ, n = _shift_columns(M, 1), M.rows
    MD = DenseMatrix._from_ints(n, [(d, list(map(mul, range(n), r))) for d, r in MJ._int_rows()])
    return MD * invert_matrix(M)
