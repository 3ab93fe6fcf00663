"""Bernstein basis on [0, 1]: differentiation matrix and norms.

The degree-n Bernstein differentiation matrix is tridiagonal: row i
holds -i, 2i - n, n - i on columns i-1, i, i+1.  Its infinity norm is
2n, and the norm of its n-th power is 2^n n!, which grows much faster
than the n! of a nilpotent Jordan block; the norm table makes that
growth easy to inspect exactly.
"""

from __future__ import annotations

from .core import DenseMatrix, _degree, mat_inf_norm, mat_power


def diff_matrix_bernstein(n: int) -> DenseMatrix:
    """Tridiagonal differentiation matrix for the degree-n Bernstein basis."""
    n = _degree(n)
    # row i of a matrix padded with one zero column on each side
    return DenseMatrix._from_ints(n + 1, [(1, ([0] * i + [-i, 2 * i - n, n - i] + [0] * (n - i))[1:-1])
                                          for i in range(n + 1)])


def bernstein_norm_table(n_max: int) -> list[tuple]:
    """Rows (n, norm of D, norm of D^n) for 1 <= n <= n_max, exactly.

    Also checks that D^(n+1) vanishes, which pins down the nilpotency
    index; a failure here would mean a broken construction.
    """
    table = []
    for n in range(1, n_max + 1):
        D = diff_matrix_bernstein(n)
        Dn = mat_power(D, n)
        if Dn * D != DenseMatrix.zeros(n + 1, n + 1):
            raise ArithmeticError(f"degree-{n} matrix is not nilpotent of index {n + 1}")
        table.append((n, mat_inf_norm(D), mat_inf_norm(Dn)))
    return table
