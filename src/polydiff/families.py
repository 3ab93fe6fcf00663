"""The basis families the CLI and the invariant suite know, in one table.

Each entry says what names an instance of the family (``arg``):

- ``"degree"``: the polynomial degree n;
- ``"nodes"``: a ``NodeSet``;
- ``"recurrence"``: the pair (``RecurrenceSpec``, degree).

and builds from that argument the differentiation matrix (monomial,
Chebyshev and Legendre from closed forms), the basis descriptor and,
for Chebyshev and Legendre only, the antidifferentiation companion.
Every other family's companion is ``structure.pseudo_inverse``.

Constructors are looked up in their module namespaces at call time, so
a substitute installed there (a tracer, a deliberately corrupted
constructor) takes effect here too.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from . import bernstein, degree_graded, hermite, lagrange
from .core import BernsteinBasis, DegreeGradedBasis, HermiteBasis, LagrangeBasis


class Family(NamedTuple):
    arg: str
    diff_matrix: Callable
    basis: Callable
    antideriv: Callable | None = None


FAMILIES = {
    "monomial": Family(
        "degree", lambda n: degree_graded.monomial_diff_matrix(n),
        lambda n: degree_graded.monomial_basis(n)),
    "chebyshev": Family(
        "degree", lambda n: degree_graded.chebyshev_diff_matrix(n),
        lambda n: degree_graded.chebyshev_basis(n),
        lambda n: degree_graded.chebyshev_antideriv_matrix(n)),
    "legendre": Family(
        "degree", lambda n: degree_graded.legendre_diff_matrix(n),
        lambda n: degree_graded.legendre_basis(n),
        lambda n: degree_graded.legendre_antideriv_matrix(n)),
    "newton": Family(
        "nodes", lambda ns: degree_graded.newton_diff_matrix(ns),
        lambda ns: degree_graded.newton_basis(ns)),
    "lagrange": Family("nodes", lambda ns: lagrange.diff_matrix_lagrange(ns), LagrangeBasis),
    "hermite": Family("nodes", lambda ns: hermite.diff_matrix_hermite(ns), HermiteBasis),
    "bernstein": Family("degree", lambda n: bernstein.diff_matrix_bernstein(n), BernsteinBasis),
    "recurrence": Family(
        "recurrence", lambda rec_n: degree_graded.diff_matrix_degree_graded(*rec_n),
        lambda rec_n: DegreeGradedBasis(*rec_n, name="recurrence")),
}
