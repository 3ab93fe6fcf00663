"""Self-contained invariant checks behind the ``polydiff verify`` command.

Each check exercises one documented property of the constructors at
small dimensions (at most 12) and reports pass/fail with a short
detail string.  Randomized instances use a fixed seed so every run
sees the same cases.

A kind of check that several families share (agreement with a
reference matrix, the conjugation oracle, the antiderivative, the
vanishing derivative of the constant, the nilpotency index) is written
once and reaches each family through ``families.FAMILIES``.  Checks
call the library through that table and the module namespaces on
purpose, so a test harness can substitute a deliberately corrupted
constructor and confirm that verification really fails.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import NamedTuple

from . import bernstein, degree_graded, hermite, lagrange, structure
from .experiments import chebyshev_points
from .core import DenseMatrix, Field, NodeSet, mat_apply
from .families import FAMILIES

_SEED = 20250825
KNOWN_BASES = tuple(name for name in FAMILIES if name != "recurrence")


class CheckResult(NamedTuple):
    """Outcome of one check; compares as a tuple."""

    name: str
    basis: str
    ok: bool
    detail: str = ""


# ---------------------------------------------------------------- instances

def _rng(k: int) -> random.Random:
    """The k-th check's own random stream."""
    return random.Random(_SEED + k)


def _random_rationals(rng, count):
    out = []
    while len(out) < count:
        q = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        if q not in out:
            out.append(q)
    return out


def _rational_sets(rng, count, most):
    """``count`` node sets, each of 2 to ``most`` distinct random rationals."""
    for _ in range(count):
        yield NodeSet(_random_rationals(rng, rng.randint(2, most)))


def _hermite_sets(rng, count, most=12):
    """``count`` confluent node sets of 1 to 4 nodes, of dimension at most ``most``."""
    for _ in range(count):
        n = rng.randint(1, 4)
        ts = _random_rationals(rng, n)
        budget = most - n
        conf = []
        for _ in range(n):
            extra = rng.randint(0, min(3, budget)) if budget > 0 else 0
            conf.append(1 + extra)
            budget -= extra
        yield NodeSet(ts, conf)


def _basis_instances(rng):
    """(name, descriptor, differentiation matrix) for one instance per family."""
    for name in KNOWN_BASES:
        family = FAMILIES[name]
        if family.arg == "degree":
            arg = rng.randint(1, 7)
        elif name == "hermite":
            arg = next(_hermite_sets(rng, 1, most=8))
        else:
            arg = next(_rational_sets(rng, 1, 6))
        yield name, family.basis(arg), family.diff_matrix(arg)


def _instance(arg) -> str:
    return f"degree {arg}" if isinstance(arg, int) else repr(arg)


# ---------------------------------------------------------------- check kinds

def _agrees(name, instances, reference, detail):
    """The family's matrix equals ``reference(arg)`` on every instance."""
    family = FAMILIES[name]
    for arg in instances:
        if family.diff_matrix(arg) != reference(arg):
            return False, f"mismatch at {_instance(arg)}"
    return True, detail


def _matches(name, arg, rows, detail):
    """The family's matrix at one instance equals the hand-computed ``rows``."""
    return _agrees(name, [arg], lambda _: DenseMatrix.from_rows(rows), detail)


def _matches_oracle(name, instances, detail):
    """The family's matrix equals the monomial matrix conjugated into its basis."""
    basis = FAMILIES[name].basis
    return _agrees(name, instances, lambda arg: structure.conjugation_oracle(basis(arg)), detail)


def _antideriv_inverts(name, sizes):
    """Differentiating the antiderivative gives the identity off the constant slot."""
    family = FAMILIES[name]
    for n in sizes:
        P = family.diff_matrix(n) * family.antideriv(n)
        for i in range(n):
            for j in range(n):
                if P[i, j] != (1 if i == j else 0):
                    return False, f"(D A)[{i},{j}] = {P[i, j]} at n={n}"
    return True, "D A = I on the first n coefficients"


def _constant_vanishes(name, instances, detail):
    """D maps the constant polynomial to zero.

    Its coefficients are ``hermite.constant_data`` in the Lagrange and
    Hermite data layouts and all ones in the Bernstein basis, so in the
    Lagrange and Bernstein bases this says every row sums to zero.
    """
    family = FAMILIES[name]
    for arg in instances:
        D = family.diff_matrix(arg)
        one = hermite.constant_data(arg) if family.arg == "nodes" else (1,) * D.cols
        if any(mat_apply(D, one)):
            return False, f"derivative of the constant is nonzero at {_instance(arg)}"
    return True, detail


def _nilpotent(D):
    """A differentiation matrix's nilpotency index is its dimension."""
    idx = structure.nilpotency_index(D)
    return idx == D.rows, f"index {idx} at dimension {D.rows}"


def _lagrange_reference(ns):
    """b_j / (b_i (t_i - t_j)) with b_k = 1 / prod_{j != k} (t_k - t_j),
    and the diagonal that makes every row sum to zero."""
    ts = ns.nodes
    n = len(ts)
    b = [1 / math.prod(ts[k] - ts[j] for j in range(n) if j != k) for k in range(n)]
    rows = []
    for i in range(n):
        row = [b[j] / (b[i] * (ts[i] - ts[j])) if j != i else 0 for j in range(n)]
        row[i] = -sum(row)
        rows.append(row)
    return DenseMatrix.from_rows(rows, Field.RATIONAL)


# ---------------------------------------------------------------- single-family checks

def check_lagrange_reference_matrix():
    ns = NodeSet([Fraction(-1), Fraction(-1, 2), Fraction(1, 2), Fraction(1)])
    return _matches("lagrange", ns, [[Fraction(x, 6) for x in row] for row in
                                     [[-19, 24, -8, 3], [-6, 2, 6, -2],
                                      [2, -6, -2, 6], [-3, 8, -24, 19]]],
                    "4 symmetric rational nodes")


def check_lagrange_monomial_exactness():
    rng = _rng(2)
    for _ in range(3):
        ts = _random_rationals(rng, 6)
        D = FAMILIES["lagrange"].diff_matrix(NodeSet(ts))
        for k in range(6):
            values = [t ** k for t in ts]
            want = [k * t ** (k - 1) if k else Fraction(0) for t in ts]
            if list(mat_apply(D, values)) != want:
                return False, f"x^{k} differentiates wrong on {ts}"
    return True, "exact on x^k up to the dimension"


def check_lagrange_forms_agree():
    # clustered random nodes make both forms lose digits for reasons that
    # have nothing to do with the formulas, so well-separated points only
    rng = _rng(3)
    worst = 0.0
    for n in (5, 12, 23, 34, 50):
        ns = NodeSet(chebyshev_points(n))
        w = lagrange.bary_weights(ns)
        values = [rng.uniform(-2, 2) for _ in range(n + 1)]
        zs = [z for z in (rng.uniform(-1, 1) for _ in range(30)) if z not in ns.nodes]
        firsts = lagrange.eval_first_form(w, values, zs)
        for a, b in zip(firsts, lagrange.eval_second_form(w, values, zs)):
            rel = abs(a - b) / max(1.0, abs(a), abs(b))
            worst = max(worst, rel)
    return worst <= 1e-13, f"worst relative gap {worst:.3e}"


def check_hermite_reference_matrix():
    return _matches("hermite", NodeSet([-1, 0, 1], [3, 4, 2]), [
        [0, 1, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 2, 0, 0, 0, 0, 0, 0],
        [Fraction(-201, 2), Fraction(-177, 4), -15, 96, -60, 24, -12, Fraction(9, 2), Fraction(-3, 4)],
        [0, 0, 0, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 2, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 3, 0, 0],
        [Fraction(83, 4), 6, 1, -24, 12, -12, 4, Fraction(13, 4), Fraction(-1, 2)],
        [0, 0, 0, 0, 0, 0, 0, 0, 1],
        [35, 11, 2, 0, 48, 0, 16, -35, 11],
    ], "9x9 on nodes -1, 0, 1 with confluencies 3, 4, 2")


def check_hermite_partial_fractions():
    rng = _rng(8)
    for ns in _hermite_sets(rng, 3, most=9):
        w = hermite.gen_bary_weights(ns)
        # probes sit far outside the random node range, never colliding
        zs = [Fraction(rng.randint(300, 900), 7) for _ in range(3)]
        for z, wz in zip(zs, hermite.node_polynomial_value(ns, zs)):
            lhs = sum(w.weights[i][j] / (z - t) ** (j + 1)
                      for i, t in enumerate(ns.nodes)
                      for j in range(ns.confluencies[i]))
            if lhs != 1 / wz:
                return False, f"partial fractions fail on {ns!r}"
    return True, "sum of partial fractions reproduces 1/w exactly"


def check_bernstein_norms():
    for n, norm_d, norm_dn in bernstein.bernstein_norm_table(12):
        if norm_d != 2 * n or norm_dn != 2 ** n * math.factorial(n):
            return False, f"norms at degree {n}: {norm_d}, {norm_dn}"
    return True, "|D| = 2n and |D^n| = 2^n n!, n <= 12"


# ---------------------------------------------------------------- every-family checks

def check_monomial_image_shifting():
    for name, basis, D in _basis_instances(_rng(10)):
        M = structure.monomial_images(basis)
        for k in range(basis.dimension):
            got = list(mat_apply(D, M.column(k)))
            want = [k * c for c in M.column(k - 1)] if k else [Fraction(0)] * basis.dimension
            if got != want:
                return False, f"D x^{k} != {k} x^{k - 1} in {name}"
    return True, "D maps x^k to k x^(k-1) in every family"


def check_jordan_similarity():
    for name, basis, D in _basis_instances(_rng(11)):
        V = structure.build_V(structure.monomial_images(basis))
        # jordan_check shifts V's columns; the plain product with J must agree
        if not structure.jordan_check(D, V) or D * V != V * structure.jordan_block(D.rows):
            return False, f"D V != V J in {name}"
    return True, "D V = V J in every family"


def check_generalized_inverse():
    for name, basis, D in _basis_instances(_rng(12)):
        V = structure.build_V(structure.monomial_images(basis))
        Dp = structure.pseudo_inverse(D, V)
        if not structure.verify_generalized_inverse(D, Dp):
            return False, f"generalized inverse conditions fail in {name}"
    return True, "D D+ D = D and D+ D D+ = D+ in every family"


# Each row is (name, basis tag, check); a check returns (ok, detail) and
# draws its random instances only when it runs.
_CHECKS = [
    ("monomial-explicit-vs-recurrence", "monomial",
     lambda: _agrees("monomial", range(13), lambda n: degree_graded.diff_matrix_degree_graded(
         degree_graded.monomial_recurrence(n), n), "n <= 12")),
    ("chebyshev-explicit-vs-recurrence", "chebyshev",
     lambda: _agrees("chebyshev", range(13), lambda n: degree_graded.diff_matrix_degree_graded(
         degree_graded.chebyshev_recurrence(n), n), "n <= 12")),
    ("chebyshev-antideriv-inverts", "chebyshev", lambda: _antideriv_inverts("chebyshev", (3, 7, 12))),
    ("legendre-row-pattern", "legendre",
     lambda: _agrees("legendre", range(13), lambda n: degree_graded.diff_matrix_degree_graded(
         degree_graded.legendre_recurrence(n), n), "row r holds 2r+1 on columns r+1, r+3, ...")),
    ("legendre-antideriv-inverts", "legendre", lambda: _antideriv_inverts("legendre", (3, 8, 12))),
    ("newton-equal-centers-monomial", "newton",
     lambda: _agrees("newton", [NodeSet([Fraction(5, 7)], [dim]) for dim in (1, 4, 9)],
                     lambda ns: degree_graded.monomial_diff_matrix(ns.dimension - 1),
                     "all-equal centers give the monomial matrix")),
    ("newton-conjugation-oracle", "newton",
     lambda: _matches_oracle("newton", _rational_sets(_rng(0), 4, 6), "4 random rational center sets")),
    ("lagrange-reference-matrix", "lagrange", check_lagrange_reference_matrix),
    ("lagrange-row-sums-vanish", "lagrange",
     lambda: _constant_vanishes("lagrange", _rational_sets(_rng(1), 5, 8),
                                "derivative of the constant vanishes")),
    ("lagrange-monomial-exactness", "lagrange", check_lagrange_monomial_exactness),
    ("lagrange-barycentric-forms-agree", "lagrange", check_lagrange_forms_agree),
    ("lagrange-conjugation-oracle", "lagrange",
     lambda: _matches_oracle("lagrange", _rational_sets(_rng(4), 4, 7), "4 random rational node sets")),
    ("lagrange-nilpotency-index", "lagrange",
     lambda: _nilpotent(FAMILIES["lagrange"].diff_matrix(NodeSet(_random_rationals(_rng(5), 5))))),
    ("hermite-reference-matrix", "hermite", check_hermite_reference_matrix),
    ("hermite-confluency-one-is-lagrange", "hermite",
     lambda: _agrees("hermite", _rational_sets(_rng(6), 3, 7), _lagrange_reference,
                     "confluency-1 matrix equals the Lagrange product formula")),
    ("hermite-constant-annihilation", "hermite",
     lambda: _constant_vanishes("hermite", _hermite_sets(_rng(7), 3),
                                "derivative of the constant vanishes in the data layout")),
    ("hermite-partial-fractions", "hermite", check_hermite_partial_fractions),
    ("hermite-conjugation-oracle", "hermite",
     lambda: _matches_oracle("hermite", _hermite_sets(_rng(9), 3), "3 random confluent node sets")),
    ("hermite-nilpotency-index", "hermite",
     lambda: _nilpotent(FAMILIES["hermite"].diff_matrix(
         NodeSet([Fraction(0), Fraction(1, 3), Fraction(-2)], [2, 3, 1])))),
    ("bernstein-reference-matrix", "bernstein",
     lambda: _matches("bernstein", 4, [[-4, 4, 0, 0, 0], [-1, -2, 3, 0, 0], [0, -2, 0, 2, 0],
                                       [0, 0, -3, 2, 1], [0, 0, 0, -4, 4]], "degree 4")),
    ("bernstein-row-sums-vanish", "bernstein",
     lambda: _constant_vanishes("bernstein", range(13),
                                "derivative of the constant vanishes, n <= 12")),
    ("bernstein-norm-identities", "bernstein", check_bernstein_norms),
    ("bernstein-conjugation-oracle", "bernstein",
     lambda: _matches_oracle("bernstein", (1, 4, 7, 11), "degrees 1, 4, 7, 11")),
    ("monomial-image-shifting", "all", check_monomial_image_shifting),
    ("jordan-similarity", "all", check_jordan_similarity),
    ("generalized-inverse-conditions", "all", check_generalized_inverse),
]


def run_checks(basis: str | None = None) -> list[CheckResult]:
    """Run the invariant suite, optionally restricted to one basis family."""
    if basis is not None and basis not in KNOWN_BASES:
        raise ValueError(f"unknown basis {basis!r}; expected one of {KNOWN_BASES}")
    results = []
    for name, tag, fn in _CHECKS:
        if basis is not None and tag != basis:
            continue
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, tag, ok, detail))
    return results
