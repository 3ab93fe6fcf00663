"""Self-contained invariant checks behind the ``polydiff verify`` command.

Each check exercises one documented property of the constructors at
small dimensions (at most 12) and reports pass/fail with a short
detail string.  Randomized instances use a fixed seed so every run
sees the same cases.

Checks call the library through the module namespaces on purpose, so a
test harness can substitute a deliberately corrupted constructor and
confirm that verification really fails.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import bernstein, degree_graded, hermite, lagrange, structure
from .experiments import chebyshev_points
from .core import (
    BernsteinBasis,
    DenseMatrix,
    Field,
    HermiteBasis,
    LagrangeBasis,
    NodeSet,
    mat_apply,
)
from .families import FAMILIES

_SEED = 20250825
KNOWN_BASES = tuple(name for name in FAMILIES if name != "recurrence")


@dataclass
class CheckResult:
    name: str
    basis: str
    ok: bool
    detail: str = ""


def _random_rationals(rng, count, lo=-8, hi=8, den=4):
    out = []
    while len(out) < count:
        q = Fraction(rng.randint(lo, hi), rng.randint(1, den))
        if q not in out:
            out.append(q)
    return out


def _zero_rows(M) -> bool:
    return all(sum(M.row(i), Fraction(0)) == 0 for i in range(M.rows))


# ---------------------------------------------------------------- checks

def check_monomial_explicit_vs_recurrence():
    for n in range(13):
        D = degree_graded.diff_matrix_degree_graded(degree_graded.monomial_recurrence(n), n)
        expected = DenseMatrix(n + 1, n + 1,
                               [Fraction(j) if j == i + 1 else Fraction(0)
                                for i in range(n + 1) for j in range(n + 1)])
        if D != expected:
            return False, f"monomial matrix wrong at n={n}"
    return True, "n <= 12"


def check_chebyshev_explicit_vs_recurrence():
    for n in range(13):
        a = degree_graded.chebyshev_diff_matrix(n)
        b = degree_graded.diff_matrix_degree_graded(degree_graded.chebyshev_recurrence(n), n)
        if a != b:
            return False, f"closed form disagrees with recurrence at n={n}"
    return True, "n <= 12"


def check_chebyshev_antideriv_inverts():
    # differentiating the antiderivative gives the identity off the constant slot
    for n in (3, 7, 12):
        D = degree_graded.chebyshev_diff_matrix(n)
        A = degree_graded.chebyshev_antideriv_matrix(n)
        P = D * A
        for i in range(n):
            for j in range(n):
                want = 1 if i == j else 0
                if P[i, j] != want:
                    return False, f"(D A)[{i},{j}] = {P[i, j]} at n={n}"
    return True, "D A = I on the first n coefficients"


def check_legendre_pattern():
    n = 12
    D = degree_graded.diff_matrix_degree_graded(degree_graded.legendre_recurrence(n), n)
    for r in range(n + 1):
        for c in range(n + 1):
            want = Fraction(2 * r + 1) if (c > r and (c - r) % 2 == 1) else Fraction(0)
            if D[r, c] != want:
                return False, f"entry ({r},{c}) = {D[r, c]}, expected {want}"
    return True, "row r holds 2r+1 on columns r+1, r+3, ..."


def check_legendre_antideriv_inverts():
    for n in (3, 8, 12):
        D = degree_graded.diff_matrix_degree_graded(degree_graded.legendre_recurrence(n), n)
        A = degree_graded.legendre_antideriv_matrix(n)
        P = D * A
        for i in range(n):
            for j in range(n):
                if P[i, j] != (1 if i == j else 0):
                    return False, f"(D A)[{i},{j}] = {P[i, j]} at n={n}"
    return True, "D A = I on the first n coefficients"


def check_newton_equal_nodes():
    for dim in (1, 4, 9):
        D = degree_graded.newton_diff_matrix(NodeSet([Fraction(5, 7)], [dim]))
        M = degree_graded.diff_matrix_degree_graded(degree_graded.monomial_recurrence(dim - 1), dim - 1)
        if D != M:
            return False, f"all-equal centers at dim {dim} do not give the monomial matrix"
    return True, "all-equal centers give the monomial matrix"


def check_newton_oracle():
    rng = random.Random(_SEED)
    for _ in range(4):
        zs = _random_rationals(rng, rng.randint(2, 6))
        ns = NodeSet(zs)
        D = degree_graded.newton_diff_matrix(ns)
        if D != structure.conjugation_oracle(degree_graded.newton_basis(ns)):
            return False, f"oracle mismatch at centers {zs}"
    return True, "4 random rational center sets"


def check_lagrange_reference_matrix():
    ns = NodeSet([Fraction(-1), Fraction(-1, 2), Fraction(1, 2), Fraction(1)])
    D = lagrange.diff_matrix_lagrange(ns)
    expected = DenseMatrix.from_rows(
        [[Fraction(x, 6) for x in row] for row in
         [[-19, 24, -8, 3], [-6, 2, 6, -2], [2, -6, -2, 6], [-3, 8, -24, 19]]])
    return D == expected, "4 symmetric rational nodes"


def check_lagrange_row_sums():
    rng = random.Random(_SEED + 1)
    for _ in range(5):
        ns = NodeSet(_random_rationals(rng, rng.randint(2, 8)))
        if not _zero_rows(lagrange.diff_matrix_lagrange(ns)):
            return False, f"nonzero row sum for nodes {ns.nodes}"
    return True, "derivative of the constant vanishes"


def check_lagrange_monomial_exactness():
    rng = random.Random(_SEED + 2)
    for _ in range(3):
        ts = _random_rationals(rng, 6)
        ns = NodeSet(ts)
        D = lagrange.diff_matrix_lagrange(ns)
        for k in range(6):
            values = [t ** k for t in ts]
            want = [k * t ** (k - 1) if k else Fraction(0) for t in ts]
            if list(mat_apply(D, values)) != want:
                return False, f"x^{k} differentiates wrong on {ts}"
    return True, "exact on x^k up to the dimension"


def check_lagrange_forms_agree():
    # clustered random nodes make both forms lose digits for reasons that
    # have nothing to do with the formulas, so well-separated points only
    rng = random.Random(_SEED + 3)
    worst = 0.0
    for n in (5, 12, 23, 34, 50):
        ns = NodeSet(chebyshev_points(n))
        w = lagrange.bary_weights(ns)
        values = [rng.uniform(-2, 2) for _ in range(n + 1)]
        for _ in range(30):
            z = rng.uniform(-1, 1)
            if any(z == t for t in ns.nodes):
                continue
            a = lagrange.eval_first_form(w, values, z)
            b = lagrange.eval_second_form(w, values, z)
            rel = abs(a - b) / max(1.0, abs(a), abs(b))
            worst = max(worst, rel)
    return worst <= 1e-13, f"worst relative gap {worst:.3e}"


def check_lagrange_oracle():
    rng = random.Random(_SEED + 4)
    for _ in range(4):
        ns = NodeSet(_random_rationals(rng, rng.randint(2, 7)))
        D = lagrange.diff_matrix_lagrange(ns)
        if D != structure.conjugation_oracle(LagrangeBasis(ns)):
            return False, f"oracle mismatch at nodes {ns.nodes}"
    return True, "4 random rational node sets"


def check_lagrange_nilpotency():
    rng = random.Random(_SEED + 5)
    ns = NodeSet(_random_rationals(rng, 5))
    D = lagrange.diff_matrix_lagrange(ns)
    idx = structure.nilpotency_index(D)
    return idx == 5, f"index {idx} at dimension 5"


def _random_hermite_nodes(rng, max_dim=12):
    count = rng.randint(1, 4)
    ts = _random_rationals(rng, count)
    budget = max_dim - count
    conf = []
    for i in range(count):
        extra = rng.randint(0, min(3, budget)) if budget > 0 else 0
        conf.append(1 + extra)
        budget -= extra
    return NodeSet(ts, conf)


def check_hermite_reference_matrix():
    ns = NodeSet([-1, 0, 1], [3, 4, 2])
    D = hermite.diff_matrix_hermite(ns)
    expected = DenseMatrix.from_rows([
        [0, 1, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 2, 0, 0, 0, 0, 0, 0],
        [Fraction(-201, 2), Fraction(-177, 4), -15, 96, -60, 24, -12, Fraction(9, 2), Fraction(-3, 4)],
        [0, 0, 0, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 2, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 3, 0, 0],
        [Fraction(83, 4), 6, 1, -24, 12, -12, 4, Fraction(13, 4), Fraction(-1, 2)],
        [0, 0, 0, 0, 0, 0, 0, 0, 1],
        [35, 11, 2, 0, 48, 0, 16, -35, 11],
    ])
    return D == expected, "9x9 on nodes -1, 0, 1 with confluencies 3, 4, 2"


def _lagrange_reference(ts):
    """b_j / (b_i (t_i - t_j)) with b_k = 1 / prod_{j != k} (t_k - t_j),
    and the diagonal that makes every row sum to zero."""
    n = len(ts)
    b = [1 / math.prod(ts[k] - ts[j] for j in range(n) if j != k) for k in range(n)]
    rows = []
    for i in range(n):
        row = [b[j] / (b[i] * (ts[i] - ts[j])) if j != i else 0 for j in range(n)]
        row[i] = -sum(row)
        rows.append(row)
    return DenseMatrix.from_rows(rows, Field.RATIONAL)


def check_hermite_confluency_one():
    rng = random.Random(_SEED + 6)
    for _ in range(3):
        ns = NodeSet(_random_rationals(rng, rng.randint(2, 7)))
        if hermite.diff_matrix_hermite(ns) != _lagrange_reference(ns.nodes):
            return False, f"confluency-1 mismatch at {ns.nodes}"
    return True, "confluency-1 matrix equals the Lagrange product formula"


def check_hermite_constant_annihilation():
    rng = random.Random(_SEED + 7)
    for _ in range(3):
        ns = _random_hermite_nodes(rng)
        D = hermite.diff_matrix_hermite(ns)
        out = mat_apply(D, hermite.constant_data(ns))
        if any(c != 0 for c in out):
            return False, f"constant not annihilated on {ns!r}"
    return True, "derivative of the constant vanishes in the data layout"


def check_hermite_partial_fractions():
    rng = random.Random(_SEED + 8)
    for _ in range(3):
        ns = _random_hermite_nodes(rng, max_dim=9)
        w = hermite.gen_bary_weights(ns)
        for _ in range(3):
            # probes sit far outside the random node range, never colliding
            z = Fraction(rng.randint(300, 900), 7)
            lhs = sum(w.weights[i][j] / (z - t) ** (j + 1)
                      for i, t in enumerate(ns.nodes)
                      for j in range(ns.confluencies[i]))
            if lhs != 1 / hermite.node_polynomial_value(ns, z):
                return False, f"partial fractions fail on {ns!r}"
    return True, "sum of partial fractions reproduces 1/w exactly"


def check_hermite_oracle():
    rng = random.Random(_SEED + 9)
    for _ in range(3):
        ns = _random_hermite_nodes(rng)
        D = hermite.diff_matrix_hermite(ns)
        if D != structure.conjugation_oracle(HermiteBasis(ns)):
            return False, f"oracle mismatch on {ns!r}"
    return True, "3 random confluent node sets"


def check_hermite_nilpotency():
    ns = NodeSet([Fraction(0), Fraction(1, 3), Fraction(-2)], [2, 3, 1])
    idx = structure.nilpotency_index(hermite.diff_matrix_hermite(ns))
    return idx == 6, f"index {idx} at dimension 6"


def check_bernstein_reference_matrix():
    D = bernstein.diff_matrix_bernstein(4)
    expected = DenseMatrix.from_rows([
        [-4, 4, 0, 0, 0],
        [-1, -2, 3, 0, 0],
        [0, -2, 0, 2, 0],
        [0, 0, -3, 2, 1],
        [0, 0, 0, -4, 4],
    ])
    return D == expected, "degree 4"


def check_bernstein_row_sums():
    for n in range(13):
        if not _zero_rows(bernstein.diff_matrix_bernstein(n)):
            return False, f"nonzero row sum at degree {n}"
    return True, "derivative of the constant vanishes, n <= 12"


def check_bernstein_norms():
    for n, norm_d, norm_dn in bernstein.bernstein_norm_table(12):
        if norm_d != 2 * n or norm_dn != 2 ** n * math.factorial(n):
            return False, f"norms at degree {n}: {norm_d}, {norm_dn}"
    return True, "|D| = 2n and |D^n| = 2^n n!, n <= 12"


def check_bernstein_oracle():
    for n in (1, 4, 7, 11):
        if bernstein.diff_matrix_bernstein(n) != structure.conjugation_oracle(BernsteinBasis(n)):
            return False, f"oracle mismatch at degree {n}"
    return True, "degrees 1, 4, 7, 11"


def _random_arg(rng, name, family):
    if family.arg == "degree":
        return rng.randint(1, 7)
    if name == "hermite":
        return _random_hermite_nodes(rng, max_dim=8)
    return NodeSet(_random_rationals(rng, rng.randint(2, 6)))


def _basis_instances(rng):
    """(name, descriptor, differentiation matrix) for one instance per family."""
    for name in KNOWN_BASES:
        family = FAMILIES[name]
        arg = _random_arg(rng, name, family)
        yield name, family.basis(arg), family.diff_matrix(arg)


def check_monomial_image_shifting():
    rng = random.Random(_SEED + 10)
    for name, basis, D in _basis_instances(rng):
        M = structure.monomial_images(basis)
        for k in range(basis.dimension):
            got = list(mat_apply(D, M.column(k)))
            want = [k * c for c in M.column(k - 1)] if k else [Fraction(0)] * basis.dimension
            if got != want:
                return False, f"D x^{k} != {k} x^{k - 1} in {name}"
    return True, "D maps x^k to k x^(k-1) in every family"


def check_jordan_similarity():
    rng = random.Random(_SEED + 11)
    for name, basis, D in _basis_instances(rng):
        V = structure.build_V(structure.monomial_images(basis))
        if not structure.jordan_check(D, V):
            return False, f"D V != V J in {name}"
    return True, "D V = V J in every family"


def check_generalized_inverse():
    rng = random.Random(_SEED + 12)
    for name, basis, D in _basis_instances(rng):
        V = structure.build_V(structure.monomial_images(basis))
        Dp = structure.pseudo_inverse(D, V)
        if not structure.verify_generalized_inverse(D, Dp):
            return False, f"generalized inverse conditions fail in {name}"
    return True, "D D+ D = D and D+ D D+ = D+ in every family"


_CHECKS = [
    ("monomial-explicit-vs-recurrence", "monomial", check_monomial_explicit_vs_recurrence),
    ("chebyshev-explicit-vs-recurrence", "chebyshev", check_chebyshev_explicit_vs_recurrence),
    ("chebyshev-antideriv-inverts", "chebyshev", check_chebyshev_antideriv_inverts),
    ("legendre-row-pattern", "legendre", check_legendre_pattern),
    ("legendre-antideriv-inverts", "legendre", check_legendre_antideriv_inverts),
    ("newton-equal-centers-monomial", "newton", check_newton_equal_nodes),
    ("newton-conjugation-oracle", "newton", check_newton_oracle),
    ("lagrange-reference-matrix", "lagrange", check_lagrange_reference_matrix),
    ("lagrange-row-sums-vanish", "lagrange", check_lagrange_row_sums),
    ("lagrange-monomial-exactness", "lagrange", check_lagrange_monomial_exactness),
    ("lagrange-barycentric-forms-agree", "lagrange", check_lagrange_forms_agree),
    ("lagrange-conjugation-oracle", "lagrange", check_lagrange_oracle),
    ("lagrange-nilpotency-index", "lagrange", check_lagrange_nilpotency),
    ("hermite-reference-matrix", "hermite", check_hermite_reference_matrix),
    ("hermite-confluency-one-is-lagrange", "hermite", check_hermite_confluency_one),
    ("hermite-constant-annihilation", "hermite", check_hermite_constant_annihilation),
    ("hermite-partial-fractions", "hermite", check_hermite_partial_fractions),
    ("hermite-conjugation-oracle", "hermite", check_hermite_oracle),
    ("hermite-nilpotency-index", "hermite", check_hermite_nilpotency),
    ("bernstein-reference-matrix", "bernstein", check_bernstein_reference_matrix),
    ("bernstein-row-sums-vanish", "bernstein", check_bernstein_row_sums),
    ("bernstein-norm-identities", "bernstein", check_bernstein_norms),
    ("bernstein-conjugation-oracle", "bernstein", check_bernstein_oracle),
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
