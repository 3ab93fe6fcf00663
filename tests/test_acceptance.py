"""Release acceptance gate.

Each test covers one numbered release criterion, prints a single
summary line of the form ``criterion N: PASS/FAIL - details`` (visible
with ``pytest -rA``), and enforces the criterion's wall-clock budget.
"""

import math
import os
import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction as F

import polydiff
from polydiff import (
    BernsteinBasis,
    DegreeGradedBasis,
    DenseMatrix,
    HermiteBasis,
    LagrangeBasis,
    NodeSet,
    bernstein_norm_table,
    build_V,
    chebyshev_antideriv_matrix,
    chebyshev_diff_matrix,
    chebyshev_points,
    chebyshev_recurrence,
    conjugation_oracle,
    diff_matrix_bernstein,
    diff_matrix_degree_graded,
    diff_matrix_hermite,
    diff_matrix_lagrange,
    gen_bary_weights,
    jordan_block,
    legendre_antideriv_matrix,
    legendre_recurrence,
    mat_power,
    monomial_images,
    monomial_recurrence,
    newton_basis,
    newton_diff_matrix,
    nilpotency_index,
    pseudo_inverse,
    run_experiment,
)
from polydiff.experiments import _grid as experiment_grid

SEED = 20250825


def _finish(num, failures, details, elapsed, budget=None):
    if budget is not None and elapsed >= budget:
        failures.append(f"elapsed {elapsed:.2f}s exceeds {budget:.0f}s budget")
    status = "PASS" if not failures else "FAIL"
    text = details if not failures else "; ".join(failures)
    print(f"criterion {num}: {status} - {text} [{elapsed:.2f}s]")
    assert not failures, text


def _expect(failures, label, got, want):
    if got != want:
        failures.append(f"{label} mismatch")


def _expect_close(failures, label, got, want, tol):
    worst = max(abs(got[i, j] - want[i, j])
                for i in range(got.rows) for j in range(got.cols))
    if worst > tol:
        failures.append(f"{label}: max entry error {worst:.2e} > {tol:g}")


def _newton_expected(z):
    """5x5 Newton differentiation matrix written out entry by entry."""
    rows = [[0] * 5 for _ in range(5)]
    rows[0][1] = 1
    rows[0][2] = z[0] - z[1]
    rows[0][3] = (z[0] - z[2]) * (z[0] - z[1])
    rows[0][4] = (z[0] - z[3]) * (z[0] - z[2]) * (z[0] - z[1])
    rows[1][2] = 2
    rows[1][3] = z[0] + z[1] - 2 * z[2]
    rows[1][4] = ((z[1] - z[3]) * (z[1] - 2 * z[2] + z[0])
                  + (z[0] - z[2]) * (z[0] - z[1]))
    rows[2][3] = 3
    rows[2][4] = z[0] + z[1] + z[2] - 3 * z[3]
    rows[3][4] = 4
    return DenseMatrix.from_rows(rows)


def test_criterion_1_reference_matrices():
    t0 = time.perf_counter()
    failures = []

    mono = diff_matrix_degree_graded(monomial_recurrence(3), 3)
    _expect(failures, "monomial 4x4", mono, DenseMatrix.from_rows([
        [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3], [0, 0, 0, 0]]))

    _expect(failures, "chebyshev D (n=7)", chebyshev_diff_matrix(7),
            DenseMatrix.from_rows([
                [0, 1, 0, 3, 0, 5, 0, 7],
                [0, 0, 4, 0, 8, 0, 12, 0],
                [0, 0, 0, 6, 0, 10, 0, 14],
                [0, 0, 0, 0, 8, 0, 12, 0],
                [0, 0, 0, 0, 0, 10, 0, 14],
                [0, 0, 0, 0, 0, 0, 12, 0],
                [0, 0, 0, 0, 0, 0, 0, 14],
                [0, 0, 0, 0, 0, 0, 0, 0]]))

    _expect(failures, "chebyshev antiderivative (n=5)",
            chebyshev_antideriv_matrix(5),
            DenseMatrix.from_rows([
                [0, 0, 0, 0, 0, 0],
                [1, 0, F(-1, 2), 0, 0, 0],
                [0, F(1, 4), 0, F(-1, 4), 0, 0],
                [0, 0, F(1, 6), 0, F(-1, 6), 0],
                [0, 0, 0, F(1, 8), 0, F(-1, 8)],
                [0, 0, 0, 0, F(1, 10), 0]]))

    legendre = diff_matrix_degree_graded(legendre_recurrence(7), 7)
    _expect(failures, "legendre D (n=7)", legendre, DenseMatrix.from_rows([
        [2 * i + 1 if j > i and (j - i) % 2 == 1 else 0 for j in range(8)]
        for i in range(8)]))

    _expect(failures, "legendre antiderivative (n=5)",
            legendre_antideriv_matrix(5),
            DenseMatrix.from_rows([
                [0, 0, 0, 0, 0, 0],
                [1, 0, F(-1, 5), 0, 0, 0],
                [0, F(1, 3), 0, F(-1, 7), 0, 0],
                [0, 0, F(1, 5), 0, F(-1, 9), 0],
                [0, 0, 0, F(1, 7), 0, F(-1, 11)],
                [0, 0, 0, 0, F(1, 9), 0]]))

    _expect(failures, "newton (z=0..4)", newton_diff_matrix([0, 1, 2, 3, 4]),
            DenseMatrix.from_rows([
                [0, 1, -1, 2, -6],
                [0, 0, 2, -3, 8],
                [0, 0, 0, 3, -6],
                [0, 0, 0, 0, 4],
                [0, 0, 0, 0, 0]]))
    for z in ([0, 1, 2, 3, 4], [F(1, 2), F(-1, 3), 2, F(-5, 4), 3]):
        _expect(failures, f"newton entry formulas at {z}",
                newton_diff_matrix(z), _newton_expected(z))

    four = diff_matrix_lagrange([F(-1), F(-1, 2), F(1, 2), F(1)])
    _expect(failures, "lagrange 4-node", four * 6, DenseMatrix.from_rows([
        [-19, 24, -8, 3],
        [-6, 2, 6, -2],
        [2, -6, -2, 6],
        [-3, 8, -24, 19]]))

    unit = diff_matrix_lagrange([1, 1j, -1, -1j])
    _expect_close(failures, "lagrange complex unit nodes", unit * 2,
                  DenseMatrix.from_rows([
                      [3, -1 + 1j, -1, -1 - 1j],
                      [-1 + 1j, -3j, 1 + 1j, 1j],
                      [1, 1 + 1j, -3, 1 - 1j],
                      [-1 - 1j, -1j, 1 - 1j, 3j]]), 1e-13)

    herm = diff_matrix_hermite(NodeSet([-1, 0, 1], [3, 4, 2]))
    _expect(failures, "hermite 9x9", herm, DenseMatrix.from_rows([
        [0, 1, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 2, 0, 0, 0, 0, 0, 0],
        [F(-201, 2), F(-177, 4), -15, 96, -60, 24, -12, F(9, 2), F(-3, 4)],
        [0, 0, 0, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 2, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 3, 0, 0],
        [F(83, 4), 6, 1, -24, 12, -12, 4, F(13, 4), F(-1, 2)],
        [0, 0, 0, 0, 0, 0, 0, 0, 1],
        [35, 11, 2, 0, 48, 0, 16, -35, 11]]))

    _expect(failures, "bernstein 5x5", diff_matrix_bernstein(4),
            DenseMatrix.from_rows([
                [-4, 4, 0, 0, 0],
                [-1, -2, 3, 0, 0],
                [0, -2, 0, 2, 0],
                [0, 0, -3, 2, 1],
                [0, 0, 0, -4, 4]]))

    elapsed = time.perf_counter() - t0
    _finish(1, failures, "10 reference matrices reproduced exactly "
            "(complex case to 1e-13)", elapsed, budget=1.0)


def _distinct_rationals(rng, count):
    pool = set()
    while len(pool) < count:
        pool.add(F(rng.randint(-9, 9), rng.randint(1, 4)))
    return sorted(pool)


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    failures = []
    rng = random.Random(SEED)
    total = 0

    def check(name, basis, D):
        nonlocal total
        total += 1
        if D != conjugation_oracle(basis):
            failures.append(f"{name} instance {total} deviates from oracle")

    for _ in range(20):
        n = rng.randint(1, 11)
        check("monomial", DegreeGradedBasis(monomial_recurrence(n), n, "monomial"),
              diff_matrix_degree_graded(monomial_recurrence(n), n))
        n = rng.randint(1, 11)
        check("chebyshev", DegreeGradedBasis(chebyshev_recurrence(n), n, "chebyshev"),
              chebyshev_diff_matrix(n))
        n = rng.randint(1, 11)
        check("legendre", DegreeGradedBasis(legendre_recurrence(n), n, "legendre"),
              diff_matrix_degree_graded(legendre_recurrence(n), n))
        pts = _distinct_rationals(rng, rng.randint(2, 12))
        check("newton", newton_basis(pts), newton_diff_matrix(pts))
        pts = _distinct_rationals(rng, rng.randint(2, 12))
        check("lagrange", LagrangeBasis(pts), diff_matrix_lagrange(pts))
        k = rng.randint(1, 4)
        ns = NodeSet(_distinct_rationals(rng, k),
                     [rng.randint(1, 3) for _ in range(k)])
        check("hermite", HermiteBasis(ns), diff_matrix_hermite(ns))
        n = rng.randint(1, 11)
        check("bernstein", BernsteinBasis(n), diff_matrix_bernstein(n))

    elapsed = time.perf_counter() - t0
    _finish(2, failures, f"{total} randomized instances across 7 families "
            "match the conjugation oracle exactly", elapsed, budget=10.0)


def _structural_cases(n):
    pts = [F(k) for k in range(n + 1)]
    simple = [F(2 * k - n, n) for k in range(n + 1)]
    ns = NodeSet([-1, 0, 1], [3, n - 4, 2]) if n >= 7 else NodeSet([0, 1], [n - 1, 2])
    return [
        ("monomial", DegreeGradedBasis(monomial_recurrence(n), n, "monomial"),
         diff_matrix_degree_graded(monomial_recurrence(n), n)),
        ("chebyshev", DegreeGradedBasis(chebyshev_recurrence(n), n, "chebyshev"),
         chebyshev_diff_matrix(n)),
        ("legendre", DegreeGradedBasis(legendre_recurrence(n), n, "legendre"),
         diff_matrix_degree_graded(legendre_recurrence(n), n)),
        ("newton", newton_basis(pts), newton_diff_matrix(pts)),
        ("lagrange", LagrangeBasis(simple), diff_matrix_lagrange(simple)),
        ("hermite", HermiteBasis(ns), diff_matrix_hermite(ns)),
        ("bernstein", BernsteinBasis(n), diff_matrix_bernstein(n)),
    ]


def test_criterion_3_jordan_form_and_pseudo_inverse():
    t0 = time.perf_counter()
    failures = []
    checked = 0
    for n in (3, 5, 8):
        for name, basis, D in _structural_cases(n):
            dim = basis.dimension
            V = build_V(monomial_images(basis))
            J = jordan_block(dim, D.field)
            if D * V != V * J:
                failures.append(f"{name} n={n}: D*V != V*J")
            Dp = pseudo_inverse(D, V)
            if D * Dp * D != D or Dp * D * Dp != Dp:
                failures.append(f"{name} n={n}: generalized-inverse identities fail")
            if nilpotency_index(D) != dim:
                failures.append(f"{name} n={n}: nilpotency index != {dim}")
            checked += 1

    elapsed = time.perf_counter() - t0
    _finish(3, failures, f"Jordan similarity, pseudoinverse identities, and "
            f"nilpotency index exact for {checked} family instances",
            elapsed, budget=10.0)


def test_criterion_4_bernstein_norm_growth():
    t0 = time.perf_counter()
    failures = []
    for n, norm_d, norm_dn in bernstein_norm_table(12):
        if norm_d != 2 * n:
            failures.append(f"norm(D) at n={n} is {norm_d}, want {2 * n}")
        if norm_dn != 2 ** n * math.factorial(n):
            failures.append(f"norm(D^n) at n={n} is {norm_dn}")
    D = diff_matrix_bernstein(12)
    if mat_power(D, 13) != DenseMatrix.zeros(13, 13):
        failures.append("D^13 for degree 12 is not zero")

    elapsed = time.perf_counter() - t0
    _finish(4, failures, "norm(D)=2n and norm(D^n)=2^n n! for n=1..12; "
            "D^(n+1)=0", elapsed, budget=5.0)


def test_criterion_5_hermite_norm_experiment():
    t0 = time.perf_counter()
    failures = []
    ns = [3, 5, 8, 13, 21, 34, 55]
    cheb = run_experiment("hermite-norms", "chebyshev", 3, ns=ns)
    equi = run_experiment("hermite-norms", "equispaced", 3, ns=ns)

    top = cheb[-1].norm_D
    if not 1e9 <= top <= 1e11:
        failures.append(f"norm_D at n=55 is {top:.3e}, outside [1e9, 1e11]")
    for a, b in zip(cheb, cheb[1:]):
        if not a.norm_D < b.norm_D:
            failures.append(f"norm_D not increasing from n={a.n} to n={b.n}")
    for c, e in zip(cheb, equi):
        if c.n >= 8 and not e.norm_D > c.norm_D:
            failures.append(f"equispaced norm_D does not dominate at n={c.n}")
    ratios = [r.norm_Z / r.norm_D for r in cheb]
    for r, ratio in zip(cheb, ratios):
        if not 1e-18 <= ratio <= 1e-13:
            failures.append(f"norm_Z/norm_D at n={r.n} is {ratio:.3e}, "
                            "outside [1e-18, 1e-13]")

    elapsed = time.perf_counter() - t0
    _finish(5, failures, f"norm_D(55)={top:.3e}, growth monotone, equispaced "
            f"dominates for n>=8, ratios in [{min(ratios):.1e}, {max(ratios):.1e}]",
            elapsed, budget=60.0)


def _hermite_error_ceiling(n, s):
    """Rounding-error ceiling on the ``hermite-error`` record at (n, s).

    With exact weights b_ij of the float Chebyshev nodes t_i, the
    partial fraction expansion of 1/w gives, for every grid point z,

        w(z) * sum_ij b_ij (z - t_i)^-(j+1) = 1.

    For the constant's data, ``hermite_eval`` computes the left side in
    double precision from float weights b_ij (1 + d_ij), |d_ij| <= eps_w;
    the entries with k > 0 are exact zeros.  Per node it runs Horner in
    u_i = 1/(z - t_i): P_0 = 1, P_j = P_{j-1} u_i + 0 = u_i^j, and the
    node's share is u_i sum_j b_ij P_j.  Counting roundings in the
    standard model (Higham 2004, ch. 3; each factor (1 + theta_k) with
    |theta_k| <= gamma_k = k u / (1 - k u), u = 2^-53), for the term
    b_ij u_i^(j+1) with j = s - 1, the most rounded one:
      - w(z): dim subtractions z - t_i and dim - 1 products, 2 dim - 1;
      - u_i: z - t_i and the division, 2, entering j + 1 times: 2 s;
      - P_j: j - 1 products (P_1 = 1.0 u_i is exact), s - 2 at most;
      - b_ij P_j: 1;
      - the node's sum over j: s - 1 additions;
      - the node's sum times u_i: 1;
      - adding the n + 1 node shares left to right: n;
      - w(z) times the sum: 1 (the weights' scale is the integer 1).
    That is 2 dim + n + 4 s - 1 (402 at n = 55, s = 3), and a term with
    j < s - 1 passes fewer.  Since gamma_k grows with k, each term
    carries a factor (1 + theta_K) for any larger K; the test keeps
    K = 3 dim + 2 s + 2 (512 there), a count for forming each term
    through an integer power, and subtracting the identity above leaves

        |p(z) - 1| <= (eps_w + gamma_K + eps_w gamma_K) Lambda(z),
        Lambda(z) = |w(z)| sum_ij |b_ij| |z - t_i|^-(j+1),

    the generalized Lebesgue function of the constant's data.  Grid
    points that hit a node return the stored 1 exactly and are skipped.
    Lambda is summed in floating point from the exact weights; its own
    relative error is of order K u, far below the digits quoted here.
    """
    pts = chebyshev_points(n)
    float_w = gen_bary_weights(NodeSet(pts, [s] * (n + 1)))
    exact_w = gen_bary_weights(NodeSet([F(t) for t in pts], [s] * (n + 1)))
    eps_w = float(max(abs((F(bf) - bx) / bx)
                      for rf, rx in zip(float_w.weights, exact_w.weights)
                      for bf, bx in zip(rf, rx)))
    mags = [[abs(float(b)) for b in row] for row in exact_w.weights]
    lam = 0.0
    for z in experiment_grid():
        if z in pts:
            continue
        wz = math.prod(abs(z - t) ** s for t in pts)
        lam = max(lam, wz * sum(b / abs(z - t) ** (j + 1)
                                for t, row in zip(pts, mags)
                                for j, b in enumerate(row)))
    K = 3 * (n + 1) * s + 2 * s + 2
    gamma = K * 2.0 ** -53 / (1 - K * 2.0 ** -53)
    return eps_w, lam, (eps_w + gamma + eps_w * gamma) * lam


def test_criterion_6_floating_point_accuracy():
    t0 = time.perf_counter()
    failures = []
    lag55 = run_experiment("lagrange-error", "chebyshev", ns=[55])[0].max_err
    lag165 = run_experiment("lagrange-error", "chebyshev", ns=[165])[0].max_err
    herm55 = run_experiment("hermite-error", "chebyshev", 3, ns=[55])[0].max_err
    norm_z = run_experiment("hermite-norms", "chebyshev", 3, ns=[55])[0].norm_Z
    eps_w, lam, ceiling = _hermite_error_ceiling(55, 3)

    if not lag55 <= 1e-11:
        failures.append(f"lagrange-error at n=55 is {lag55:.3e} > 1e-11")
    if not lag165 <= 1e-10:
        failures.append(f"lagrange-error at n=165 is {lag165:.3e} > 1e-10")
    # The conditioning loss shows in D's nontrivial rows: the residual of D
    # applied to the constant.
    if not 1e-7 <= norm_z <= 1e-3:
        failures.append(f"hermite-norms norm_Z at n=55 is {norm_z:.3e}, "
                        "outside [1e-7, 1e-3]")
    # The interpolant's value error is an accuracy result, held to the
    # derived ceiling; the ceiling itself must stay below the band's lower
    # edge, which is why that edge cannot apply to max_err.
    if not herm55 <= ceiling:
        failures.append(f"hermite-error at n=55 is {herm55:.3e} > "
                        f"error bound {ceiling:.3e}")
    if not ceiling < 1e-7:
        failures.append(f"hermite-error bound at n=55 is {ceiling:.3e} "
                        f"(eps_w {eps_w:.2e}), not below 1e-7")

    elapsed = time.perf_counter() - t0
    _finish(6, failures, f"lagrange-error {lag55:.2e} (n=55) / {lag165:.2e} "
            f"(n=165); hermite-error {herm55:.2e} <= bound {ceiling:.2e} "
            f"(eps_w {eps_w:.2e}, Lambda {lam:.1f}); norm_Z {norm_z:.2e} "
            "(n=55)", elapsed, budget=30.0)


def test_criterion_7_self_check_command():
    t0 = time.perf_counter()
    failures = []
    exe = shutil.which("polydiff")
    cmd = [exe, "verify"] if exe else [sys.executable, "-m", "polydiff", "verify"]
    # the child imports the package these tests import, whether or not PYTHONPATH names it
    src = os.path.dirname(os.path.dirname(polydiff.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, env=env)
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    if proc.returncode != 0:
        failures.append(f"exit code {proc.returncode}: {summary or proc.stderr.strip()}")

    elapsed = time.perf_counter() - t0
    _finish(7, failures, f"'{' '.join(cmd[-2:])}' exited 0 ({summary})", elapsed)
