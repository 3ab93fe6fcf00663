"""Barycentric weights, both evaluation forms, and the Lagrange matrix."""

import math
import random
import statistics
import time
from fractions import Fraction

import pytest

from polydiff.core import DenseMatrix, LagrangeBasis, NodeSet, mat_apply
from polydiff.experiments import chebyshev_points
from polydiff.hermite import node_polynomial_value
from polydiff.lagrange import (
    bary_weights,
    diff_matrix_lagrange,
    eval_first_form,
    eval_second_form,
)
from polydiff.structure import conjugation_oracle, nilpotency_index

import _oracles as orc

FOUR_NODES = NodeSet([Fraction(-1), Fraction(-1, 2), Fraction(1, 2), Fraction(1)])


# ---------------------------------------------------------------- weights

def test_weights_on_four_symmetric_nodes():
    w = bary_weights(FOUR_NODES)
    assert [row[0] for row in w.weights] == [
        Fraction(-2, 3), Fraction(4, 3), Fraction(-4, 3), Fraction(2, 3)]


def test_weights_match_product_formula():
    rng = random.Random(3)
    ts = []
    while len(ts) < 6:
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        if q not in ts:
            ts.append(q)
    w = bary_weights(NodeSet(ts))
    for k, tk in enumerate(ts):
        prod = Fraction(1)
        for j, tj in enumerate(ts):
            if j != k:
                prod *= tk - tj
        assert w.weights[k] == (1 / prod,)


def test_weights_reject_confluent_nodes():
    with pytest.raises(ValueError):
        bary_weights(NodeSet([0, 1], [2, 1]))


def test_node_polynomial_value_with_confluency():
    ns = NodeSet([0, 2], [2, 1])
    z = Fraction(5)
    assert node_polynomial_value(ns, [z]) == [5 * 5 * 3]


# ---------------------------------------------------------------- evaluation

def test_forms_hit_nodes_exactly():
    w = bary_weights(NodeSet([0, 1, 2]))
    values = [5, -1, 7]
    assert eval_first_form(w, values, [1]) == [-1]
    assert eval_second_form(w, values, [2]) == [7]


def test_forms_reproduce_polynomials_exactly():
    ts = [Fraction(-2), Fraction(0), Fraction(1), Fraction(3)]
    w = bary_weights(NodeSet(ts))
    p = [Fraction(1), Fraction(-2), Fraction(0), Fraction(5)]
    values = [orc.poly_eval(p, t) for t in ts]
    zs = (Fraction(1, 7), Fraction(-8, 3), Fraction(12))
    want = [orc.poly_eval(p, z) for z in zs]
    assert eval_first_form(w, values, zs) == want
    assert eval_second_form(w, values, zs) == want


def test_forms_check_value_count():
    w = bary_weights(NodeSet([0, 1]))
    with pytest.raises(ValueError):
        eval_first_form(w, [1], [0.5])
    with pytest.raises(ValueError):
        eval_second_form(w, [1, 2, 3], [0.5])


def test_forms_agree_in_floating_point():
    rng = random.Random(99)
    w = bary_weights(NodeSet(chebyshev_points(30)))
    values = [rng.uniform(-2, 2) for _ in range(31)]
    zs = [z for z in (rng.uniform(-1, 1) for _ in range(40)) if z not in w.nodes.nodes]
    for a, b in zip(eval_first_form(w, values, zs), eval_second_form(w, values, zs)):
        assert abs(a - b) <= 1e-13 * max(1.0, abs(a), abs(b))


def test_second_form_matches_former_sums():
    rng = random.Random(12)
    ts = [Fraction(-3), Fraction(-1, 2), Fraction(1, 3), Fraction(2), Fraction(7, 4)]
    w = bary_weights(NodeSet(ts))
    values = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in ts]
    zs = (Fraction(1, 7), Fraction(-8, 3), Fraction(12), Fraction(2))
    assert eval_second_form(w, values, zs) == [orc.second_form_by_sums(w, values, z) for z in zs]
    for n in (1, 5, 34, 55, 165):
        w = bary_weights(NodeSet(chebyshev_points(n)))
        values = [rng.uniform(-2, 2) for _ in range(n + 1)]
        zs = [rng.uniform(-1, 1) for _ in range(25)]
        for z, a in zip(zs, eval_second_form(w, values, zs)):
            b = orc.second_form_by_sums(w, values, z)
            assert abs(a - b) <= 1e-13 * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------- matrices

def test_four_node_reference_matrix():
    D = diff_matrix_lagrange(FOUR_NODES)
    rows = [[-19, 24, -8, 3], [-6, 2, 6, -2], [2, -6, -2, 6], [-3, 8, -24, 19]]
    assert D == DenseMatrix.from_rows([[Fraction(v, 6) for v in r] for r in rows])


def test_complex_unit_node_matrix():
    D = diff_matrix_lagrange(NodeSet([1, 1j, -1, -1j]))
    want = [[3, -1 + 1j, -1, -1 - 1j],
            [-1 + 1j, -3j, 1 + 1j, 1j],
            [1, 1 + 1j, -3, 1 - 1j],
            [-1 - 1j, -1j, 1 - 1j, 3j]]
    for i in range(4):
        for j in range(4):
            assert abs(D[i, j] - want[i][j] / 2) <= 1e-13


def test_row_sums_vanish():
    rng = random.Random(5)
    for _ in range(4):
        ts = []
        while len(ts) < rng.randint(2, 8):
            q = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
            if q not in ts:
                ts.append(q)
        D = diff_matrix_lagrange(NodeSet(ts))
        for i in range(D.rows):
            assert sum(D.row(i), Fraction(0)) == 0


def test_matrix_equals_derivative_values_oracle():
    ts = [Fraction(-1), Fraction(0), Fraction(1, 3), Fraction(2)]
    polys = orc.lagrange_polys(ts)
    want = DenseMatrix.from_rows(orc.diff_matrix_by_values(polys, ts))
    assert diff_matrix_lagrange(NodeSet(ts)) == want


def test_matrix_equals_conjugation_oracle():
    ns = NodeSet([Fraction(-2), Fraction(1, 2), Fraction(1), Fraction(5, 3)])
    assert diff_matrix_lagrange(ns) == conjugation_oracle(LagrangeBasis(ns))


def test_nilpotency_index_is_dimension():
    ns = NodeSet([Fraction(k, 2) for k in range(5)])
    assert nilpotency_index(diff_matrix_lagrange(ns)) == 5


def test_monomial_data_differentiates_exactly():
    ts = [Fraction(-1), Fraction(-1, 2), Fraction(1, 2), Fraction(1)]
    D = diff_matrix_lagrange(NodeSet(ts))
    for k in range(4):
        values = [t ** k for t in ts]
        want = [k * t ** (k - 1) if k else Fraction(0) for t in ts]
        assert list(mat_apply(D, values)) == want


def test_float_matrix_accuracy_against_mpmath():
    # normwise relative error on the 166 Chebyshev points, against the
    # product formula at 40 digits on the same float nodes
    mpmath = pytest.importorskip("mpmath")
    ts = chebyshev_points(165)
    D = diff_matrix_lagrange(NodeSet(ts))
    n = len(ts)
    with mpmath.workdps(40):
        xs = [mpmath.mpf(t) for t in ts]
        b = [1 / mpmath.fprod(xs[k] - xs[j] for j in range(n) if j != k) for k in range(n)]
        ref = [[b[j] / (b[i] * (xs[i] - xs[j])) if j != i
                else mpmath.fsum(1 / (xs[i] - xs[m]) for m in range(n) if m != i)
                for j in range(n)] for i in range(n)]
        err = max(mpmath.fsum(abs(mpmath.mpf(d) - r) for d, r in zip(D.row(i), ref[i]))
                  for i in range(n))
        err /= max(mpmath.fsum(abs(r) for r in row) for row in ref)
    assert err <= 6.9e-16, f"normwise relative error {float(err):.3e}"


def test_float_matrix_keeps_constants_in_derivatives_small():
    # The negative-sum diagonal keeps D 1 near zero, and so D f accurate
    # for f with a large constant part.  On the 166 Chebyshev points it
    # gives 8.6e-13 and 7.9e-10; the diagonal formed directly from the
    # node products gives 9.1e-12 and 8.7e-9.
    ts = chebyshev_points(165)
    D = diff_matrix_lagrange(NodeSet(ts))
    ones = max(abs(x) for x in mat_apply(D, [1.0] * len(ts)))
    assert ones <= 2e-12, f"|D 1| = {ones:.3e}"
    df = mat_apply(D, [math.exp(t) + 1e3 for t in ts])
    err = max(abs(d - math.exp(t)) for d, t in zip(df, ts))
    assert err <= 2e-9, f"|D f - f'| = {err:.3e} for f = exp + 1e3"


def test_duplicate_nodes_rejected():
    with pytest.raises(ValueError):
        diff_matrix_lagrange([0, 1, 1])


# ---------------------------------------------------------------- cost scaling

def _build_time(ns: NodeSet) -> float:
    t0 = time.perf_counter()
    diff_matrix_lagrange(ns)
    return time.perf_counter() - t0


def test_construction_cost_scales_quadratically():
    # Each round builds the two sizes back to back, so that a slow stretch
    # of the host falls on both builds of the pair.  The median over the
    # rounds drops a pair in which one build caught a short burst of speed.
    small, large = NodeSet(chebyshev_points(100)), NodeSet(chebyshev_points(200))
    ratios = sorted(_build_time(large) / _build_time(small) for _ in range(5))
    # doubling n should cost about 4x; anything cubic would show ~8x
    assert statistics.median(ratios) < 6.5, f"t200/t100 per round: {ratios}"
