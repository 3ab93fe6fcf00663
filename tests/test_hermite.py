"""Generalized barycentric weights and the confluent differentiation matrix.

The oracle side expands every cardinal polynomial exactly from its
defining data functionals and differentiates it as a plain coefficient
list, so none of the package's series machinery is trusted twice.
"""

import math
import random
from fractions import Fraction

import pytest

from polydiff import hermite
from polydiff.core import DenseMatrix, HermiteBasis, NodeSet, mat_apply
from polydiff.experiments import chebyshev_points, equispaced_points
from polydiff.hermite import (
    constant_data,
    diff_matrix_hermite,
    gen_bary_weights,
    hermite_eval,
    monomial_data,
    node_polynomial_value,
)
from polydiff.lagrange import diff_matrix_lagrange
from polydiff.structure import conjugation_oracle, nilpotency_index

import _oracles as orc

REFERENCE_NODES = NodeSet([-1, 0, 1], [3, 4, 2])


def random_confluent_nodes(rng, max_dim=10):
    count = rng.randint(1, 3)
    ts = []
    while len(ts) < count:
        q = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        if q not in ts:
            ts.append(q)
    conf = []
    budget = max_dim - count
    for _ in range(count):
        extra = rng.randint(0, min(3, budget))
        conf.append(1 + extra)
        budget -= extra
    return NodeSet(ts, conf)


def layout_data(poly, ns):
    """Scaled-derivative layout of a monomial-coefficient polynomial."""
    return [orc.poly_shifted_eval(poly, ns.nodes[i], j)
            for i in range(len(ns)) for j in range(ns.confluencies[i])]


# ---------------------------------------------------------------- weights

def test_hand_worked_double_node():
    # w = z^2 (z - 1): residues -1, -1 at 0 and 1 at 1
    w = gen_bary_weights(NodeSet([0, 1], [2, 1]))
    assert w.weights == ((Fraction(-1), Fraction(-1)), (Fraction(1),))


def test_confluency_one_reduces_to_simple_weights():
    ns = NodeSet([Fraction(-1), Fraction(1, 3), Fraction(2)])
    gw = gen_bary_weights(ns)
    # the product formula 1 / prod_{j != k} (t_k - t_j)
    want = tuple((1 / math.prod(tk - tj for tj in ns.nodes if tj != tk),) for tk in ns.nodes)
    assert gw.weights == want


def test_a_weight_past_the_float_range_is_refused_and_named():
    # equispaced nodes on [-1, 1]: every g_i(t_i) is finite, but some are too small to invert
    for n, s, last_finite, named in ((718, 1, 717, "b_346,0 = inf"), (240, 3, 239, "b_113,0 = -inf")):
        nodes = NodeSet(equispaced_points(n), [s] * (n + 1))
        with pytest.raises(ArithmeticError, match=f"^the weight {named} is outside the floating-point range$"):
            gen_bary_weights(nodes)
        with pytest.raises(ArithmeticError, match=f"^the weight {named} "):
            diff_matrix_hermite(nodes)
        w = gen_bary_weights(NodeSet(equispaced_points(last_finite), [s] * (last_finite + 1)))
        assert all(math.isfinite(b) for row in w.weights for b in row)


def test_partial_fraction_expansion_is_exact():
    rng = random.Random(17)
    for _ in range(4):
        ns = random_confluent_nodes(rng, max_dim=8)
        w = gen_bary_weights(ns)
        zs = [Fraction(rng.randint(100, 400), 7) for _ in range(3)]  # far from every node
        for z, wz in zip(zs, node_polynomial_value(ns, zs)):
            lhs = sum(w.weights[i][j] / (z - t) ** (j + 1)
                      for i, t in enumerate(ns.nodes)
                      for j in range(ns.confluencies[i]))
            assert lhs == 1 / wz


# ---------------------------------------------------------------- evaluation

def test_eval_reproduces_polynomials_exactly():
    rng = random.Random(23)
    for _ in range(3):
        ns = random_confluent_nodes(rng, max_dim=8)
        w = gen_bary_weights(ns)
        p = [Fraction(rng.randint(-5, 5)) for _ in range(ns.dimension)]
        data = layout_data(p, ns)
        zs = [z for z in (Fraction(9, 2), Fraction(-7, 3), Fraction(31, 4)) if z not in ns.nodes]
        assert hermite_eval(w, data, zs) == [orc.poly_eval(p, z) for z in zs]


def test_eval_hits_nodes():
    ns = NodeSet([0, 1], [2, 2])
    w = gen_bary_weights(ns)
    assert hermite_eval(w, [3, 9, -5, 4], [1]) == [-5]
    with pytest.raises(ValueError):
        hermite_eval(w, [1, 2, 3], [0.5])


def test_eval_equals_former_first_form_on_rational_data():
    rng = random.Random(41)
    for _ in range(6):
        ns = random_confluent_nodes(rng, max_dim=9)
        w = gen_bary_weights(ns)
        data = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(ns.dimension)]
        zs = (Fraction(9, 2), Fraction(-7, 3), Fraction(31, 4))
        assert hermite_eval(w, data, zs) == [orc.first_form_by_powers(w, data, z) for z in zs]


def test_eval_at_confluency_one_is_former_first_form_bit_for_bit():
    # at s = 1 the recurrence does the same float operations in the same order
    rng = random.Random(5)
    for n in (1, 2, 5, 13, 34, 55):
        w = gen_bary_weights(NodeSet(chebyshev_points(n)))
        data = [rng.uniform(-2, 2) for _ in range(n + 1)]
        zs = [rng.uniform(-1, 1) for _ in range(25)]
        assert [repr(v) for v in hermite_eval(w, data, zs)] == \
            [repr(orc.first_form_by_powers(w, data, z)) for z in zs]


@pytest.mark.parametrize("s", [2, 3])
def test_confluent_eval_stays_near_former_first_form(s):
    rng = random.Random(s)
    for n in (2, 13, 55):
        w = gen_bary_weights(NodeSet(chebyshev_points(n), [s] * (n + 1)))
        data = [rng.uniform(-2, 2) for _ in range(w.nodes.dimension)]
        zs = [rng.uniform(-1, 1) for _ in range(25)]
        for z, a in zip(zs, hermite_eval(w, data, zs)):
            b = orc.first_form_by_powers(w, data, z)
            assert abs(a - b) <= 1e-13 * max(1.0, abs(a), abs(b))


def test_basis_elements_match_cardinal_polynomials():
    # the interpolant of a unit data vector is the cardinal function of its slot
    ns = NodeSet([Fraction(-1), Fraction(0), Fraction(1)], [2, 1, 2])
    w = gen_bary_weights(ns)
    cards = orc.hermite_polys(ns.nodes, ns.confluencies)
    for r, card in enumerate(cards):
        unit = [Fraction(int(r == c)) for c in range(ns.dimension)]
        zs = (Fraction(1, 2), Fraction(3), Fraction(-5, 2))
        assert hermite_eval(w, unit, zs) == [orc.poly_eval(card, z) for z in zs]
        assert hermite_eval(w, unit, [Fraction(-1)]) == [1 if r == 0 else 0]


def test_constant_data_layout():
    d = constant_data(REFERENCE_NODES)
    assert list(d) == [1, 0, 0, 1, 0, 0, 0, 1, 0]
    assert len(d) == 9


def test_monomial_data_is_the_layout_of_powers():
    rng = random.Random(8)
    for _ in range(20):
        ns = random_confluent_nodes(rng, max_dim=8)
        for k in range(ns.dimension + 2):
            d = monomial_data(ns, k)
            assert d == tuple(layout_data([0] * k + [1], ns)), (ns, k)
            assert all(type(e) is Fraction for e in d)
    assert monomial_data(REFERENCE_NODES, 0) == constant_data(REFERENCE_NODES)
    for nodes, kind in (([-1.5, 0.25, 2.0], float), ([1j, -0.5 + 2j, 3 + 0j], complex)):
        ns = NodeSet(nodes, [3, 1, 2])
        for k in range(ns.dimension + 2):
            d = monomial_data(ns, k)
            assert all(type(e) is kind for e in d), (nodes, k)
            assert d == pytest.approx(layout_data([0] * k + [1], ns), rel=1e-12)


# ---------------------------------------------------------------- matrix

def test_reference_nine_by_nine():
    D = diff_matrix_hermite(REFERENCE_NODES)
    assert D == DenseMatrix.from_rows([
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


def test_trivial_rows_shift_scaled_derivatives():
    rng = random.Random(31)
    ns = random_confluent_nodes(rng)
    D = diff_matrix_hermite(ns)
    for i, s in enumerate(ns.confluencies):
        for j in range(s - 1):
            r = ns.slot(i, j)
            row = list(D.row(r))
            assert row[ns.slot(i, j + 1)] == j + 1
            row[ns.slot(i, j + 1)] = 0
            assert all(x == 0 for x in row)


def test_confluency_one_equals_lagrange():
    ts = [Fraction(-3, 2), Fraction(0), Fraction(1), Fraction(7, 3)]
    want = DenseMatrix.from_rows(orc.diff_matrix_by_values(orc.lagrange_polys(ts), ts))
    assert diff_matrix_hermite(NodeSet(ts)) == want


def test_constant_annihilation():
    rng = random.Random(37)
    for _ in range(3):
        ns = random_confluent_nodes(rng)
        out = mat_apply(diff_matrix_hermite(ns), constant_data(ns))
        assert all(c == 0 for c in out)


def test_matrix_maps_data_of_p_to_data_of_p_prime():
    rng = random.Random(41)
    for _ in range(3):
        ns = random_confluent_nodes(rng, max_dim=8)
        D = diff_matrix_hermite(ns)
        p = [Fraction(rng.randint(-5, 5)) for _ in range(ns.dimension)]
        got = mat_apply(D, layout_data(p, ns))
        assert list(got) == layout_data(orc.poly_deriv(p), ns)


def test_matrix_equals_data_functional_oracle():
    ns = NodeSet([Fraction(0), Fraction(1, 2), Fraction(-1)], [2, 2, 1])
    cards = orc.hermite_polys(ns.nodes, ns.confluencies)
    want = DenseMatrix.from_rows(
        orc.diff_matrix_by_data(cards, ns.nodes, ns.confluencies))
    assert diff_matrix_hermite(ns) == want


def test_matrix_equals_conjugation_oracle():
    rng = random.Random(43)
    for _ in range(2):
        ns = random_confluent_nodes(rng, max_dim=7)
        assert diff_matrix_hermite(ns) == conjugation_oracle(HermiteBasis(ns))


def test_nilpotency_index_is_dimension():
    ns = NodeSet([Fraction(0), Fraction(1, 3), Fraction(-2)], [2, 3, 1])
    assert nilpotency_index(diff_matrix_hermite(ns)) == 6


# ---------------------------------------------------------------- forward error

def _dyadic_node_sets(rng):
    """(nodes k/128 in [-2, 2], confluencies 1-3, evenly spaced by a power of two): 1 to 12 nodes
    drawn at random, then 1 to 3 nodes a, a + h, a + 2h with h = 2^e, e from -7 to 0."""
    for n in range(1, 13):
        for _ in range(4):
            yield [k / 128 for k in rng.sample(range(-256, 257), n)], [rng.randint(1, 3) for _ in range(n)], False
    for n in (1, 2, 3):
        for _ in range(8):
            step = 2 ** rng.randint(0, 7)   # 128 h
            a = rng.randint(-256, 256 - (n - 1) * step)
            yield [(a + k * step) / 128 for k in range(n)], [rng.randint(1, 3) for _ in range(n)], True


# the worst relative row error over the test's random node sets (seed 29), in units of u = 2^-53
_MEASURED_WORST = {"hermite": 27.2, "lagrange": 3.9}


def test_float_hermite_and_lagrange_forward_error_over_integers():
    """Float D against the rational constructor on the same dyadic nodes, row by row.

    Random node sets are held to ten times the worst error measured on them (``_MEASURED_WORST``;
    over seeds 0-199 of the same draws the worst read 45.7 u for Hermite and 7.5 u for Lagrange).
    On evenly spaced nodes with h = 2^e every difference is +-h or +-2h, so every quantity the
    float construction forms is a small integer times a power of h, no operation rounds and the
    bound is 0.  A scan of 7998 such sets (a = k/128 for every 37th k, e from -7 to 0, every
    confluency pattern) found no error; the exact rows' denominators are powers of two.
    """
    spaced = 0
    for nodes, conf, even in _dyadic_node_sets(random.Random(29)):
        exact = [Fraction(t) for t in nodes]
        for kind, D, E in (
                ("hermite", diff_matrix_hermite(NodeSet(nodes, conf)), diff_matrix_hermite(NodeSet(exact, conf))),
                ("lagrange", diff_matrix_lagrange(nodes), diff_matrix_lagrange(exact))):
            errors = orc.row_forward_errors([D.row(r) for r in range(D.rows)], E._int_rows())
            if even:
                assert all(den & (den - 1) == 0 for den, _ in E._int_rows())
            bound = 0 if even else 10 * _MEASURED_WORST[kind] / 2 ** 53
            assert max(errors) <= bound, (kind, nodes, conf, max(errors) * 2 ** 53)
        spaced += even
    assert spaced == 24


# ---------------------------------------------------------------- integer kernel

def _typed(entries):
    return [(type(x), repr(x)) for x in entries]


def _seeded_node_sets(rng):
    """360 node sets of 1 to 6 rationals with confluencies 1 to 4, then
    the named cases: 41 and 14 equispaced nodes, integer nodes, large
    and negative denominators, and a single node."""
    for _ in range(360):
        ts, count = [], rng.randint(1, 6)
        while len(ts) < count:
            q = Fraction(rng.randint(-20, 20), rng.choice([-1, 1]) * rng.randint(1, 9))
            if q not in ts:
                ts.append(q)
        yield NodeSet(ts, [rng.randint(1, 4) for _ in ts])
    yield NodeSet([Fraction(k - 20, 20) for k in range(41)])
    yield NodeSet([Fraction(k - 20, 20) for k in range(14)], [3] * 14)
    yield NodeSet([3, -2, 7, 11], [2, 1, 3, 1])
    yield NodeSet([3, -2, 7, 11, 0])
    yield NodeSet([Fraction(10**15 + 7, -10**13 - 3), Fraction(3, 10**14 + 1), Fraction(-5, 7)],
                  [2, 3, 1])
    yield NodeSet([Fraction(2, 3)], [4])
    yield NodeSet([Fraction(-2, 3)])


def test_integer_kernel_equals_the_fraction_weights_and_rows():
    sets = list(_seeded_node_sets(random.Random(12)))
    assert {s for ns in sets for s in ns.confluencies} == {1, 2, 3, 4}
    for ns in sets:
        want = orc.gen_bary_weights_by_fractions(ns.nodes, ns.confluencies)
        assert [_typed(row) for row in gen_bary_weights(ns).weights] == [_typed(row) for row in want]
        want = orc.diff_matrix_hermite_by_fractions(ns.nodes, ns.confluencies)
        assert _typed(diff_matrix_hermite(ns).entries) == _typed(x for row in want for x in row)


# ---------------------------------------------------------------- node order

def _mixed_node_sets(rng, count):
    """Rational, real and complex node sets of 1 to 7 nodes at mixed confluencies 1 to 4."""
    for k in range(count):
        kind, ts = k % 3, []
        while len(ts) < rng.randint(1, 7):
            t = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
            t = (t, float(t) + rng.uniform(-0.01, 0.01), complex(t, rng.choice([0.0, -0.0, 0.5])))[kind]
            if t not in ts:
                ts.append(t)
        yield NodeSet(ts, [rng.randint(1, 4) for _ in ts])


MIXED_NODE_SETS = list(_mixed_node_sets(random.Random(47), 700))


def test_local_series_in_node_order_equals_the_falling_confluency_order():
    assert {ns.field.value for ns in MIXED_NODE_SETS} == {"rational", "real", "complex"}
    assert sum(len(set(ns.confluencies)) > 1 for ns in MIXED_NODE_SETS) > 400
    for ns in MIXED_NODE_SETS:
        for extra in (0, 1):
            L, ts, got = hermite._local_series(ns, extra)
            want_L, want_ts, want = orc.local_series_by_rank(ns, extra)
            assert (L, _typed(ts)) == (want_L, _typed(want_ts))
            assert [_typed(g) for g in got] == [_typed(g) for g in want]


def test_weights_and_matrix_equal_those_of_the_falling_confluency_order(monkeypatch):
    sets = MIXED_NODE_SETS[:150]
    got = [(gen_bary_weights(ns).weights, diff_matrix_hermite(ns).entries) for ns in sets]
    monkeypatch.setattr(hermite, "_local_series", orc.local_series_by_rank)
    for ns, (weights, entries) in zip(sets, got):
        assert [_typed(row) for row in weights] == [_typed(row) for row in gen_bary_weights(ns).weights]
        assert _typed(entries) == _typed(diff_matrix_hermite(ns).entries)
