"""Evaluation over a list of points against the former one-point loops.

The list kernels run node-major over all points at once but must do, for
each point, the float operations of the one-point code in
``_oracles.py``, in the same order; so results are compared by ``repr``,
which tells apart every float, ``-0.0`` from ``0.0`` and a float from a
Fraction.
"""

import cmath
import random
from fractions import Fraction

import pytest

from polydiff.core import NodeSet
from polydiff.experiments import (
    GRID_POINTS,
    chebyshev_points,
    equispaced_points,
    run_experiment,
)
from polydiff.hermite import (
    _first_form,
    _node_products,
    constant_data,
    gen_bary_weights,
    hermite_eval,
    node_polynomial_value,
)
from polydiff.lagrange import _second_form, eval_second_form

import _oracles as orc


def _float_case(rng, s):
    ns = NodeSet([-1.0, -0.5, 0.0, 0.5, 1.0], [s] * 5)
    zs = [rng.uniform(-1.2, 1.2) for _ in range(20)]
    # node hits: -0.0 hits 0.0, a Fraction hits the float 0.5, and a node itself
    return ns, zs + [-0.0, 0.0, Fraction(1, 2), 1.0, Fraction(1, 3)], lambda: rng.uniform(-2, 2)


def _complex_case(rng, s):
    ns = NodeSet([cmath.exp(2j * cmath.pi * k / 5) for k in range(5)] + [0.25 + 0.5j], [s] * 6)
    zs = [complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)) for _ in range(20)]
    return ns, zs + [ns.nodes[5], ns.nodes[0]], lambda: complex(rng.uniform(-2, 2), rng.uniform(-2, 2))


def _rational_case(rng, s):
    ns = NodeSet([Fraction(-3), Fraction(-1, 2), Fraction(1, 3), Fraction(2)], [s] * 4)
    zs = [Fraction(rng.randint(-40, 40), rng.randint(1, 7)) for _ in range(12)]
    zs = [z for z in zs if z not in ns.nodes] + [2, Fraction(-1, 2), 0.0]
    return ns, zs, lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 5))


CASES = {"float": _float_case, "complex": _complex_case, "rational": _rational_case}


@pytest.mark.parametrize("s", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", sorted(CASES))
def test_list_kernels_equal_the_one_point_loops(kind, s):
    rng = random.Random(f"{kind}{s}")
    ns, zs, draw = CASES[kind](rng, s)
    w = gen_bary_weights(ns)
    # every derivative slot carries data, so every Horner step is exercised
    data = [draw() for _ in range(ns.dimension)]
    want = [repr(orc.first_form_at(w, data, z)) for z in zs]
    assert [repr(v) for v in _first_form(w, data, zs)] == want
    assert [repr(v) for v in _first_form(w, iter(data), (z for z in zs))] == want
    assert [repr(hermite_eval(w, data, z)) for z in zs] == want
    off = [z for z in zs if z not in ns.nodes]
    assert [repr(v) for v in _node_products(ns, off)] == \
        [repr(orc.node_polynomial_at(ns, z)) for z in off]
    assert [repr(node_polynomial_value(ns, z)) for z in off] == \
        [repr(orc.node_polynomial_at(ns, z)) for z in off]
    if s == 1:
        want = [repr(orc.second_form_at(w, data, z)) for z in zs]
        assert [repr(v) for v in _second_form(w, data, (z for z in zs))] == want
        assert [repr(eval_second_form(w, data, z)) for z in zs] == want


def test_node_hits_return_the_stored_value_of_that_node():
    ns = NodeSet([-1.0, 0.0, 0.5], [2, 1, 3])
    w = gen_bary_weights(ns)
    data = [float(k + 1) for k in range(ns.dimension)]
    assert _first_form(w, data, [-0.0, Fraction(1, 2), -1, 0.25]) == \
        [3.0, 4.0, 1.0, orc.first_form_at(w, data, 0.25)]
    simple = gen_bary_weights(NodeSet([-1.0, 0.0, 0.5]))
    assert _second_form(simple, [7.0, 8.0, 9.0], [-0.0, Fraction(1, 2)]) == [8.0, 9.0]


def test_empty_lists_and_bad_counts():
    w = gen_bary_weights(NodeSet([-1.0, 0.0, 1.0], [2, 1, 1]))
    assert _first_form(w, constant_data(w.nodes), []) == []
    assert _first_form(w, constant_data(w.nodes), iter(())) == []
    assert _node_products(w.nodes, []) == []
    with pytest.raises(ValueError, match="expected 4 data entries, got 3"):
        _first_form(w, [1.0, 2.0, 3.0], [0.5])
    with pytest.raises(ValueError, match="expected 4 data entries, got 3"):
        _first_form(w, [1.0, 2.0, 3.0], [])
    simple = gen_bary_weights(NodeSet([-1.0, 1.0]))
    with pytest.raises(ValueError, match="expected 2 data entries, got 1"):
        _second_form(simple, [1.0], [0.5])


GRID = [-1.0 + 2.0 * t / (GRID_POINTS - 1) for t in range(GRID_POINTS)]


@pytest.mark.parametrize("which, n, s", [("hermite-error", n, s) for n in (3, 13, 55) for s in (1, 3)]
                         + [("lagrange-error", 165, 1)])
@pytest.mark.parametrize("family", ["chebyshev", "equispaced"])
def test_experiment_error_equals_the_one_point_loop(which, n, s, family):
    [record] = run_experiment(which, family, s, [n])
    points = chebyshev_points(n) if family == "chebyshev" else equispaced_points(n)
    ns = NodeSet(points, [s] * (n + 1))
    w, data = gen_bary_weights(ns), constant_data(ns)
    want = max(abs(orc.first_form_at(w, data, z) - 1.0) for z in GRID)
    assert repr(record.max_err) == repr(want)
