"""The list evaluators against the former one-point loops.

The public evaluators take a list of points and run node-major over all
of them at once, but must do, for each point, the float operations of
the one-point code in ``_oracles.py``, in the same order; so results are
compared by ``repr``, which tells apart every float, ``-0.0`` from
``0.0`` and a float from a Fraction.
"""

import cmath
import hashlib
import importlib
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from polydiff import cli, hermite, verify
from polydiff.core import NodeSet
from polydiff.experiments import (
    GRID_POINTS,
    _grid,
    chebyshev_points,
    equispaced_points,
    run_experiment,
)
from polydiff.hermite import (
    GenBaryWeights,
    constant_data,
    gen_bary_weights,
    hermite_eval,
)
from polydiff.lagrange import eval_first_form, eval_second_form

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


def _mixed_case(kind):
    """19 nodes whose confluencies cycle through 1, 3, 2, 4 from the s-th entry on: two full
    compiled passes of eight nodes and a short one of three, each under its own key."""
    def case(rng, s):
        confs = [(1, 3, 2, 4)[(k + s - 1) % 4] for k in range(19)]
        if kind == "float":
            ns = NodeSet([-1 + k / 9 for k in range(19)], confs)
            zs = [rng.uniform(-1.1, 1.1) for _ in range(20)] + [-0.0, 1.0, Fraction(-1)]
            return ns, zs, lambda: rng.uniform(-2, 2)
        if kind == "complex":
            ns = NodeSet([(1 + k % 3 / 4) * cmath.exp(2j * cmath.pi * k / 19) for k in range(19)], confs)
            zs = [complex(rng.uniform(-1.6, 1.6), rng.uniform(-1.6, 1.6)) for _ in range(20)]
            return ns, zs + [ns.nodes[18], ns.nodes[7]], lambda: complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        ns = NodeSet([Fraction(k - 9, 4) for k in range(19)], confs)
        zs = [Fraction(rng.randint(-40, 40), rng.randint(1, 7)) for _ in range(12)]
        zs = [z for z in zs if z not in ns.nodes] + [2, Fraction(-9, 4), 0.1]
        return ns, zs, lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return case


def _experiment_case(family, n, data_kind):
    """The experiments' own nodes and 1001-point grid, which holds the end nodes -1.0 and 1.0."""
    def case(rng, s):
        points = chebyshev_points(n) if family == "chebyshev" else equispaced_points(n)
        ns = NodeSet(points, [s] * (n + 1))
        draw = iter(constant_data(ns)).__next__ if data_kind == "constant" else lambda: rng.uniform(-2, 2)
        return ns, _grid(), draw
    return case


# the experiments' sizes: n=55 at s = 1, 2, 3 on both families, Chebyshev n=165 at s = 1
SIZES = {f"{family}-{n}-{data}": _experiment_case(family, n, data)
         for family, n in (("chebyshev", 55), ("equispaced", 55), ("chebyshev", 165))
         for data in ("constant", "random")}
MIXED = {f"mixed-{kind}": _mixed_case(kind) for kind in ("complex", "float", "rational")}
CASES = {"float": _float_case, "complex": _complex_case, "rational": _rational_case, **MIXED, **SIZES}


@pytest.mark.parametrize("kind, s", [(kind, s) for s in (1, 2, 3, 4) for kind in ("complex", "float", "rational")]
                         + [(kind, s) for kind in sorted(MIXED) for s in (1, 2, 3, 4)]
                         + [(kind, s) for kind in sorted(SIZES) for s in ((1,) if "165" in kind else (1, 2, 3))])
def test_list_kernels_equal_the_one_point_loops(kind, s):
    rng = random.Random(f"{kind}{s}")
    ns, zs, draw = CASES[kind](rng, s)
    w = gen_bary_weights(ns)
    # every derivative slot carries data, so every Horner step is exercised
    data = [draw() for _ in range(ns.dimension)]
    want = [repr(orc.first_form_at(w, data, z)) for z in zs]
    assert [repr(v) for v in hermite_eval(w, data, zs)] == want
    assert [repr(v) for v in hermite_eval(w, iter(data), (z for z in zs))] == want
    assert [repr(v) for z in zs for v in hermite_eval(w, data, [z])] == want
    if ns.is_simple:
        assert [repr(v) for v in eval_first_form(w, iter(data), (z for z in zs))] == want
        want = [repr(orc.second_form_at(w, data, z)) for z in zs]
        assert [repr(v) for v in eval_second_form(w, iter(data), (z for z in zs))] == want
        assert [repr(v) for z in zs for v in eval_second_form(w, data, [z])] == want


def test_node_hits_return_the_stored_value_of_that_node():
    ns = NodeSet([-1.0, 0.0, 0.5], [2, 1, 3])
    w = gen_bary_weights(ns)
    data = [float(k + 1) for k in range(ns.dimension)]
    assert hermite_eval(w, data, [-0.0, Fraction(1, 2), -1, 0.25]) == \
        [3.0, 4.0, 1.0, orc.first_form_at(w, data, 0.25)]
    simple = gen_bary_weights(NodeSet([-1.0, 0.0, 0.5]))
    assert eval_second_form(simple, [7.0, 8.0, 9.0], [-0.0, Fraction(1, 2)]) == [8.0, 9.0]


def test_a_confluency_in_the_thousands_compiles():
    # weights of size about 1, set by hand: the weight series alone takes seconds at s = 3000.
    # One expression per point nests too deep for the compiler here; the statements do not.
    rng = random.Random(3000)
    ns = NodeSet([0.0, 1.0], [3000, 1])
    w = GenBaryWeights(ns, (tuple(rng.uniform(0.5, 2) for _ in range(3000)), (1.0,)))
    data = [rng.uniform(-1, 1) for _ in range(ns.dimension)]
    zs = [-1.0, 1j]   # |z - 0.0| = 1, so w(z) and the Horner steps stay in range
    want = [repr(orc.first_form_at(w, data, z)) for z in zs]
    assert all(cmath.isfinite(orc.first_form_at(w, data, z)) for z in zs)
    assert [repr(v) for v in hermite_eval(w, data, zs)] == want


def test_the_compiled_passes_are_keyed_by_the_confluencies_alone():
    confs = [2, 1, 3, 1, 1, 2, 1, 1, 3, 1, 2]   # a run of eight nodes and one of three
    first, second = NodeSet([k / 11 for k in range(11)], confs), NodeSet([k - 5.5 for k in range(11)], confs)
    hermite.diff_matrix_hermite(first)
    hermite_eval(gen_bary_weights(first), constant_data(first), [0.55, 2.0])
    passes = (hermite._chunk_pass, hermite._series_pass, hermite._row_pass)
    before = [f.cache_info() for f in passes]
    D = hermite.diff_matrix_hermite(second)
    w, data = gen_bary_weights(second), constant_data(second)
    assert [repr(v) for v in hermite_eval(w, data, [0.3, -9.0])] == \
        [repr(orc.first_form_at(w, data, z)) for z in (0.3, -9.0)]
    assert [repr(x) for x in D.entries] == [repr(x) for row in orc.diff_matrix_hermite_by_entries(second)
                                            for x in row]
    after = [f.cache_info() for f in passes]
    # two runs to evaluate, one series per node for D and one for w, two runs of rows
    assert [(a.hits - b.hits, a.misses - b.misses) for a, b in zip(after, before)] == [(2, 0), (22, 0), (2, 0)]


# (nodes, a point of another type whose difference from nodes[1] is 0.0, an off-node point)
ROUNDING_HITS = {
    "fraction-on-float": ([0.0, 1 / 3, 1.0], Fraction(1, 3), Fraction(1, 2)),
    "int-on-float": ([0.0, 2.0 ** 53, 2.0 ** 54], 2 ** 53 + 1, 3),
    "float-on-fraction": ([Fraction(0), Fraction(1, 3), Fraction(1)], 1 / 3, 0.5),
}


@pytest.mark.parametrize("case", sorted(ROUNDING_HITS))
def test_a_point_that_rounds_onto_a_node_hits_it(case):
    nodes, z, other = ROUNDING_HITS[case]
    assert z != nodes[1] and z - nodes[1] == 0
    for s in (1, 2):
        w = gen_bary_weights(NodeSet(nodes, [s] * 3))
        data = [float(k + 1) for k in range(w.nodes.dimension)]
        want = [data[s], orc.first_form_at(w, data, other)]
        assert hermite_eval(w, data, [z, other]) == want
    w, values = gen_bary_weights(NodeSet(nodes)), [7.0, 8.0, 9.0]
    assert eval_first_form(w, values, [z, other]) == [8.0, orc.first_form_at(w, values, other)]
    assert eval_second_form(w, values, [z, other]) == [8.0, orc.second_form_at(w, values, other)]


# (n equispaced nodes on [-1, 1], confluency, a point at which the former first form is
# not finite next to the node 0.0), for the constant's data
NEAR_NODE_BREAKDOWNS = [(20, 2, 1e-148), (20, 3, 1e-96), (54, 3, 1e-82), (54, 1, 1e-288)]


@pytest.mark.parametrize("n,s,start", NEAR_NODE_BREAKDOWNS)
def test_a_point_next_to_a_node_gets_its_taylor_polynomial(n, s, start):
    ns = NodeSet(equispaced_points(n), [s] * (n + 1))
    w, data = gen_bary_weights(ns), constant_data(ns)
    assert not cmath.isfinite(orc.first_form_at(w, data, start))
    # from 2**40 times start down to the smallest subnormal, both signs, between grid points
    zs = [sign * start * 2.0 ** k for k in range(40, -1100, -1) for sign in (1, -1)]
    zs = [0.3] + [z for z in zs if z != 0] + [-0.7]
    want = [orc.first_form_at(w, data, z) for z in zs]
    assert 50 < sum(map(cmath.isfinite, want)) < len(zs) - 50
    # where the former value is not finite the constant's Taylor polynomial at 0.0, 1.0,
    # stands in; every other value is the former one
    want = [repr(v if cmath.isfinite(v) else 1.0) for v in want]
    assert [repr(v) for v in hermite_eval(w, data, zs)] == want
    # one point at a time too: some grids of one point overflow to inf alone, with no nan
    assert [repr(v) for z in zs for v in hermite_eval(w, data, [z])] == want
    # next to the node every value is near 1: the former finite ones 1.6e-8 off at n = 54, s = 3
    assert all(abs(float(v) - 1) < 1e-7 for v in want[1:-1])


def test_only_the_points_that_are_not_finite_are_redone_next_to_a_node(monkeypatch):
    ns = NodeSet(equispaced_points(54), [3] * 55)
    w, data = gen_bary_weights(ns), constant_data(ns)
    grid = [z for z in _grid() if z not in ns.nodes]
    assert len(grid) == 998
    assert not cmath.isfinite(orc.first_form_at(w, data, 1e-90))
    zs = grid[:500] + [1e-90] + grid[500:]
    calls, near_node = [], hermite._near_node

    def counting(*args):
        calls.append(args[2])
        return near_node(*args)

    monkeypatch.setattr(hermite, "_near_node", counting)
    got = hermite_eval(w, data, zs)
    assert calls == [1e-90] and got[500] == 1.0
    assert [repr(v) for v in got[:500] + got[501:]] == \
        [repr(v) for v in hermite_eval(w, data, grid)] == \
        [repr(orc.first_form_at(w, data, z)) for z in grid]
    assert calls == [1e-90]   # the grid alone redoes no point


def test_the_taylor_polynomial_carries_every_derivative_slot():
    ns = NodeSet(equispaced_points(20), [3] * 21)
    w, rng = gen_bary_weights(ns), random.Random(7)
    data = [rng.uniform(-2, 2) for _ in range(ns.dimension)]
    o = ns.offsets[10]   # the node 0.0
    for z in (1e-120, -3e-200, 1e-150):
        assert not cmath.isfinite(orc.first_form_at(w, data, z))
        assert hermite_eval(w, data, [z]) == [(data[o + 2] * z + data[o + 1]) * z + data[o]]
    # complex nodes and points
    cs = NodeSet([0j, 0.5 + 0.5j, 1 + 0j], [2, 1, 1])
    cw, cd = gen_bary_weights(cs), [1 + 1j, 2 - 1j, 3 + 0j, 4 + 0j]
    for z in (5e-324 + 0j, complex(1e-200, 1e-200), complex(-1e-300, 0)):
        assert not cmath.isfinite(orc.first_form_at(cw, cd, z))
        assert hermite_eval(cw, cd, [z]) == [cd[1] * z + cd[0]]


def test_the_second_form_next_to_a_node():
    ns = NodeSet(equispaced_points(54))
    w, data = gen_bary_weights(ns), constant_data(ns)
    assert not cmath.isfinite(orc.second_form_at(w, data, 1e-300))
    assert eval_second_form(w, data, [1e-300, 0.3]) == [1.0, orc.second_form_at(w, data, 0.3)]
    w, values = gen_bary_weights(NodeSet([0.0, 0.5, 1.0])), [1.0, 2.0, 3.0]
    for form, at in ((eval_first_form, orc.first_form_at), (eval_second_form, orc.second_form_at)):
        assert not cmath.isfinite(at(w, values, 5e-324))
        assert form(w, values, [5e-324, 1e-300]) == [1.0, at(w, values, 1e-300)]


def test_both_forms_far_from_the_nodes():
    # far out each 1/(z - t) is 0.0 (at inf) or the pole sums cancel to 0.0 (from 1e160):
    # the second form gives nan there, as the first does, as a grid and point by point
    far = [float("inf"), -float("inf"), 1e160, 1e200, 1e300]
    w, values = gen_bary_weights(NodeSet([0.0, 0.5, 1.0])), [1.0, 2.0, 3.0]
    for zs in [[z] for z in far] + [far + [2.0]]:
        want = [math.nan if z in far else orc.second_form_at(w, values, z) for z in zs]
        assert [repr(v) for v in eval_second_form(w, values, zs)] == [repr(v) for v in want]
        assert [repr(v) for v in eval_first_form(w, values, zs)] == \
            [repr(orc.first_form_at(w, values, z)) for z in zs]
    # the first form gives nan too, though p(z) = 2z + 1 is finite at 1e160: w(z) is inf there
    assert [repr(v) for v in eval_first_form(w, values, far)] == ["nan"] * len(far)
    cw = gen_bary_weights(NodeSet([0j, 0.5 + 0j, 1 + 0j]))
    got = eval_second_form(cw, [1 + 0j, 2 + 0j, 3 + 0j], far)
    assert [(type(v), repr(v)) for v in got] == [(complex, "(nan+nanj)")] * len(far)


def test_non_finite_values_that_no_node_explains_stay():
    # a genuine overflow: w(z) times the pole sum passes the float range ten units from the nodes
    w = gen_bary_weights(NodeSet([0.0, 1.0]))
    assert hermite_eval(w, [0.0, 1e308], [10.0]) == [float("inf")]
    # data that are not finite, points that are not, and a far complex point stay as computed
    w = gen_bary_weights(NodeSet([0.0, 0.5, 1.0]))
    inf, nan = float("inf"), float("nan")
    for data, zs in (([1.0, inf, 3.0], [5e-324, 0.25]), ([1.0, 2.0, 3.0], [nan, inf, -inf])):
        assert [repr(v) for v in hermite_eval(w, data, zs)] == \
            [repr(orc.first_form_at(w, data, z)) for z in zs]
    # exact values past the float range are finite: the float check of the grid cannot take
    # them, so they are taken one point at a time, unchanged
    w = gen_bary_weights(NodeSet([0, 1]))
    assert hermite_eval(w, [0, 10**400], [Fraction(1, 2), 3]) == [Fraction(10**400, 2), 3 * 10**400]
    cw = gen_bary_weights(NodeSet([0j, 0.5 + 0.5j, 1 + 0j]))
    far = [complex(1.7e308, 1.7e308), complex(nan, 0)]
    assert [repr(v) for v in hermite_eval(cw, [1j, 2j, 3j], far)] == \
        [repr(orc.first_form_at(cw, [1j, 2j, 3j], z)) for z in far]


def test_empty_lists_and_bad_counts():
    w = gen_bary_weights(NodeSet([-1.0, 0.0, 1.0], [2, 1, 1]))
    assert hermite_eval(w, constant_data(w.nodes), []) == []
    assert hermite_eval(w, constant_data(w.nodes), iter(())) == []
    with pytest.raises(ValueError, match="expected 4 data entries, got 3"):
        hermite_eval(w, [1.0, 2.0, 3.0], [0.5])
    with pytest.raises(ValueError, match="expected 4 data entries, got 3"):
        hermite_eval(w, [1.0, 2.0, 3.0], [])
    simple = gen_bary_weights(NodeSet([-1.0, 1.0]))
    for form in (eval_first_form, eval_second_form):
        assert form(simple, [1.0, 2.0], []) == []
        assert form(simple, iter([1.0, 2.0]), iter(())) == []
        with pytest.raises(ValueError, match="expected 2 data entries, got 1"):
            form(simple, [1.0], [0.5])
        with pytest.raises(ValueError, match="expected 2 data entries, got 3"):
            form(simple, [1.0, 2.0, 3.0], [])


def test_lagrange_forms_need_simple_nodes():
    w = gen_bary_weights(NodeSet([-1.0, 0.0, 1.0], [2, 1, 1]))
    for form in (eval_first_form, eval_second_form):
        with pytest.raises(ValueError, match="need simple nodes"):
            form(w, [1.0, 2.0, 3.0, 4.0], [0.5])


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


# sha256 of each experiment's CSV on stdout at its default sizes and confluency
EXPERIMENT_CSVS = {
    ("hermite-norms", "chebyshev"): "06609e673b9e00ae5d5280669face0aa6b2d40406ef412413d6142626cca9eee",
    ("hermite-norms", "equispaced"): "5594b444abd2bae1d73f11cedb95576262600c310cb05c6101c4c216275f61b4",
    ("hermite-error", "chebyshev"): "a144baee7c0d4940edadf945ea016306df41c55b537296a1c91f91cab7c58097",
    ("hermite-error", "equispaced"): "1da5fc5fd822141b2208efac1cad9a76271d863607ac9fbec6ab5f215608a242",
    ("lagrange-error", "chebyshev"): "1e0039598b9695063ea4b57c05bd4b9f46f6229c1eb7805159b3a2f0c88e40b3",
    ("lagrange-error", "equispaced"): "994a27814fd924337912b4426baca75c5640f959e1ab36039e25b5dc2dfbbdf2",
}


@pytest.mark.parametrize("which, family", sorted(EXPERIMENT_CSVS))
def test_experiment_csvs_are_pinned(which, family, capsys):
    assert cli.main(["experiment", "--which", which, "--nodes", family]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == EXPERIMENT_CSVS[which, family]


def test_the_benchmark_tracer_sees_evaluation(monkeypatch):
    # the benchmark's own loader purges sys.modules, so import the modules here
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    workloads = importlib.import_module("workloads")
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    try:
        tracer.install({name: importlib.import_module(f"polydiff.{name}")
                        for name in workloads.MODULE_NAMES})
        run_experiment("hermite-error", "chebyshev", 3, [5])
        assert tracer.calls["hermite.hermite_eval"] == 1
        assert all(r.ok for r in verify.run_checks("lagrange"))
        assert tracer.calls["lagrange.eval_first_form"] >= 1
    finally:
        tracer.uninstall()
