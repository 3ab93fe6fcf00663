"""Float constructors built in whole-list passes, against their former loops.

``tests/_oracles.py`` keeps the loops that built float matrices one entry
at a time: the Taylor coefficients of g_i one coefficient's history at a
time, the nontrivial Hermite rows entry by entry and the Q recurrence of
degree-graded bases entry by entry.  The package now runs the same
operations in compiled passes: one product loop per node, and the
nontrivial Hermite rows one run of eight column nodes at a time, and the
degree-graded rows row by row; every entry must come out with the same
type and repr, signed zeros included.
"""

import random

import pytest

from polydiff.core import NodeSet
from polydiff.degree_graded import RecurrenceSpec, diff_matrix_degree_graded, newton_diff_matrix
from polydiff.experiments import DEFAULT_SIZES, chebyshev_points, equispaced_points
from polydiff.hermite import diff_matrix_hermite, gen_bary_weights
from polydiff.lagrange import diff_matrix_lagrange

import _oracles as orc


def _typed(entries):
    return [(type(x), repr(x)) for x in entries]


def _flat(rows):
    return [x for row in rows for x in row]


def _distinct(values):
    out = []
    for v in values:
        if v not in out:
            out.append(v)
    return out


def _seeded_node_sets(rng):
    """Real and complex node sets at confluencies 1-4, with signed and zero parts."""
    for _ in range(60):
        count = rng.randint(1, 7)
        if rng.random() < 0.5:
            ts = [rng.uniform(-2, 2) for _ in range(count)]
        else:
            ts = [complex(rng.choice([0.0, -0.0, rng.uniform(-2, 2)]),
                          rng.choice([0.0, -0.0, rng.uniform(-2, 2)])) for _ in range(count)]
        ts = _distinct(ts)
        yield NodeSet(ts, [rng.randint(1, 4) for _ in ts])
    yield NodeSet([-0.0, 0.5, -1.25, 3.0], [1, 2, 3, 4])
    yield NodeSet([-0.0, 1.0, -1.0])
    yield NodeSet([0j, 1j, -1j, 2 + 0j, complex(-0.0, 3.0), complex(-2.0, -0.0)], [2, 1, 3, 1, 4, 2])
    yield NodeSet([1j, -1j, complex(0.0, -0.0), 0.5 + 0.5j])
    yield from SIGNED_ZERO_SETS


# The reference loop seeds each power with c ** 0 * c, which on two pairs of these
# nodes flips the sign of a zero part of c = t_i - t_l; the package starts at c.
# Complex division by c keeps every nonzero part whatever that sign, and ``sum``,
# starting from the int 0, turns each -0.0 part into 0.0, so the entries must
# agree.  Confluency 1 everywhere runs the Lagrange diagonal too.
SIGNED_ZEROS = [complex(-0.0, -1.0), complex(0.0, 1.0), complex(1.0, -0.0), complex(-1.0, 0.0)]
SIGNED_ZERO_SETS = (NodeSet(SIGNED_ZEROS, [1, 2, 3, 1]), NodeSet(SIGNED_ZEROS))


def _node_set_id(ns):
    if any(ns is s for s in SIGNED_ZERO_SETS):
        return f"signed-zeros-{ns.dimension}"
    return f"{ns.field.value}-{len(ns)}-{ns.dimension}"


def _experiment_node_sets():
    for points in (chebyshev_points, equispaced_points):
        for n in DEFAULT_SIZES + (89, 144, 165):
            yield NodeSet(points(n))
        for n in DEFAULT_SIZES:
            yield NodeSet(points(n), [3] * (n + 1))


def _long_node_sets(rng):
    """Real and complex sets of 9 to 20 nodes, past one run of eight column nodes: mixed
    confluencies 1-4, and every third set simple for the Lagrange diagonal."""
    for k in range(24):
        count, ts = rng.randint(9, 20), []
        while len(ts) < count:
            t = rng.uniform(-2, 2) if k % 2 else complex(rng.choice([0.0, -0.0, rng.uniform(-2, 2)]),
                                                         rng.choice([0.0, -0.0, rng.uniform(-2, 2)]))
            ts = _distinct(ts + [t])
        yield NodeSet(ts, [1] * count if k % 3 == 0 else [rng.randint(1, 4) for _ in ts])


# A node of confluency past eight forms its entries in loops, not one expression each.
# At [0, 1] every entry of the loops is a sum of integers; the other two sets round.
HIGH_CONFLUENCY_SETS = (NodeSet([0.0, 1.0], [300, 1]), NodeSet([complex(-0.0, 0.0), complex(1.0, -0.0)], [300, 1]),
                        NodeSet([0.3, -1.1, 0.45], [12, 2, 9]),
                        NodeSet([0.5j, complex(-0.7, -0.0), 1.25 + 0.5j], [10, 3, 9]))

NODE_SETS = (list(_seeded_node_sets(random.Random(13))) + list(_long_node_sets(random.Random(19)))
             + list(HIGH_CONFLUENCY_SETS) + list(_experiment_node_sets()))


def test_the_node_sets_cover_what_the_passes_must_keep():
    assert {s for ns in NODE_SETS for s in ns.confluencies} == {1, 2, 3, 4, 9, 10, 12, 300}
    assert {ns.field.value for ns in NODE_SETS} == {"real", "complex"}
    assert max(len(ns) for ns in NODE_SETS) == 166
    long_mixed = [ns for ns in NODE_SETS if 8 < len(ns) <= 20 and len(set(ns.confluencies)) > 1]
    assert {ns.field.value for ns in long_mixed} == {"real", "complex"}
    long_simple = [ns for ns in NODE_SETS if 8 < len(ns) <= 20 and ns.is_simple]
    assert {ns.field.value for ns in long_simple} == {"real", "complex"}


@pytest.mark.parametrize("ns", NODE_SETS, ids=_node_set_id)
def test_hermite_weights_and_rows_equal_the_entry_loops(ns):
    want = orc.gen_bary_weights_by_series(ns)
    assert [_typed(row) for row in gen_bary_weights(ns).weights] == [_typed(row) for row in want]
    want = orc.diff_matrix_hermite_by_entries(ns)
    assert _typed(diff_matrix_hermite(ns).entries) == _typed(_flat(want))
    if ns.is_simple:
        want = orc.diff_matrix_lagrange_by_entries(ns)
        assert _typed(diff_matrix_lagrange(ns).entries) == _typed(_flat(want))


def _seeded_recurrences(rng):
    """Real and complex recurrences whose beta and gamma hold +0.0 and -0.0."""
    def part():
        return rng.choice([0.0, -0.0, rng.uniform(-3, 3)])

    for _ in range(40):
        n = rng.randint(1, 12)
        alpha = [rng.choice([-1, 1]) * rng.uniform(0.25, 3) for _ in range(n)]
        beta = [part() for _ in range(n)]
        gamma = [part() for _ in range(n)]
        if rng.random() < 0.5:
            alpha = [complex(a, part()) for a in alpha]
            beta = [complex(b, part()) for b in beta]
            gamma = [complex(g, part()) for g in gamma]
        yield RecurrenceSpec(alpha, beta, gamma), n
    yield RecurrenceSpec([2.0]), 1
    yield RecurrenceSpec([1.0] * 5, [-0.0] * 5, [0.0, -0.0, 0.0, -0.0, 0.0]), 5


def test_degree_graded_float_rows_equal_the_entry_loop():
    cases = list(_seeded_recurrences(random.Random(17)))
    assert {rec.field.value for rec, _ in cases} == {"real", "complex"}
    for rec, n in cases:
        want = orc.degree_graded_by_fractions(rec.alpha, rec.beta, rec.gamma, n)
        assert _typed(diff_matrix_degree_graded(rec, n).entries) == _typed(_flat(want))


@pytest.mark.parametrize("centers", [chebyshev_points(165), equispaced_points(89),
                                     [complex(t, -0.0) for t in chebyshev_points(34)],
                                     [0.5, -0.0, 0.5, 0.0, -1.0]], ids=["cheb165", "equi89", "complex", "repeated"])
def test_newton_float_rows_equal_the_entry_loop(centers):
    n = len(centers) - 1
    one, zero = type(centers[0])(1), type(centers[0])(0)
    want = orc.degree_graded_by_fractions([one] * n, centers[:n], [zero] * n, n)
    assert _typed(newton_diff_matrix(centers).entries) == _typed(_flat(want))
