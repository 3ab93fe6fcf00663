"""Field promotion rules, dense matrices, matrix-vector products, and node sets."""

import math
import random
import re
from fractions import Fraction

import pytest

from polydiff import core
from polydiff import degree_graded as dg
from polydiff import lagrange as lagrange_module
from polydiff.core import (
    BernsteinBasis,
    DegreeGradedBasis,
    DenseMatrix,
    Field,
    FieldError,
    HermiteBasis,
    LagrangeBasis,
    NodeSet,
    as_node_set,
    coerce_scalar,
    field_of,
    join_fields,
    mat_apply,
    mat_inf_norm,
    mat_power,
    vec_inf_norm,
    zero_of,
)
from polydiff.bernstein import diff_matrix_bernstein
from polydiff.degree_graded import RecurrenceSpec, monomial_recurrence, newton_recurrence
from polydiff.families import FAMILIES
from polydiff.hermite import gen_bary_weights
from polydiff.structure import nilpotency_index

import _oracles as orc


# ---------------------------------------------------------------- fields

def test_field_of_tags():
    assert field_of(3) is Field.RATIONAL
    assert field_of(True) is Field.RATIONAL  # bool is an int
    assert field_of(Fraction(2, 7)) is Field.RATIONAL
    assert field_of(0.5) is Field.REAL
    assert field_of(1 + 2j) is Field.COMPLEX
    with pytest.raises(TypeError):
        field_of("3/4")


def test_join_fields_is_max_on_the_ladder():
    assert join_fields(Field.RATIONAL, Field.RATIONAL) is Field.RATIONAL
    assert join_fields(Field.RATIONAL, Field.REAL) is Field.REAL
    assert join_fields(Field.REAL, Field.COMPLEX, Field.RATIONAL) is Field.COMPLEX


def test_coerce_scalar_promotes_one_way():
    assert coerce_scalar(3, Field.RATIONAL) == Fraction(3)
    assert coerce_scalar(Fraction(1, 2), Field.REAL) == 0.5
    assert coerce_scalar(0.5, Field.COMPLEX) == 0.5 + 0j
    with pytest.raises(FieldError):
        coerce_scalar(0.5, Field.RATIONAL)
    with pytest.raises(FieldError):
        coerce_scalar(1j, Field.REAL)


def test_coerced_values_have_canonical_types():
    assert isinstance(coerce_scalar(3, Field.RATIONAL), Fraction)
    assert isinstance(coerce_scalar(3, Field.REAL), float)
    assert isinstance(coerce_scalar(3, Field.COMPLEX), complex)
    assert zero_of(Field.REAL) == 0.0 and isinstance(zero_of(Field.REAL), float)


# ---------------------------------------------------------------- the field rule
# ``_coerce_all`` is the one rule by which DenseMatrix, NodeSet and RecurrenceSpec
# read their scalars; ``_oracles.coerce_all_by_passes`` keeps the rule as
# DenseMatrix ran it before.  Outcomes are compared by type and repr, errors by
# class and message, so a refused value must still be the first.

class _Real(float):
    """A float subclass: not a plain number type, so it is coerced value by value."""


def _mixed_scalar(rng, finite=False):
    pick = rng.randrange(8 if finite else 10)
    if pick == 0:
        return rng.random() < 0.5
    if pick == 1:
        return rng.randint(-1000, 1000)
    if pick == 2:
        return Fraction(rng.randint(-50, 50), rng.randint(1, 50))
    if pick == 3:
        return rng.choice([0.5, -0.0, 0.0, 1e-300, -2.5e200, rng.uniform(-3, 3)])
    if pick == 4:
        return complex(rng.uniform(-2, 2), rng.choice([0.0, -0.0, 1.5]))
    if pick == 5:
        return _Real(rng.uniform(-1, 1))
    if pick == 6:
        return Fraction(rng.randint(1, 9), 7)
    if pick == 7:
        return rng.uniform(-9, 9)
    if pick == 8:   # past the float range (an int, a Fraction), or not finite
        return rng.choice([10 ** 320, Fraction(-(10 ** 400), 3), float("nan"), -float("inf")])
    return rng.choice(["3/4", None])


def _outcome(make):
    try:
        field, values = make()
    except (TypeError, ValueError, OverflowError) as exc:   # FieldError is a ValueError
        return type(exc), str(exc)
    return field, [(type(x), repr(x)) for x in values]


MIXED = [[_mixed_scalar(rng) for _ in range(rng.randint(0, 7))]
         for rng in [random.Random(41)] for _ in range(500)]


def test_the_mixed_inputs_cover_every_scalar_type_and_outcome():
    types = {type(x) for vals in MIXED for x in vals}
    assert {bool, int, Fraction, float, complex, _Real, str, type(None)} <= types
    outcomes = [_outcome(lambda: orc.coerce_all_by_passes(vals, field))
                for vals in MIXED for field in (None, *Field)]
    assert {o[0] for o in outcomes} >= {TypeError, FieldError, OverflowError, *Field}


@pytest.mark.parametrize("field", [None, *Field], ids=lambda f: f.value if f else "inferred")
def test_one_field_rule_equals_the_former_join_skip_and_passes(field):
    for vals in MIXED:
        want = _outcome(lambda: orc.coerce_all_by_passes(vals, field))
        for given in (vals, tuple(vals), iter(vals)):
            assert _outcome(lambda: core._coerce_all(given, field)) == want
        assert _outcome(lambda: _matrix_read(vals, field)) == want


def _matrix_read(values, field):
    M = DenseMatrix(1, len(values), values, field)
    return M.field, M.entries


def _node_read(nodes):
    ns = NodeSet(nodes)
    return ns.field, ns.nodes


def test_refused_values_are_named_first_come():
    with pytest.raises(TypeError, match=r"not a supported scalar: '3/4'"):
        core._coerce_all([1, 0.5, "3/4", None, 2j])
    with pytest.raises(TypeError, match=r"not a supported scalar: None"):
        NodeSet([0.5, None, "3/4"])
    with pytest.raises(FieldError, match=r"complex value 2j to real"):
        core._coerce_all([_Real(1.0), 2j, "3/4"], Field.REAL)
    with pytest.raises(TypeError, match=r"not a supported scalar: '3/4'"):
        core._coerce_all([_Real(1.0), "3/4", 2j], Field.REAL)
    with pytest.raises(FieldError, match=r"real value 0.5 to rational"):
        DenseMatrix(1, 3, [Fraction(1), 0.5, 1j], Field.RATIONAL)
    with pytest.raises(TypeError, match=r"not a supported scalar: '1'"):
        RecurrenceSpec([1, 2], [0.5, "1"], [None, 3])


def test_an_already_typed_tuple_comes_back_as_itself():
    cases = [((), None), ((Fraction(1, 2), Fraction(3)), None), ((Fraction(1), Fraction(2)), Field.RATIONAL),
             ((0.5, -0.0), None), ((0.5, -0.0), Field.REAL), ((1j, 0j), None), ((1j, 2 + 0j), Field.COMPLEX)]
    for values, field in cases:
        assert core._coerce_all(values, field)[1] is values
        assert DenseMatrix(1, len(values), values, field).entries is values
    nodes = (0.5, -1.5, 2.0)
    assert NodeSet(nodes).nodes is nodes
    # an int is not a Fraction, nor a float a complex: those are coerced into new tuples
    assert core._coerce_all((1, 2))[1] == (Fraction(1), Fraction(2))
    assert type(core._coerce_all((0.5,), Field.COMPLEX)[1][0]) is complex


def test_plain_rationals_go_into_the_rational_field_in_one_pass():
    # bools, ints and Fractions alone take the one-pass path; it must read them as the former passes did
    rng = random.Random(3003)
    pool = [True, False, 0, -2 ** 70, 2 ** 70 + 1, 1, -7, Fraction(3, 4), Fraction(-5), Fraction(0),
            Fraction(2 ** 80, 3)]
    for _ in range(300):
        vals = [rng.choice(pool) for _ in range(rng.randint(0, 8))]
        for field in (None, Field.RATIONAL):
            want = _outcome(lambda: orc.coerce_all_by_passes(vals, field))
            assert want[0] is Field.RATIONAL
            assert _outcome(lambda: core._coerce_all(vals, field)) == want
    fractions = (Fraction(1, 3), Fraction(-2), Fraction(0))
    assert core._coerce_all(fractions)[1] is fractions
    assert core._coerce_all(fractions, Field.RATIONAL)[1] is fractions
    # a floating value leaves that path, and the first one refused is named
    head = [True, 0, -2 ** 70, Fraction(1, 2)]
    for tail, shown in (([0.5, 2j], "real value 0.5"), ([2j, 0.5], "complex value 2j"),
                        ([-0.0], "real value -0.0")):
        with pytest.raises(FieldError, match=f"cannot demote {re.escape(shown)} to rational"):
            core._coerce_all(head + tail, Field.RATIONAL)
        assert _outcome(lambda: orc.coerce_all_by_passes(head + tail, Field.RATIONAL))[0] is FieldError


def _distinct_finite(rng, count):
    seen = {}
    for _ in range(count):
        x = _mixed_scalar(rng, finite=True)
        seen.setdefault(x, x)
    return list(seen.values())


def test_constructors_read_their_scalars_by_the_former_rule():
    rng, mixed = random.Random(43), 0
    for _ in range(300):
        nodes = _distinct_finite(rng, rng.randint(1, 6))
        want = _outcome(lambda: orc.coerce_all_by_passes(nodes))
        assert _outcome(lambda: _node_read(nodes)) == want
        n = rng.randint(0, 5)
        alpha = [x for x in (_mixed_scalar(rng, finite=True) for _ in range(3 * n)) if x != 0][:n]
        n = len(alpha)
        beta, gamma = ([_mixed_scalar(rng, finite=True) for _ in range(n)] for _ in range(2))
        field, _ = orc.coerce_all_by_passes(alpha + beta + gamma)
        rec = RecurrenceSpec(alpha, beta, gamma)
        assert rec.field is field
        for got, given in zip((rec.alpha, rec.beta, rec.gamma), (alpha, beta, gamma)):
            assert _outcome(lambda: (field, got)) == _outcome(lambda: orc.coerce_all_by_passes(given, field))
        # the former newton_recurrence coerced its ones into the centres' field itself
        rec, one = newton_recurrence(nodes), coerce_scalar(1, want[0])
        assert (rec.field, _typed(rec.alpha)) == (want[0], _typed([one] * len(nodes)))
        assert _outcome(lambda: (rec.field, rec.beta)) == want
        assert _outcome(lambda: (rec.field, rec.gamma)) == \
            _outcome(lambda: orc.coerce_all_by_passes([0] * len(nodes), want[0]))
        mixed += len({type(x) for x in nodes}) > 1
    assert mixed > 100


# ---------------------------------------------------------------- matrices

def test_matrix_construction_and_indexing():
    M = DenseMatrix(2, 3, [1, 2, 3, 4, 5, 6])
    assert M.field is Field.RATIONAL
    assert M[0, 2] == 3 and M[1, 0] == 4
    assert M.row(1) == (Fraction(4), Fraction(5), Fraction(6))
    assert M.column(1) == (Fraction(2), Fraction(5))
    assert M.to_rows() == [[1, 2, 3], [4, 5, 6]]
    with pytest.raises(IndexError):
        M[2, 0]
    # rows and columns outside the matrix are refused like entries, never sliced from a neighbour
    for outside in (lambda: M.row(2), lambda: M.row(-1), lambda: M.column(3),
                    lambda: M.column(-1), lambda: M.column(5)):
        with pytest.raises(IndexError, match="outside 2x3"):
            outside()
    with pytest.raises(ValueError):
        DenseMatrix(2, 2, [1, 2, 3])


def test_from_rows_rejects_ragged_input():
    with pytest.raises(ValueError):
        DenseMatrix.from_rows([[1, 2], [3]])


@pytest.mark.parametrize("field", list(Field), ids=lambda f: f.value)
def test_identity_and_zeros_equal_the_matrices_built_from_their_entries(field):
    # rational ones are integer rows and form no Fraction until their entries are read
    one, zero = core.one_of(field), zero_of(field)
    cases = [(DenseMatrix.identity(n, field), n, n, [one if i == j else zero for i in range(n) for j in range(n)])
             for n in range(6)]
    cases += [(DenseMatrix.zeros(r, c, field), r, c, [zero] * (r * c))
              for r, c in ((0, 0), (0, 4), (3, 0), (1, 1), (2, 5), (5, 3))]
    for M, r, c, values in cases:
        want = DenseMatrix(r, c, values, field)
        assert (M.rows, M.cols, M.field) == (r, c, field)
        assert M == want and want == M
        assert (M._entries is None) is (field is Field.RATIONAL)
        assert [(type(x), repr(x)) for x in M.entries] == [(type(x), repr(x)) for x in want.entries]
        assert hash(M) == hash(want)
    # a negative size is refused as the constructor refuses it
    for make, n in ((lambda: DenseMatrix.identity(-2, field), 4), (lambda: DenseMatrix.zeros(-1, 3, field), -3),
                    (lambda: DenseMatrix.zeros(2, -1, field), -2)):
        with pytest.raises(ValueError, match=f"need {n} entries, got 0"):
            make()


def test_matrix_field_inference_and_promotion():
    assert DenseMatrix(1, 2, [1, 0.5]).field is Field.REAL
    assert DenseMatrix(1, 2, [1, 1j]).field is Field.COMPLEX
    # the constructor with a field is the promotion rule, and it refuses to demote
    M = DenseMatrix(2, 2, DenseMatrix.identity(2).entries, Field.COMPLEX)
    assert M.field is Field.COMPLEX and M[0, 0] == 1 + 0j
    with pytest.raises(FieldError):
        DenseMatrix(1, 1, DenseMatrix(1, 1, [0.5]).entries, Field.RATIONAL)


def test_promotion_gives_what_coerce_scalar_gives_entry_by_entry():
    values = [0, 1, -7, True, False, 10 ** 300, Fraction(1, 3), Fraction(-2, 7),
              Fraction(10 ** 400, 3 * 10 ** 399 + 1), Fraction(-1, 10 ** 400), 0.5, -0.0]
    for field in (Field.REAL, Field.COMPLEX):
        got = DenseMatrix(1, len(values), values, field).entries
        want = [coerce_scalar(x, field) for x in values]
        assert [(type(x), repr(x)) for x in got] == [(type(x), repr(x)) for x in want]
    got = DenseMatrix(1, 3, [1, True, Fraction(1, 2)], Field.RATIONAL).entries
    assert [(type(x), x) for x in got] == [(Fraction, 1), (Fraction, 1), (Fraction, Fraction(1, 2))]
    # a refused demotion names the first value that cannot go down
    with pytest.raises(FieldError, match=r"complex value 2j to real"):
        DenseMatrix(1, 4, [1, 2j, 0.5, 3j], Field.REAL)
    with pytest.raises(OverflowError):
        DenseMatrix(1, 1, [Fraction(10 ** 400)], Field.REAL)


def test_a_matrix_already_in_its_field_keeps_its_entries():
    # values all of the field's type come back as the same tuple, with no coercion pass
    M = DenseMatrix(1, 2, [0.5, -0.0])
    assert DenseMatrix(1, 2, M.entries, Field.REAL).entries is M.entries
    assert hash(Field.REAL) == object.__hash__(Field.REAL)


def test_matrix_arithmetic():
    A = DenseMatrix.from_rows([[1, 2], [3, 4]])
    B = DenseMatrix.from_rows([[0, 1], [1, 0]])
    assert (A * B).to_rows() == [[2, 1], [4, 3]]
    assert (A * 2).to_rows() == [[2, 4], [6, 8]]
    with pytest.raises(TypeError):
        2 * A
    with pytest.raises(ValueError):
        A * DenseMatrix.zeros(3, 3)


def test_matrix_product_promotes_field():
    A = DenseMatrix.from_rows([[Fraction(1, 3)]])
    B = DenseMatrix.from_rows([[0.5]])
    assert (A * B).field is Field.REAL


def _fraction_triple_loop(A, B):
    out = []
    for i in range(A.rows):
        for j in range(B.cols):
            acc = Fraction(0)
            for t in range(A.cols):
                acc += A[i, t] * B[t, j]
            out.append(acc)
    return out


def test_rational_product_matches_fraction_triple_loop():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    scalars = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6))

    def matrix(rows, cols):
        return st.lists(scalars, min_size=rows * cols, max_size=rows * cols).map(
            lambda e: DenseMatrix(rows, cols, e))

    # every dimension may be 0: 0 x k, k x 0, and an empty inner dimension
    shapes = st.tuples(*[st.integers(0, 5)] * 3)
    operands = shapes.flatmap(lambda s: st.tuples(
        matrix(s[0], s[1]), matrix(s[1], s[2]),
        st.lists(scalars, min_size=s[1], max_size=s[1])))

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(operands)
    def check(ops):
        A, B, v = ops
        C = A * B
        assert (C.rows, C.cols, C.field) == (A.rows, B.cols, Field.RATIONAL)
        assert list(C.entries) == _fraction_triple_loop(A, B)
        assert all(type(e) is Fraction for e in C.entries)
        b = mat_apply(A, v)
        assert list(b) == _fraction_triple_loop(A, DenseMatrix(len(v), 1, v))
        assert all(type(e) is Fraction for e in b)

    check()


def test_floating_products_sum_left_to_right():
    rng = random.Random(11)

    def real():
        return rng.uniform(-1, 1) * 10.0 ** rng.randint(-12, 12)

    def rational():
        return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))

    def cplx():
        return complex(real(), real())

    cases = [(real, real), (cplx, cplx), (rational, real), (real, rational),
             (rational, cplx), (cplx, rational)]
    for left, right in cases:
        for n, k, m in ((4, 7, 3), (1, 9, 1), (3, 0, 2), (0, 3, 2)):
            A = DenseMatrix(n, k, [left() for _ in range(n * k)])
            B = DenseMatrix(k, m, [right() for _ in range(k * m)])
            C = A * B
            zero = zero_of(C.field)
            want = [sum((a * b for a, b in zip(A.row(i), B.column(j))), zero)
                    for i in range(n) for j in range(m)]
            assert [repr(e) for e in C.entries] == [repr(e) for e in want]
            v = [right() for _ in range(k)]
            want = [sum((a * b for a, b in zip(A.row(i), v)), zero) for i in range(n)]
            assert [repr(e) for e in mat_apply(A, v)] == [repr(e) for e in want]


def _rational_matrix(rng, rows, cols):
    """Zeros, small fractions and large ones, drawn with negative denominators too."""
    def entry():
        r = rng.random()
        if r < 0.25:
            return 0
        if r < 0.6:
            return Fraction(rng.randint(-9, 9), rng.choice([-1, 1]) * rng.randint(1, 9))
        return Fraction(rng.randint(-10**12, 10**12), rng.choice([-1, 1]) * rng.randint(1, 10**15))
    return DenseMatrix(rows, cols, [entry() for _ in range(rows * cols)])


def _typed(values):
    return [(type(x), repr(x)) for x in values]


def _integer_form(M):
    """The same matrix, built by a product: integer rows only, no entries yet."""
    return M * DenseMatrix.identity(M.cols)


def test_integer_rows_are_canonical():
    rng = random.Random(161)
    zero_rows = DenseMatrix.from_rows([[Fraction(1, 2), 0], [Fraction(-3, 4), 0]]) * \
        DenseMatrix.from_rows([[0, 0], [Fraction(5, 7), 1]])
    built = [DenseMatrix.zeros(2, 3), zero_rows, diff_matrix_bernstein(5)]
    for _ in range(80):
        n, k, m = (rng.randint(0, 6) for _ in range(3))
        A, B, S = _rational_matrix(rng, n, k), _rational_matrix(rng, k, m), _rational_matrix(rng, n, n)
        built += [A, A * B, mat_power(S, rng.randint(0, 3)), A * DenseMatrix.zeros(k, m)]
    for M in built:
        assert len(M._int_rows()) == M.rows
        for den, nums in M._int_rows():
            assert den > 0 and math.gcd(den, *nums) == 1 and len(nums) == M.cols
            assert any(nums) or den == 1
    assert [den for den, _ in zero_rows._int_rows()] == [1, 1]


def test_products_of_empty_and_unit_shapes():
    rng = random.Random(162)
    for n, k, m in [(0, 0, 0), (1, 1, 1), (3, 0, 2), (0, 3, 2), (2, 3, 0), (0, 0, 4)]:
        A, B = _rational_matrix(rng, n, k), _rational_matrix(rng, k, m)
        want = [x for row in orc.matmul_by_fractions(A.to_rows(), B.to_rows(), m) for x in row]
        for left in (A, _integer_form(A)):
            C = left * B
            assert (C.rows, C.cols, C.field) == (n, m, Field.RATIONAL)
            assert _typed(C.entries) == _typed(want)


def test_equality_and_hash_agree_between_entries_and_integer_rows():
    rng = random.Random(163)
    for _ in range(40):
        n, k = rng.randint(0, 5), rng.randint(0, 5)
        # dyadic entries, so that the float matrix is equal too
        entries = [Fraction(rng.randint(-99, 99), 2 ** rng.randint(0, 8)) for _ in range(n * k)]
        A, F = DenseMatrix(n, k, entries), DenseMatrix(n, k, [float(x) for x in entries])
        K = _integer_form(DenseMatrix(n, k, entries))
        assert A == K and K == A and hash(A) == hash(K)
        assert K == F and F == K and hash(K) == hash(F)
        if entries:
            other = _integer_form(DenseMatrix(n, k, entries[:-1] + [entries[-1] + Fraction(1, 3)]))
            assert K != other and other != A and A != other


def test_exact_kernels_agree_with_fraction_references():
    rng = random.Random(164)
    for _ in range(60):
        n, k, m = (rng.randint(0, 7) for _ in range(3))
        A, B, S = _rational_matrix(rng, n, k), _rational_matrix(rng, k, m), _rational_matrix(rng, n, n)
        v = list(_rational_matrix(rng, 1, k).entries)
        product = [x for row in orc.matmul_by_fractions(A.to_rows(), B.to_rows(), m) for x in row]
        applied = [row[0] for row in orc.matmul_by_fractions(A.to_rows(), [[x] for x in v], 1)]
        norm = max((sum((abs(x) for x in row), Fraction(0)) for row in A.to_rows()), default=Fraction(0))
        e = rng.randint(0, 4)
        power = [x for row in orc.mat_power_by_products(S.to_rows(), e) for x in row]
        for left, square in ((A, S), (_integer_form(A), _integer_form(S))):
            assert _typed((left * B).entries) == _typed(product)
            assert _typed(mat_apply(left, v)) == _typed(applied)
            assert _typed([mat_inf_norm(left)]) == _typed([norm])
            assert _typed(mat_power(square, e).entries) == _typed(power)


def test_bernstein_thirty_nilpotency_index():
    assert nilpotency_index(diff_matrix_bernstein(30)) == 31


def test_matrix_equality_and_hash():
    A = DenseMatrix.from_rows([[1, 2], [3, 4]])
    B = DenseMatrix(2, 2, [1, 2, 3, 4])
    assert A == B and hash(A) == hash(B)
    assert A != DenseMatrix.from_rows([[1, 2], [3, 5]])


def test_mat_power():
    J = DenseMatrix.from_rows([[0, 1], [0, 0]])
    assert mat_power(J, 0) == DenseMatrix.identity(2)
    assert mat_power(J, 2) == DenseMatrix.zeros(2, 2)
    with pytest.raises(ValueError):
        mat_power(J, -1)
    with pytest.raises(ValueError):
        mat_power(DenseMatrix.zeros(2, 3), 2)


def test_mat_power_by_squaring_equals_the_repeated_product():
    rng = random.Random(23)
    for _ in range(12):
        n = rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
        M = DenseMatrix.from_rows(rows)
        for k in range(n + 2):
            want = [x for row in orc.mat_power_by_products(rows, k) for x in row]
            assert [repr(x) for x in mat_power(M, k).entries] == [repr(x) for x in want]


def test_inf_norm_without_entries_is_a_zero_of_the_norms_type():
    # rational matrices have rational norms, floating ones (complex too: abs is real) float norms
    for field, zero in ((Field.RATIONAL, Fraction(0)), (Field.REAL, 0.0), (Field.COMPLEX, 0.0)):
        for rows, cols in ((0, 0), (0, 3), (3, 0)):
            norm = mat_inf_norm(DenseMatrix.zeros(rows, cols, field))
            assert (type(norm), repr(norm)) == (type(zero), repr(zero))
    assert repr(mat_inf_norm(DenseMatrix.from_rows([[-0.0, 0.0]]))) == "0.0"
    assert repr(mat_inf_norm(DenseMatrix.from_rows([[3j, -4.0], [1 + 0j, 0j]]))) == "7.0"


def test_norms_keep_a_nan_wherever_it_sits():
    # max alone keeps its running value against a nan, so [0.0, nan] read 0.0 and [nan, 0.0] nan
    nan, inf = math.nan, math.inf
    for values in ([0.0, nan], [nan, 0.0], [1.0, nan, 2.0], [inf, nan], [nan, inf], [complex(0, nan), 5.0]):
        assert math.isnan(vec_inf_norm(values))
        assert math.isnan(mat_inf_norm(DenseMatrix(len(values), 1, values)))
        assert math.isnan(mat_inf_norm(DenseMatrix(1, len(values), values)))
    assert vec_inf_norm([inf, -1.0]) == inf and vec_inf_norm([-3.0, 2.0]) == 3.0
    assert mat_inf_norm(DenseMatrix.from_rows([[1.0, -inf], [2.0, 0.0]])) == inf


def test_norms_are_exact_on_rationals():
    M = DenseMatrix.from_rows([[Fraction(1, 3), Fraction(-1, 3)], [1, 0]])
    norm = mat_inf_norm(M)
    assert norm == Fraction(1) and isinstance(norm, Fraction)
    assert vec_inf_norm([Fraction(-5, 2), 1]) == Fraction(5, 2)


# ---------------------------------------------------------------- vectors

def test_mat_apply():
    D = DenseMatrix.from_rows([[0, 1, 0], [0, 0, 2], [0, 0, 0]])
    b = mat_apply(D, [Fraction(5), Fraction(3), Fraction(7)])
    assert list(b) == [3, 14, 0]
    assert all(type(e) is float for e in mat_apply(D, [1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        mat_apply(D, [1, 2])


# ---------------------------------------------------------------- node sets

def test_node_set_confluencies_and_slots():
    ns = NodeSet([-1, 0, 1], [3, 4, 2])
    assert ns.dimension == 9
    assert not ns.is_simple
    assert ns.flat_nodes() == (-1, -1, -1, 0, 0, 0, 0, 1, 1)
    assert ns.slot(0, 0) == 0 and ns.slot(1, 2) == 5 and ns.slot(2, 1) == 8
    with pytest.raises(IndexError):
        ns.slot(2, 2)
    with pytest.raises(IndexError):
        ns.slot(3, 0)
    assert ns.offsets == (0, 3, 7)
    for conf in ([1], [5], [1, 1, 1, 1], [2, 1, 3, 1, 4], [4, 4, 1]):
        ns = NodeSet(range(len(conf)), conf)
        flat = [(i, j) for i, s in enumerate(conf) for j in range(s)]
        assert [ns.slot(i, j) for i, j in flat] == list(range(len(flat)))
        assert ns.dimension == len(flat)
        assert ns.is_simple == all(s == 1 for s in conf)
        for i, j in ((-1, 0), (0, -1), (0, conf[0]), (len(conf), 0)):
            with pytest.raises(IndexError):
                ns.slot(i, j)


def test_node_set_defaults_to_simple():
    ns = NodeSet([Fraction(1, 2), 2])
    assert ns.is_simple and ns.dimension == 2 and len(ns) == 2


def test_node_set_rejects_bad_input():
    with pytest.raises(ValueError):
        NodeSet([])
    with pytest.raises(ValueError):
        NodeSet([0, 0])  # duplicates need a confluency instead
    with pytest.raises(ValueError):
        NodeSet([0, 1], [1])
    with pytest.raises(ValueError):
        NodeSet([0, 1], [1, 0])
    for bad in (float("nan"), float("inf"), -float("inf"),
                complex(0, float("nan")), complex(float("inf"), 1)):
        with pytest.raises(ValueError, match="finite"):
            NodeSet([0.5, bad, 1.0])


def _first_duplicate_by_pairs(nodes):
    """The node the former pair loop named: the earliest with a later equal."""
    for a in range(len(nodes)):
        for b in range(a + 1, len(nodes)):
            if nodes[a] == nodes[b]:
                return nodes[a]
    return None


def test_node_set_names_the_duplicate_the_pair_loop_named():
    rng = random.Random(29)
    cases = [[0.0, 1.5, -0.0], [-0.0, 0.0], [1j, 2, complex(0, 1)], [0.5, 0.25, 0.75],
             [3, 1, 2, 1, 3], [Fraction(1, 2), 0.5], [1 + 0j, 2j, 1.0, 2j]]
    for _ in range(200):
        pool = [rng.choice([0.0, -0.0, 0.5, -1.25, 2.0]) for _ in range(4)]
        pool += [complex(rng.choice([0.0, -0.0, 1.0]), rng.choice([0.0, -0.0, 1.0])) for _ in range(2)]
        cases.append(rng.sample(pool, rng.randint(1, len(pool))))
    named = 0
    for nodes in cases:
        field = join_fields(*map(field_of, nodes))
        want = _first_duplicate_by_pairs([coerce_scalar(t, field) for t in nodes])
        if want is None:
            NodeSet(nodes)
            continue
        named += 1
        with pytest.raises(ValueError) as exc:
            NodeSet(nodes)
        assert str(exc.value) == f"duplicate node {want!r}; use a confluency instead"
    assert 0 < named < len(cases)


def test_counts_must_be_integers():
    for conf in ([2.7, 1], ["2", True], [2.0, 1], [Fraction(2), 1], [1, None]):
        with pytest.raises(TypeError):
            NodeSet([0, 1], conf)
    ns = NodeSet([0, 1], [True, 2])
    assert ns.confluencies == (1, 2) and {type(s) for s in ns.confluencies} == {int}
    for make in (lambda d: DegreeGradedBasis(monomial_recurrence(3), d), BernsteinBasis):
        for bad in (2.5, 2.0, "2", Fraction(2), None):
            with pytest.raises(TypeError):
                make(bad)
        basis = make(True)
        assert basis.dimension == 2 and type(basis.degree) is int
        with pytest.raises(ValueError, match="nonnegative"):
            make(-1)


def test_node_set_joins_fields():
    assert NodeSet([1, 0.5]).field is Field.REAL
    assert NodeSet([1, 1j]).field is Field.COMPLEX
    assert NodeSet([1, Fraction(1, 2)]).field is Field.RATIONAL


def test_as_node_set_passthrough():
    ns = NodeSet([0, 1])
    assert as_node_set(ns) is ns
    assert as_node_set([0, 1]).nodes == (0, 1)


# ---------------------------------------------------------------- bases

def test_basis_descriptors():
    dg = DegreeGradedBasis(monomial_recurrence(3), 3, name="monomial")
    assert dg.dimension == 4 and dg.recurrence.field is Field.RATIONAL
    assert LagrangeBasis([0, 1]).dimension == 2
    assert BernsteinBasis(4).dimension == 5
    with pytest.raises(ValueError):
        DegreeGradedBasis(monomial_recurrence(2), 3)
    with pytest.raises(ValueError):
        LagrangeBasis(NodeSet([0, 1], [2, 1]))
    with pytest.raises(ValueError):
        BernsteinBasis(-1)


# ---------------------------------------------------------------- instance rules

_REC2 = RecurrenceSpec([1, 2])

# each rule: (a refused instance, the error it raises, the nearest accepted instance)
_RULES = {
    "degree-negative": (-1, ValueError("degree must be nonnegative"), 0),
    "degree-float": (2.0, TypeError("'float' object cannot be interpreted as an integer"), 2),
    "recurrence-short": ((_REC2, 5), ValueError("degree 5 needs 5 recurrence terms, got 2"), (_REC2, 2)),
    "lagrange-confluent": (NodeSet([1, 2], [2, 1]),
                           ValueError("barycentric weights need simple nodes; see gen_bary_weights"),
                           NodeSet([1, 2])),
    "node-count": (([0, 1], [1, 2, 3]), ValueError("2 nodes but 3 confluencies"), ([0, 1], [1, 2])),
}


def _rule_entry_points():
    """A (rule, entry point) param, id'd by both names, for every descriptor, constructor and family entry
    that reads each rule: the degree's, the recurrence length's, Lagrange's simple nodes and the node count."""
    degree = {
        "DegreeGradedBasis": lambda n: DegreeGradedBasis(monomial_recurrence(3), n),
        "BernsteinBasis": BernsteinBasis,
        "diff_matrix_degree_graded": lambda n: dg.diff_matrix_degree_graded(monomial_recurrence(3), n),
        "diff_matrix_bernstein": diff_matrix_bernstein,
        **{f.__name__: f for f in (dg.monomial_diff_matrix, dg.chebyshev_diff_matrix, dg.legendre_diff_matrix,
                                   dg.chebyshev_antideriv_matrix, dg.legendre_antideriv_matrix,
                                   dg.monomial_basis, dg.chebyshev_basis, dg.legendre_basis)},
        **{f"FAMILIES[{name!r}].{part}": getattr(fam, part) for name, fam in FAMILIES.items()
           if fam.arg == "degree" for part in ("diff_matrix", "basis", "antideriv") if getattr(fam, part)},
        "FAMILIES['recurrence'].diff_matrix":
            lambda n: FAMILIES["recurrence"].diff_matrix((monomial_recurrence(3), n)),
        "FAMILIES['recurrence'].basis": lambda n: FAMILIES["recurrence"].basis((monomial_recurrence(3), n)),
    }
    recurrence = {
        "DegreeGradedBasis": lambda rn: DegreeGradedBasis(*rn),
        "diff_matrix_degree_graded": lambda rn: dg.diff_matrix_degree_graded(*rn),
        **{f"FAMILIES['recurrence'].{part}": getattr(FAMILIES["recurrence"], part)
           for part in ("diff_matrix", "basis")},
    }
    lagrange = {
        "LagrangeBasis": LagrangeBasis,
        "bary_weights": lagrange_module.bary_weights,
        "diff_matrix_lagrange": lagrange_module.diff_matrix_lagrange,
        "eval_first_form": lambda ns: lagrange_module.eval_first_form(
            gen_bary_weights(ns), [1] * ns.dimension, [Fraction(1, 3)]),
        "eval_second_form": lambda ns: lagrange_module.eval_second_form(
            gen_bary_weights(ns), [1] * ns.dimension, [Fraction(1, 3)]),
        **{f"FAMILIES['lagrange'].{part}": getattr(FAMILIES["lagrange"], part) for part in ("diff_matrix", "basis")},
    }
    count = {"NodeSet": lambda nc: NodeSet(*nc)}
    for rules, entries in ((("degree-negative", "degree-float"), degree), (("recurrence-short",), recurrence),
                           (("lagrange-confluent",), lagrange), (("node-count",), count)):
        for rule in rules:
            for name, entry in entries.items():
                yield pytest.param(rule, entry, id=f"{rule}-{name}")


@pytest.mark.parametrize("rule, entry", _rule_entry_points())
def test_every_entry_point_refuses_by_the_rule_its_descriptor_states(rule, entry):
    # the same error type and text from every entry point, and the nearest valid instance accepted
    bad, error, good = _RULES[rule]
    with pytest.raises(type(error)) as exc:
        entry(bad)
    assert type(exc.value) is type(error) and str(exc.value) == str(error)
    entry(good)


def test_matrix_equality_with_other_types_is_false():
    A = DenseMatrix.identity(1)
    assert A.__eq__(3) is NotImplemented
    assert (A == 3) is False and (3 == A) is False and A != 3


def test_reprs_name_the_instance():
    assert repr(DenseMatrix.zeros(2, 3)) == "DenseMatrix(2x3, rational)"
    assert repr(DenseMatrix.identity(2, Field.COMPLEX)) == "DenseMatrix(2x2, complex)"
    assert repr(DegreeGradedBasis(monomial_recurrence(3), 3, "monomial")) == \
        "DegreeGradedBasis(monomial, degree=3)"
    assert repr(HermiteBasis(NodeSet([0, 1], [2, 1]))) == \
        "HermiteBasis(NodeSet([Fraction(0, 1), Fraction(1, 1)], [2, 1]))"
    assert repr(LagrangeBasis([0.5])) == "LagrangeBasis(NodeSet([0.5], [1]))"
    assert repr(BernsteinBasis(4)) == "BernsteinBasis(degree=4)"
    assert repr(RecurrenceSpec([1.0, 2.0])) == "RecurrenceSpec(n=2, field=real)"
