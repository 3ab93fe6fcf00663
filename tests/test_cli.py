"""Command-line behavior: parsing, serialization, exit codes, golden outputs."""

import contextlib
import copy
import io
import json
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import polydiff.bernstein
import polydiff.cli
import polydiff.degree_graded
import polydiff.hermite
import polydiff.lagrange
import polydiff.verify
from polydiff.bernstein import diff_matrix_bernstein
from polydiff.cli import (
    _INT_TEXTS,
    UsageError,
    _absorb_negative_values,
    _complex_text,
    _exact_text,
    _parser_tree,
    _read_values,
    build_parser,
    format_scalar,
    main,
    matrix_to_csv,
    matrix_to_json,
    parse_complex,
    parse_int_list,
    parse_scalar,
)
from polydiff.core import (
    BernsteinBasis,
    DegreeGradedBasis,
    DenseMatrix,
    Field,
    HermiteBasis,
    LagrangeBasis,
    NodeSet,
)
from polydiff.degree_graded import (
    RecurrenceSpec,
    chebyshev_antideriv_matrix,
    chebyshev_diff_matrix,
    diff_matrix_degree_graded,
    legendre_antideriv_matrix,
    legendre_recurrence,
    monomial_basis,
    monomial_recurrence,
    newton_basis,
    newton_diff_matrix,
)
from polydiff.families import FAMILIES
from polydiff.hermite import diff_matrix_hermite
from polydiff.lagrange import diff_matrix_lagrange
from polydiff.structure import (
    build_V,
    monomial_images,
    pseudo_inverse,
    verify_generalized_inverse,
)

import _oracles as orc
from parity import PARSE_EDGES, REQUESTS


# ---------------------------------------------------------------- scalars

@pytest.mark.parametrize("text,value", [
    ("3", 3 + 0j),
    ("-2.5", -2.5 + 0j),
    ("2i", 2j),
    ("i", 1j),
    ("-i", -1j),
    ("+i", 1j),
    ("1+i", 1 + 1j),
    ("1-2.5i", 1 - 2.5j),
    ("-0.5+0.5i", -0.5 + 0.5j),
    ("1e-3+2e-4i", 1e-3 + 2e-4j),
    ("1.5E2-1e-2I", 150 - 0.01j),
    (" 1 + 2i ", 1 + 2j),
    # a tab or a no-break space inside a token is ignored like a space
    ("1\t+ 2i", 1 + 2j),
    ("1\xa0+\xa02i", 1 + 2j),
    ("1 0\t0", 100 + 0j),
    ("\xa01e-3\t-\ti\t", 1e-3 - 1j),
])
def test_parse_complex(text, value):
    assert parse_complex(text) == value


@pytest.mark.parametrize("text", ["", "1+", "abc", "1+2j", "--i",
                                  "2J", "j", "(1+2i)", "(3)", "(1)+2i"])
def test_parse_complex_rejects_garbage(text):
    with pytest.raises(ValueError):
        parse_complex(text)


def test_parse_scalar_per_field():
    assert parse_scalar("-3/4", Field.RATIONAL) == Fraction(-3, 4)
    assert parse_scalar("0.5", Field.RATIONAL) == Fraction(1, 2)
    assert parse_scalar("0.5", Field.REAL) == 0.5
    assert parse_scalar("1+i", Field.COMPLEX) == 1 + 1j
    with pytest.raises(UsageError):
        parse_scalar("x", Field.RATIONAL)
    with pytest.raises(UsageError):
        parse_scalar("1/0", Field.RATIONAL)
    with pytest.raises(UsageError):
        parse_scalar("1+i", Field.REAL)


def test_parse_scalar_bounds_an_exact_exponent_by_the_digit_limit():
    # 1e5000 is the same number as a 1 followed by 5000 zeros, refused the same way
    limit = sys.get_int_max_str_digits()
    for text in ("1e5000", "1" + "0" * 5000, "2.5E-5_000"):
        with pytest.raises(UsageError, match=f"more than {limit} digits"):
            parse_scalar(text, Field.RATIONAL)
    assert parse_scalar(f"1e{limit}", Field.RATIONAL) == 10 ** limit
    assert parse_scalar("1e5000", Field.REAL) == float("inf")


def test_format_scalar():
    assert format_scalar(Fraction(3, 4)) == "3/4"
    assert format_scalar(Fraction(5)) == "5"
    assert format_scalar(7) == "7"
    assert format_scalar(0.5) == "0.5"
    assert format_scalar(1.5 + 0.5j) == "1.5+0.5i"
    assert format_scalar(1.5 - 0.5j) == "1.5-0.5i"
    assert format_scalar(True) == "1"
    assert format_scalar(-0.0) == "-0.0" and format_scalar(5e-324) == "5e-324"
    # the sign of a zero imaginary part is not printed
    assert format_scalar(complex(-0.0, -0.0)) == "-0.0+0.0i"
    limit = sys.get_int_max_str_digits()
    with pytest.raises(ValueError, match=f"more than {limit} digits"):
        format_scalar(Fraction(1, 10 ** limit))


FORMAT_CASES = [
    [Fraction(3, 4), Fraction(-5), 0, Fraction(-1, 10 ** 12), Fraction(10 ** 40 + 1, 7), True],
    [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1],
    [complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0), 0j, -1.5 + 5e-324j,
     complex(1.7976931348623157e308, -2.5), complex(5e-324, 0.0)],
]


@pytest.mark.parametrize("values", FORMAT_CASES, ids=["rational", "real", "complex"])
def test_matrix_text_is_the_per_entry_format_scalar_join(values):
    M = DenseMatrix(2, len(values), values + values[::-1])
    rows = [[format_scalar(e) for e in M.row(i)] for i in range(M.rows)]
    assert matrix_to_csv(M) == "\n".join(",".join(r) for r in rows) + "\n"
    assert json.loads(matrix_to_json(M, "b"))["entries"] == rows


@pytest.mark.parametrize("shape", [(0, 0), (1, 1), (3, 0), (2, 7)], ids=lambda s: "%dx%d" % s)
@pytest.mark.parametrize("values", FORMAT_CASES, ids=["rational", "real", "complex"])
def test_matrix_json_is_the_text_of_the_indented_dump(values, shape):
    n, m = shape
    M = DenseMatrix(n, m, (values * n * m)[:n * m], DenseMatrix(1, len(values), values).field)
    for name in ("lagrange", 'quo"te \\ caf\u00e9'):
        record = {"basis": name, "dimension": n, "field": M.field.value,
                  "entries": [[format_scalar(e) for e in M.row(i)] for i in range(n)]}
        assert matrix_to_json(M, name) == json.dumps(record, indent=2) + "\n"


_MAX = 1.7976931348623157e308
# any float, with the signed zeros, subnormals, extremes, infinities and nan always in the pool
_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, _MAX, -_MAX, math.inf, -math.inf, math.nan]),
                    st.floats())


def _int_text_or_none(field, x, den):
    try:
        return _INT_TEXTS[field](x, den)
    except OverflowError:   # x / den past the float range: the CLI reports it, no text is made
        return None


@given(st.lists(_FLOATS, max_size=4), st.lists(st.builds(complex, _FLOATS, _FLOATS), max_size=4),
       st.lists(st.builds(Fraction, st.integers(-10 ** 80, 10 ** 80), st.integers(1, 10 ** 80)), max_size=4),
       st.lists(st.tuples(st.sampled_from(list(Field)), st.integers(), st.integers(min_value=1)), max_size=4))
def test_every_output_text_is_its_own_json_string_body(floats, complexes, fractions, ints):
    # matrix_to_json and the weights document quote these texts bare, with no encoder to escape them
    texts = [*map(repr, floats), *map(_complex_text, complexes), *map(_exact_text, fractions),
             *(_int_text_or_none(field, x, den) for field, x, den in ints)]
    for t in filter(None, texts):
        assert json.dumps(t) == '"' + t + '"'


def test_matrix_text_refuses_an_entry_past_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    M = DenseMatrix(1, 2, [Fraction(1, 2), Fraction(1, 10 ** limit)])
    for emit in (matrix_to_csv, lambda m: matrix_to_json(m, "b")):
        with pytest.raises(ValueError, match=f"exact result too long to print: .* more than {limit} digits"):
            emit(M)


def _seeded_int_rows(rng, rows, cols):
    """Rows (den, nums) with den 1 and den > 1 (two negative, which _from_ints turns positive),
    negative entries, entries that reduce to integers or to a smaller denominator, zero rows, and
    numerators past 2^53 and past 2^1024 over denominators that bring them back."""
    out = []
    for _ in range(rows):
        den = rng.choice([1, 1, 2, 12, -30, -4, 35, 7 * 10 ** 25, 2 ** 1100 + 3, 10 ** 330 + 7])
        big = den > 2 ** 1024
        out.append((den, [0] * cols if rng.random() < 0.2 else [
            rng.choice([0, -1, 5 * den, -den, rng.randint(-10 ** 30, 10 ** 30), rng.randint(-60, 60)])
            * (rng.randint(1, 10 ** 20) if big else 1) for _ in range(cols)]))
    return out


@pytest.mark.parametrize("shape", [(0, 0), (3, 0), (1, 1), (4, 5), (9, 2)], ids=lambda s: "%dx%d" % s)
def test_row_held_text_is_the_per_entry_format_scalar_join(shape):
    # a matrix built from integer rows prints from them in every field; the text is what its
    # Fractions print, promoted into that field by the constructor
    rng, (n, m) = random.Random(2600 + 10 * shape[0] + shape[1]), shape
    for _ in range(40):
        M = DenseMatrix._from_ints(m, _seeded_int_rows(rng, n, m))
        texts = {field: (matrix_to_csv(M, field), matrix_to_json(M, "b", field)) for field in Field}
        assert texts[Field.RATIONAL] == (matrix_to_csv(M), matrix_to_json(M, "b"))
        assert M._entries is None   # printing formed no Fraction
        held = DenseMatrix(n, m, M.entries)   # the same matrix holding its Fractions
        assert held._entries is not None
        for field, (csv, text) in texts.items():
            promoted = DenseMatrix(n, m, M.entries, field)
            rows = [[format_scalar(e) for e in promoted.row(i)] for i in range(n)]
            assert csv == "\n".join(",".join(r) for r in rows) + "\n"
            assert json.loads(text) == {"basis": "b", "dimension": n, "field": field.value, "entries": rows}
            assert (csv, text) == (matrix_to_csv(promoted), matrix_to_json(promoted, "b"))
            assert (csv, text) == (matrix_to_csv(held, field), matrix_to_json(held, "b", field))


def test_row_held_text_formats_each_distinct_value_of_a_row_once(monkeypatch):
    # rows drawn from a few values, so most entries repeat; 2^60 and 2^60 + 1 have one float but two
    # exact texts, so a table keyed by the quotient would print one of them wrongly
    rng, big = random.Random(3002), 2 ** 60
    for _ in range(60):
        m, rows = rng.randint(2, 12), [(1, [big, big + 1, 0, big + 1])]
        for _ in range(rng.randint(0, 5)):
            den = rng.choice([1, 1, 3, 12, 35, 2 ** 70 + 1])
            pool = [0, big, big + 1, -den, 2 * den, rng.randint(-40, 40), rng.randint(-10 ** 25, 10 ** 25)]
            rows.append((den, [0] * m if rng.random() < 0.25 else [rng.choice(pool) for _ in range(m)]))
        rows[0] = (1, (rows[0][1] * m)[:m])
        for field in Field:
            calls = []
            text = polydiff.cli._INT_TEXTS[field]
            monkeypatch.setitem(polydiff.cli._INT_TEXTS, field, lambda x, den: calls.append(x) or text(x, den))
            M = DenseMatrix._from_ints(m, rows)
            got = (matrix_to_csv(M, field), matrix_to_json(M, "b", field))
            assert M._entries is None   # printing formed no Fraction
            assert len(calls) == 2 * sum(len(set(nums)) for _, nums in M._ints)   # once a row per format
            monkeypatch.undo()
            held = DenseMatrix(M.rows, m, M.entries)
            assert got == (matrix_to_csv(held, field), matrix_to_json(held, "b", field))


@pytest.mark.parametrize("name", [name for name, family in FAMILIES.items() if family.arg == "degree"])
def test_degree_families_hand_over_integer_rows_that_print_as_the_reference_does(name):
    # a later change cannot send these matrices back through Fractions without failing here
    family = FAMILIES[name]
    for n in (0, 1, 7, 40):
        M, basis = family.diff_matrix(n), family.basis(n)
        assert M._entries is None, f"{name} degree {n} formed its Fractions"
        if isinstance(basis, DegreeGradedBasis):
            want = diff_matrix_degree_graded(basis.recurrence, n)
        else:
            want = DenseMatrix(n + 1, n + 1, family.diff_matrix(n).entries)
        for field in Field:
            assert (matrix_to_csv(M, field), matrix_to_json(M, name, field)) == (
                matrix_to_csv(want, field), matrix_to_json(want, name, field)), f"{name} degree {n} {field}"
        assert M._entries is None   # printing formed no Fraction


def test_row_held_text_past_the_float_range_overflows_with_the_constructor_message(monkeypatch, capsys):
    rows = [(3, [1, 2 ** 1100 - 1]), (7, [2 ** 1030, 0])]
    for field in (Field.REAL, Field.COMPLEX):
        # a quotient past the float range overflows as the promoted Fraction's does, with its message
        with pytest.raises(OverflowError) as want:
            DenseMatrix(2, 2, DenseMatrix._from_ints(2, rows).entries, field)
        for emit in (matrix_to_csv, lambda M, f: matrix_to_json(M, "b", f)):
            M = DenseMatrix._from_ints(2, rows)
            with pytest.raises(OverflowError) as got:
                emit(M, field)
            assert str(got.value) == str(want.value) and M._entries is None
        # and the command exits 2 with it, printing nothing else
        monkeypatch.setattr(polydiff.bernstein, "diff_matrix_bernstein", lambda n: DenseMatrix._from_ints(2, rows))
        for fmt in ("csv", "json"):
            assert run_cli(capsys, ["matrix", "--basis", "bernstein", "--degree", "1", "--field", field.value,
                                    "--format", fmt]) == (2, "", f"polydiff: error: arithmetic failure: {want.value}\n")


def test_a_matrix_already_in_the_requested_field_prints_its_own_entries(monkeypatch):
    M = DenseMatrix(1, 2, [0.5, -0.0])
    want = (matrix_to_csv(M), matrix_to_json(M, "b"))
    monkeypatch.setattr(polydiff.cli, "DenseMatrix", None)   # no matrix is built to print it
    assert (matrix_to_csv(M, Field.REAL), matrix_to_json(M, "b", Field.REAL)) == want == (
        "0.5,-0.0\n", '{\n  "basis": "b",\n  "dimension": 1,\n  "field": "real",\n  "entries": [\n'
        '    [\n      "0.5",\n      "-0.0"\n    ]\n  ]\n}\n')


def test_row_held_text_refuses_an_entry_past_the_digit_limit_with_the_fraction_message():
    limit = sys.get_int_max_str_digits()
    message = f"exact result too long to print: .* more than {limit} digits"
    for rows in ([(1, [1, 10 ** limit])], [(3, [1, 10 ** limit])], [(10 ** limit, [1, 2])]):
        for emit in (matrix_to_csv, lambda m: matrix_to_json(m, "b")):
            messages = []
            for M in (DenseMatrix._from_ints(2, rows), DenseMatrix(1, 2, DenseMatrix._from_ints(2, rows).entries)):
                with pytest.raises(ValueError, match=message) as exc:
                    emit(M)
                messages.append(str(exc.value))
            assert messages[0] == messages[1]


@given(st.fractions(max_denominator=10 ** 6))
def test_rational_serialization_roundtrips(q):
    assert parse_scalar(format_scalar(q), Field.RATIONAL) == q


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_real_serialization_roundtrips(x):
    assert parse_scalar(format_scalar(x), Field.REAL) == x


@given(st.complex_numbers(allow_nan=False, allow_infinity=False))
def test_complex_serialization_roundtrips(z):
    assert parse_scalar(format_scalar(z), Field.COMPLEX) == z


# ---------------------------------------------------------------- token lists

def test_read_values_comma_list():
    assert _read_values("1, 2 ,3") == ["1", "2", "3"]


def test_read_values_from_file(tmp_path):
    f = tmp_path / "nodes.txt"
    f.write_text("0, 1\n2\t3  4\n")
    assert _read_values(f"@{f}") == ["0", "1", "2", "3", "4"]


def test_read_values_errors(tmp_path):
    with pytest.raises(UsageError):
        _read_values(f"@{tmp_path}/missing.txt")
    with pytest.raises(UsageError):
        _read_values(" , ")


def test_parse_int_list(tmp_path):
    assert parse_int_list("3,5,8") == [3, 5, 8]
    with pytest.raises(UsageError):
        parse_int_list("3,x")
    # a UsageError is a ValueError; the token reader's own message passes through
    assert issubclass(UsageError, ValueError)
    with pytest.raises(UsageError, match="cannot read"):
        parse_int_list(f"@{tmp_path}/missing.txt")


def test_absorb_negative_values():
    argv = ["matrix", "--basis", "lagrange", "--nodes", "-1,0,1", "--pinv"]
    assert _absorb_negative_values(argv) == [
        "matrix", "--basis", "lagrange", "--nodes=-1,0,1", "--pinv"]
    # flags and @file arguments pass through untouched
    argv = ["weights", "--nodes", "@f", "--alpha", "-3"]
    assert _absorb_negative_values(argv) == ["weights", "--nodes", "@f", "--alpha=-3"]
    assert _absorb_negative_values(["--nodes"]) == ["--nodes"]
    # a value may also start with parse_complex's imaginary unit, or be -inf or -nan
    for value in ("-i,i", "-I,2I", "-1i,1i", "-inf,0", "-nan,0", "-NaN,1"):
        assert _absorb_negative_values(["--nodes", value, "--field", "complex"]) == [
            f"--nodes={value}", "--field", "complex"]


# ---------------------------------------------------------------- matrix command

def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_matrix_bernstein_display(capsys):
    code, out, _ = run_cli(capsys, ["matrix", "--basis", "bernstein", "--degree", "4"])
    assert code == 0
    assert out == ("-4,4,0,0,0\n"
                   "-1,-2,3,0,0\n"
                   "0,-2,0,2,0\n"
                   "0,0,-3,2,1\n"
                   "0,0,0,-4,4\n")


def test_matrix_monomial_degree_zero(capsys):
    code, out, _ = run_cli(capsys, ["matrix", "--basis", "monomial", "--degree", "0"])
    assert code == 0 and out == "0\n"


def test_matrix_hermite_nine_by_nine(capsys):
    code, out, _ = run_cli(capsys, [
        "matrix", "--basis", "hermite", "--nodes", "-1,0,1", "--confluency", "3,4,2"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 9
    assert lines[2] == "-201/2,-177/4,-15,96,-60,24,-12,9/2,-3/4"
    assert lines[8] == "35,11,2,0,48,0,16,-35,11"


def test_matrix_field_promotion(capsys):
    code, out, _ = run_cli(capsys, [
        "matrix", "--basis", "chebyshev", "--degree", "2", "--field", "real"])
    assert code == 0
    assert out.splitlines()[0] == "0.0,1.0,0.0"


def test_matrix_complex_lagrange(capsys):
    code, out, _ = run_cli(capsys, [
        "matrix", "--basis", "lagrange", "--nodes", "1,i,-1,-i", "--field", "complex"])
    assert code == 0
    assert out.splitlines()[0] == "1.5+0.0i,-0.5+0.5i,-0.5+0.0i,-0.5-0.5i"


def test_matrix_nodes_starting_with_minus_i(capsys):
    argv = ["matrix", "--basis", "lagrange", "--field", "complex"]
    want = run_cli(capsys, argv + ["--nodes=-i,i"])
    assert want == (0, "0.0+0.5i,0.0-0.5i\n0.0+0.5i,0.0-0.5i\n", "")
    assert run_cli(capsys, argv + ["--nodes", "-i,i"]) == want


def test_matrix_nodes_starting_with_minus_nan(capsys):
    argv = ["matrix", "--basis", "lagrange", "--field", "real"]
    want = run_cli(capsys, argv + ["--nodes=-nan,0"])
    assert want == (2, "", "polydiff: error: nodes must be finite numbers\n")
    assert run_cli(capsys, argv + ["--nodes", "-nan,0"]) == want


def test_matrix_json_schema(capsys):
    code, out, _ = run_cli(capsys, [
        "matrix", "--basis", "legendre", "--degree", "2", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj == {
        "basis": "legendre",
        "dimension": 3,
        "field": "rational",
        "entries": [["0", "1", "0"], ["0", "0", "3"], ["0", "0", "0"]],
    }


def test_matrix_recurrence_basis(capsys):
    # alpha=1, beta=z_j, gamma=0 rebuilds the Newton matrix on 0..4
    code, out, _ = run_cli(capsys, [
        "matrix", "--basis", "recurrence",
        "--alpha", "1,1,1,1", "--beta", "0,1,2,3", "--gamma", "0,0,0,0"])
    assert code == 0
    assert out == ("0,1,-1,2,-6\n"
                   "0,0,2,-3,8\n"
                   "0,0,0,3,-6\n"
                   "0,0,0,0,4\n"
                   "0,0,0,0,0\n")


def test_matrix_out_writes_file(tmp_path, capsys):
    target = tmp_path / "D.csv"
    code, out, _ = run_cli(capsys, [
        "matrix", "--basis", "monomial", "--degree", "2", "--out", str(target)])
    assert code == 0 and out == ""
    assert target.read_text() == "0,1,0\n0,0,2\n0,0,0\n"


def test_out_that_cannot_be_written_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "D.csv"
    code, out, err = run_cli(capsys, [
        "matrix", "--basis", "monomial", "--degree", "2", "--out", str(target)])
    assert code == 2 and out == "" and not target.exists()
    assert len(err.splitlines()) == 1 and f"cannot write {str(target)!r}" in err
    assert "Traceback" not in err


def test_matrix_pinv_chebyshev_is_antideriv(capsys):
    code, out, _ = run_cli(capsys, [
        "matrix", "--basis", "chebyshev", "--degree", "3", "--pinv"])
    assert code == 0
    assert out == ("0,0,0,0\n"
                   "1,0,-1/2,0\n"
                   "0,1/4,0,-1/4\n"
                   "0,0,1/6,0\n")


@pytest.mark.parametrize("basis", ["chebyshev", "legendre"])
def test_matrix_pinv_degree_zero(capsys, basis):
    code, out, err = run_cli(capsys, ["matrix", "--basis", basis, "--degree", "0", "--pinv"])
    assert (code, out, err) == (0, "0\n", "")


def test_matrix_pinv_monomial(capsys):
    code, out, err = run_cli(capsys, [
        "matrix", "--basis", "monomial", "--degree", "3", "--pinv"])
    assert code == 0 and err == ""
    assert out == ("0,0,0,0\n"
                   "1,0,0,0\n"
                   "0,1/2,0,0\n"
                   "0,0,1/3,0\n")


def test_matrix_pinv_lagrange_exact(capsys):
    code, out, err = run_cli(capsys, [
        "matrix", "--basis", "lagrange", "--nodes", "-1,-1/2,1/2,1", "--pinv"])
    assert code == 0 and err == ""
    assert out.splitlines()[0] == "1/36,-10/9,2/9,-5/36"


def test_matrix_pinv_floating_warns(capsys):
    code, _, err = run_cli(capsys, [
        "matrix", "--basis", "lagrange", "--nodes", "-1,0,1", "--field", "real", "--pinv"])
    assert code == 0
    assert "floating point" in err


def _float_pinv_instance(basis, rng):
    """The flags of a seeded float instance of ``basis`` and the exact argument of the same
    values, each float read as its Fraction: 2 to 6 nodes k/4 + e with |e| < 0.05, or 1 to 3
    nodes k/2 + e at confluencies 1 to 3 for Hermite; recurrences of degree 1 to 5 with alpha
    in +-[0.5, 2] and beta, gamma in [-1, 1]."""
    if basis == "recurrence":
        degree = rng.randint(1, 5)
        abg = [[rng.choice((-1, 1)) * rng.uniform(0.5, 2) for _ in range(degree)],
               *([rng.uniform(-1, 1) for _ in range(degree)] for _ in range(2))]
        flags = [x for flag, c in zip(("--alpha", "--beta", "--gamma"), abg) for x in (flag, ",".join(map(repr, c)))]
        return flags, (RecurrenceSpec(*([Fraction(x) for x in c] for c in abg)), degree)
    hermite = basis == "hermite"
    ts = [k / 4 + rng.uniform(-0.05, 0.05)
          for k in rng.sample(range(-4, 5, 1 + hermite), rng.randint(1, 3) if hermite else rng.randint(2, 6))]
    conf = [rng.randint(1, 3) if hermite else 1 for _ in ts]
    flags = ["--nodes", ",".join(map(repr, ts))] + ["--confluency", ",".join(map(str, conf))] * hermite
    return flags, NodeSet([Fraction(t) for t in ts], conf)


# the worst relative row error of the printed float --pinv over seeds 0-49 of
# ``_float_pinv_instance``, in units of u = 2^-53
_PINV_MEASURED_WORST = {"newton": 14.4, "lagrange": 81.9, "hermite": 1757.9, "recurrence": 21.5}

# dyadic instances of dimension 3 on which every float operation of --pinv is exact: (flags, exact argument)
_PINV_EXACT_CASES = {
    "newton": [(["--nodes", "0.5,-1,2"], NodeSet([Fraction(1, 2), -1, 2]))],
    "lagrange": [(["--nodes", "0,1,2"], NodeSet([0, 1, 2])), (["--nodes=-1,1,3"], NodeSet([-1, 1, 3]))],
    "hermite": [(["--nodes", "0.5", "--confluency", "3"], NodeSet([Fraction(1, 2)], [3])),
                (["--nodes", "0,1", "--confluency", "2,1"], NodeSet([0, 1], [2, 1])),
                (["--nodes=-0.5,1.5", "--confluency", "2,1"], NodeSet([Fraction(-1, 2), Fraction(3, 2)], [2, 1]))],
    "recurrence": [
        (["--alpha", "2,0.5", "--beta", "1,-0.25", "--gamma", "0,1.5"],
         (RecurrenceSpec([2, Fraction(1, 2)], [1, Fraction(-1, 4)], [0, Fraction(3, 2)]), 2)),
        (["--alpha", "1,-2", "--beta", "0.5,1", "--gamma", "3,-0.5"],
         (RecurrenceSpec([1, -2], [Fraction(1, 2), 1], [3, Fraction(-1, 2)]), 2))],
}


def _float_pinv_row_errors(capsys, basis, flags, exact):
    """Relative row errors of the printed float --pinv against the exact pseudo-inverse of
    ``exact``, the same inputs as Fractions, through ``orc.row_forward_errors``."""
    code, out, _ = run_cli(capsys, ["matrix", "--basis", basis, *flags, "--field", "real", "--pinv"])
    assert code == 0, flags
    family = FAMILIES[basis]
    E = _structured_pinv(family.diff_matrix(exact), family.basis(exact))
    return orc.row_forward_errors([list(map(float, line.split(","))) for line in out.splitlines()],
                                  E._int_rows())


@pytest.mark.parametrize("basis", list(_PINV_MEASURED_WORST))
def test_float_pinv_forward_error_against_the_exact_pseudo_inverse(capsys, basis):
    """Float --pinv runs the float images, V, ``invert_matrix`` and product, which no exact
    request reaches.  Seeded instances are held to ten times the worst error measured on them
    (``_PINV_MEASURED_WORST``; over seeds 0-999 the worst read 14.4 u for Newton, 225.3 u for
    Lagrange, 15485 u for Hermite, where confluent nodes make V ill-conditioned, and 39.7 u for
    recurrences), and the dyadic cases, whose every float operation is exact, to 0."""
    for seed in range(50):
        flags, exact = _float_pinv_instance(basis, random.Random(seed))
        worst = max(_float_pinv_row_errors(capsys, basis, flags, exact))
        assert worst <= 10 * _PINV_MEASURED_WORST[basis] / 2 ** 53, (seed, flags, worst * 2 ** 53)
    for flags, exact in _PINV_EXACT_CASES[basis]:
        assert _float_pinv_row_errors(capsys, basis, flags, exact) == [0.0] * 3, flags


def test_matrix_one_center_newton_reports_requested_field(capsys):
    # one center leaves the recurrence empty, so only the requested field
    # can say what the 1x1 zero matrix is made of
    code, out, _ = run_cli(capsys, [
        "matrix", "--basis", "newton", "--nodes", "3", "--field", "real", "--format", "json"])
    assert code == 0
    assert json.loads(out) == {
        "basis": "newton", "dimension": 1, "field": "real", "entries": [["0.0"]]}


# ---------------------------------------------------------------- every family

def _structured_pinv(D, basis):
    return pseudo_inverse(D, build_V(monomial_images(basis)))


_NODES = NodeSet([Fraction(-1), Fraction(1, 2), Fraction(2)])
_CONFLUENT = NodeSet([Fraction(0), Fraction(1)], [2, 1])
_REC = RecurrenceSpec([1, 2, 3], [1, 0, 1], [0, 1, 1])

# basis -> (instance flags, D built directly, the --pinv companion of D)
REGISTRY_CASES = {
    "monomial": (
        ["--degree", "3"],
        lambda: diff_matrix_degree_graded(monomial_recurrence(3), 3),
        lambda D: _structured_pinv(D, monomial_basis(3))),
    "chebyshev": (
        ["--degree", "3"],
        lambda: chebyshev_diff_matrix(3),
        lambda D: chebyshev_antideriv_matrix(3)),
    "legendre": (
        ["--degree", "3"],
        lambda: diff_matrix_degree_graded(legendre_recurrence(3), 3),
        lambda D: legendre_antideriv_matrix(3)),
    "newton": (
        ["--nodes=-1,1/2,2"],
        lambda: newton_diff_matrix(_NODES),
        lambda D: _structured_pinv(D, newton_basis(_NODES))),
    "lagrange": (
        ["--nodes=-1,1/2,2"],
        lambda: diff_matrix_lagrange(_NODES),
        lambda D: _structured_pinv(D, LagrangeBasis(_NODES))),
    "hermite": (
        ["--nodes", "0,1", "--confluency", "2,1"],
        lambda: diff_matrix_hermite(_CONFLUENT),
        lambda D: _structured_pinv(D, HermiteBasis(_CONFLUENT))),
    "bernstein": (
        ["--degree", "3"],
        lambda: diff_matrix_bernstein(3),
        lambda D: _structured_pinv(D, BernsteinBasis(3))),
    "recurrence": (
        ["--alpha", "1,2,3", "--beta", "1,0,1", "--gamma", "0,1,1"],
        lambda: diff_matrix_degree_graded(_REC, 3),
        lambda D: _structured_pinv(D, DegreeGradedBasis(_REC, 3))),
}


def parse_csv_matrix(text):
    return DenseMatrix.from_rows(
        [[Fraction(e) for e in line.split(",")] for line in text.splitlines()])


def test_registry_cases_cover_every_basis():
    assert tuple(REGISTRY_CASES) == tuple(FAMILIES)


@pytest.mark.parametrize("basis", REGISTRY_CASES)
def test_matrix_every_basis(capsys, basis):
    flags, construct, _ = REGISTRY_CASES[basis]
    code, out, err = run_cli(capsys, ["matrix", "--basis", basis, *flags])
    assert code == 0 and err == ""
    assert parse_csv_matrix(out) == construct()


@pytest.mark.parametrize("basis", REGISTRY_CASES)
def test_matrix_pinv_every_basis(capsys, basis):
    flags, construct, companion = REGISTRY_CASES[basis]
    code, out, err = run_cli(capsys, ["matrix", "--basis", basis, *flags, "--pinv"])
    assert code == 0 and err == ""
    D = construct()
    Dp = parse_csv_matrix(out)
    assert Dp == companion(D)
    assert verify_generalized_inverse(D, Dp)


@pytest.mark.parametrize("basis", ["monomial", "chebyshev", "legendre", "bernstein"])
def test_exact_matrices_print_in_floating_fields_as_their_promoted_fractions(capsys, basis):
    # the constructor promotes the exact matrix; every field's text is the per-entry format_scalar join
    family = FAMILIES[basis]
    for degree in (0, 1, 7, 40):
        D = family.diff_matrix(degree)
        for pinv, M in ((False, D), (True, family.antideriv(degree) if family.antideriv
                                     else _structured_pinv(D, family.basis(degree)))):
            assert M._entries is None   # held as integer rows, which the command prints from
            for field in (Field.REAL, Field.COMPLEX):
                promoted = DenseMatrix(M.rows, M.cols, M.entries, field)
                rows = [[format_scalar(e) for e in promoted.row(i)] for i in range(M.rows)]
                want = {"csv": "".join(",".join(r) + "\n" for r in rows),
                        "json": json.dumps({"basis": basis, "dimension": M.rows, "field": field.value,
                                            "entries": rows}, indent=2) + "\n"}
                for fmt, text in want.items():
                    argv = ["matrix", "--basis", basis, "--degree", str(degree), "--field", field.value,
                            "--format", fmt] + ["--pinv"] * pinv
                    assert run_cli(capsys, argv) == (0, text, ""), argv


def test_matrix_looks_up_constructor_at_call_time(monkeypatch, capsys):
    argv = ["matrix", "--basis", "chebyshev", "--degree", "2"]
    _, before, _ = run_cli(capsys, argv)
    monkeypatch.setattr(polydiff.degree_graded, "chebyshev_diff_matrix",
                        lambda n: DenseMatrix.identity(n + 1))
    code, after, _ = run_cli(capsys, argv)
    assert code == 0
    assert before == "0,1,0\n0,0,4\n0,0,0\n"
    assert after == "1,0,0\n0,1,0\n0,0,1\n"


@pytest.mark.parametrize("argv", [
    ["matrix", "--basis", "monomial", "--degree", "2", "--nodes", "0,1"],
    ["matrix", "--basis", "monomial", "--degree", "2", "--confluency", "1,1"],
    ["matrix", "--basis", "lagrange", "--nodes", "0,1", "--degree", "3"],
    ["matrix", "--basis", "lagrange"],
    ["matrix", "--basis", "monomial"],
    ["matrix", "--basis", "recurrence"],
    ["matrix", "--basis", "chebyshev", "--degree", "3", "--alpha", "1"],
    ["matrix", "--basis", "lagrange", "--nodes", "0,x"],
    ["matrix", "--basis", "lagrange", "--nodes", "0,1,1"],
    ["matrix", "--basis", "hermite", "--nodes", "0,1", "--confluency", "2"],
    ["weights", "--nodes", "@/no/such/file"],
    ["experiment", "--which", "hermite-norms", "--confluency", "0"],
    ["experiment", "--which", "lagrange-error", "--confluency", "2"],
    ["experiment", "--which", "hermite-norms", "--n", "3,x"],
    ["matrix", "--basis", "monomial", "--degree", "2", "--alpha="],
    ["matrix", "--basis", "bernstein", "--degree", "2", "--beta="],
    ["matrix", "--basis", "lagrange", "--nodes", "0,1", "--gamma="],
])
def test_usage_errors_exit_2(capsys, argv):
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert err.startswith("polydiff: error:")


# every instance flag with a value that suits the REGISTRY_CASES instances (three nodes)
_INSTANCE_FLAG_VALUES = {"degree": "2", "nodes": "-1,1/2,2", "confluency": "1,1,1",
                         "alpha": "1,2,3", "beta": "1,0,1", "gamma": "0,1,1"}
# per Family.arg: the flags that apply, the first one required
_APPLIES = {"degree": ("degree",), "nodes": ("nodes", "confluency"),
            "recurrence": ("alpha", "beta", "gamma", "degree")}


@pytest.mark.parametrize("flag", _INSTANCE_FLAG_VALUES)
@pytest.mark.parametrize("basis", REGISTRY_CASES)
def test_each_instance_flag_applies_or_is_refused_by_name(capsys, basis, flag):
    own = REGISTRY_CASES[basis][0]
    named = any(tok.split("=")[0] == f"--{flag}" for tok in own)
    extra = [] if named else [f"--{flag}={_INSTANCE_FLAG_VALUES[flag]}"]
    code, out, err = run_cli(capsys, ["matrix", "--basis", basis, *own, *extra])
    if flag in _APPLIES[FAMILIES[basis].arg]:
        assert (code, err) == (0, "") and out
    else:
        assert (code, out) == (2, "")
        assert err == f"polydiff: error: --{flag} does not apply to --basis {basis}\n"


@pytest.mark.parametrize("basis", REGISTRY_CASES)
def test_the_first_instance_flag_is_required_and_strays_are_named_in_parser_order(capsys, basis):
    applies = _APPLIES[FAMILIES[basis].arg]
    assert run_cli(capsys, ["matrix", "--basis", basis]) == (
        2, "", f"polydiff: error: --basis {basis} requires --{applies[0]}\n")
    strays = [f for f in _INSTANCE_FLAG_VALUES if f not in applies]
    # given last to first, still the first in the parser's order is named, before the missing flag
    argv = ["matrix", "--basis", basis] + [f"--{f}={_INSTANCE_FLAG_VALUES[f]}" for f in reversed(strays)]
    assert run_cli(capsys, argv) == (
        2, "", f"polydiff: error: --{strays[0]} does not apply to --basis {basis}\n")


# x^2 = 1e-600 phi_2 underflows, so the float V = M diag(1/k!) has a zero column; the exact V is invertible
_V_UNDERFLOWS = ["matrix", "--basis", "recurrence", "--alpha", "1e-300,1e-300", "--field", "real", "--pinv"]
# 1e160^2 is past the float range: the images M of x^0, x^1, x^2 cannot be formed
_POWER_OVERFLOWS = [["matrix", "--basis", "hermite", "--nodes", "1e160", "--confluency", "3", "--field", field, "--pinv"]
                    for field in ("real", "complex")]


@pytest.mark.parametrize("argv", [
    ["matrix", "--basis", "lagrange", "--field", "real", "--nodes", "nan,nan,1"],
    ["matrix", "--basis", "lagrange", "--field", "real", "--nodes", "0,inf"],
    # the node products underflow to zero, or overflow, in double precision
    ["experiment", "--which", "lagrange-error", "--n", "1100"],
    ["matrix", "--basis", "lagrange", "--field", "real", "--nodes", "0,1e200,-1e200"],
    # non-finite recurrence coefficients, like non-finite nodes
    ["matrix", "--basis", "recurrence", "--field", "real", "--alpha", "1,nan", "--beta", "0,0"],
    ["matrix", "--basis", "recurrence", "--field", "real", "--alpha", "1,1", "--beta", "0,inf"],
    ["matrix", "--basis", "recurrence", "--field", "real", "--alpha", "1,1", "--gamma", "0,-inf"],
    ["matrix", "--basis", "recurrence", "--field", "complex", "--alpha", "1,nan+1i"],
    # finite inputs whose printed result would hold inf or nan
    ["matrix", "--basis", "lagrange", "--nodes", "1e-320,2e-320", "--field", "real"],
    ["matrix", "--basis", "recurrence", "--alpha", "1e300,1e-300", "--beta", "1e300,1",
     "--field", "real", "--pinv"],
    ["weights", "--nodes", "1e-320,2e-320", "--field", "real"],
    # exact results whose integers pass Python's integer-to-text digit limit
    ["matrix", "--basis", "lagrange", "--nodes", "0,1e-2200,1"],
    ["weights", "--nodes", "0,1e-2200,1"],
    # an exact node written with more digits than Python turns into an integer
    ["weights", "--nodes", "0,1" + "0" * 4400],
    # a float basis-change matrix that loses its rank
    _V_UNDERFLOWS,
    # a power of a node in the monomial images overflows
    *_POWER_OVERFLOWS,
])
def test_float_breakdown_exits_2_without_traceback(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("polydiff: error:") and err.count("\n") == 1
    assert "Traceback" not in err
    # the message speaks of the package, not of the interpreter's settings
    assert "set_int_max_str_digits" not in err
    # it echoes at most 40 characters of a value, and names the digit limit
    # when a value passes it
    values = [v for arg in argv for v in arg.split(",")]
    assert not any(v[:41] in err for v in values if len(v) > 40)
    limit = sys.get_int_max_str_digits()
    if any(len(v) > limit for v in values):
        assert f"more than {limit} digits" in err
    # a float V that loses its rank is floating-point breakdown, not a singular matrix
    assert (err == "polydiff: error: arithmetic failure: the basis-change matrix V is singular "
                   "in floating point\n") == (argv == _V_UNDERFLOWS)
    # an overflowing power is named by its node and its exponent
    node = "1e+160" if "real" in argv else "(1e+160+0j)"
    assert (err == f"polydiff: error: arithmetic failure: x^2 at node t_0 = {node} is outside the "
                   "floating-point range\n") == (argv in _POWER_OVERFLOWS)


@pytest.mark.parametrize("argv, message", [
    (["matrix", "--basis", "bernstein", "--degree", "-1"], "degree must be nonnegative"),
    (["matrix", "--basis", "hermite", "--nodes", "0,1", "--confluency", "1,2,3"], "2 nodes but 3 confluencies"),
    (["matrix", "--basis", "lagrange", "--nodes", "1,2", "--confluency", "2,1"],
     "barycentric weights need simple nodes; see gen_bary_weights"),
    (["matrix", "--basis", "recurrence", "--alpha", "1,2", "--degree", "5"],
     "degree 5 needs 5 recurrence terms, got 2"),
    (["matrix", "--basis", "recurrence", "--alpha", "1,2", "--degree", "5", "--pinv"],
     "degree 5 needs 5 recurrence terms, got 2"),
])
def test_instance_rules_print_the_descriptors_message(capsys, argv, message):
    # the CLI holds no instance check of its own: it prints what the basis descriptor raises
    assert run_cli(capsys, argv) == (2, "", f"polydiff: error: {message}\n")


@pytest.mark.parametrize("flags, message", [
    (["--which", "lagrange-error", "--confluency", "2"], "lagrange-error runs at confluency 1"),
    (["--which", "hermite-norms", "--confluency", "0"], "confluencies must be at least 1"),
    (["--which", "hermite-error", "--confluency", "-1"], "confluencies must be at least 1"),
    # the sizes are read before any confluency rule applies
    (["--which", "hermite-norms", "--n", "3,x", "--confluency", "0"],
     "expected a comma list of integers, got '3,x'"),
])
def test_experiment_rules_print_the_library_message(capsys, flags, message):
    # the CLI holds no confluency rule of its own: it prints what run_experiment or NodeSet raises
    assert run_cli(capsys, ["experiment", *flags]) == (2, "", f"polydiff: error: {message}\n")


@pytest.mark.parametrize("which, n, s, why", [
    # without these checks they exited 0: max_err read 0.0 at 718, norm_D inf and norm_Z 0.0 at 240
    ("lagrange-error", 718, 1, "the weight b_346,0 = inf is outside the floating-point range"),
    ("lagrange-error", 717, 1, "max_err is not finite"),
    ("hermite-norms", 240, 3, "the weight b_113,0 = -inf is outside the floating-point range"),
    ("hermite-error", 240, 3, "the weight b_113,0 = -inf is outside the floating-point range"),
])
def test_experiment_exits_2_naming_the_size_and_the_quantity(capsys, which, n, s, why):
    argv = ["experiment", "--which", which, "--nodes", "equispaced", "--n", f"5,{n}"]
    if which != "lagrange-error":
        argv += ["--confluency", str(s)]
    assert run_cli(capsys, argv) == (2, "", f"polydiff: error: arithmetic failure: at n={n}: {why}\n")


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="left-to-right node products pass through subnormals on Chebyshev nodes past n=770, "
                          "so the error is wrong behind exit 0 until the float construction is range-safe")
def test_chebyshev_lagrange_error_past_770_exits_2_or_is_accurate(capsys):
    # at the time of writing each exits 0, with max_err 5.7e-12, 1.2e-10 and 6.2e12
    wrong = []
    for n in (771, 772, 856):
        code, out, _ = run_cli(capsys, ["experiment", "--which", "lagrange-error", "--n", str(n)])
        if code != 2 and not (code == 0 and float(out.splitlines()[-1].split(",")[-1]) <= 1e-13):
            wrong.append((n, code, out.splitlines()[-1]))
    assert wrong == []


def test_exact_exponent_past_the_digit_limit_exits_2(capsys):
    # refused while parsing, before Fraction expands 10 ** 5000
    limit = sys.get_int_max_str_digits()
    assert run_cli(capsys, ["weights", "--nodes", "1e5000,0"]) == (
        2, "", f"polydiff: error: cannot parse '1e5000' as a rational scalar "
               f"(it has more than {limit} digits)\n")


def test_finite_output_with_overflowing_sum_exits_0(capsys):
    # the entries 8e+307 and 1.6e+308 sum past the float range; each is finite
    code, out, err = run_cli(capsys, [
        "matrix", "--basis", "newton", "--nodes=0,-1,-8e307,1", "--field", "real"])
    assert (code, err) == (0, "")
    assert out.splitlines()[:2] == ["0.0,1.0,1.0,8e+307", "0.0,0.0,2.0,1.6e+308"]


def test_unknown_choices_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["matrix", "--basis", "fourier", "--degree", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--which", "bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------- weights command

def test_weights_simple_nodes(capsys):
    code, out, _ = run_cli(capsys, ["weights", "--nodes", "-1,-0.5,0.5,1"])
    assert code == 0
    assert out == "0,0,-2/3\n1,0,4/3\n2,0,-4/3\n3,0,2/3\n"


def test_weights_confluent_nodes(capsys):
    code, out, _ = run_cli(capsys, ["weights", "--nodes", "0,1", "--confluency", "2,1"])
    assert code == 0
    assert out == "0,0,-1\n0,1,-1\n1,0,1\n"


def test_weights_single_node(capsys):
    code, out, _ = run_cli(capsys, ["weights", "--nodes", "0"])
    assert code == 0 and out == "0,0,1\n"


def test_weights_json(capsys):
    code, out, _ = run_cli(capsys, [
        "weights", "--nodes", "0,1", "--confluency", "2,1", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["nodes"] == ["0", "1"]
    assert obj["confluencies"] == [2, 1]
    assert obj["weights"] == [[0, 0, "-1"], [0, 1, "-1"], [1, 0, "1"]]


WEIGHTS_JSON_CASES = {  # field -> one node, simple nodes, confluent nodes
    Field.RATIONAL: [("3/7", None), ("-1,1/3,2", None), ("0,1,-5/2", "2,1,3")],
    Field.REAL: [("0.1", None), ("-1,0.3,2e5", None), ("0,1,-2.5", "2,1,3")],
    Field.COMPLEX: [("1-i", None), ("1,i,-1,-i", None), ("-0.5i,1,2+i", "3,1,2")],
}


@pytest.mark.parametrize("field,nodes,confluency", [
    (field, *case) for field, cases in WEIGHTS_JSON_CASES.items() for case in cases])
def test_weights_json_is_the_text_of_the_indented_dump(capsys, field, nodes, confluency):
    argv = ["weights", f"--nodes={nodes}", "--field", field.value, "--format", "json"]
    code, out, _ = run_cli(capsys, argv + (["--confluency", confluency] if confluency else []))
    ns = NodeSet([parse_scalar(t, field) for t in nodes.split(",")],
                 confluency and map(int, confluency.split(",")))
    w = polydiff.hermite.gen_bary_weights(ns).weights
    record = {"nodes": [format_scalar(t) for t in ns.nodes], "confluencies": list(ns.confluencies),
              "field": field.value,
              "weights": [[i, j, format_scalar(b)] for i, wi in enumerate(w) for j, b in enumerate(wi)]}
    assert code == 0 and out == json.dumps(record, indent=2) + "\n"


def test_weights_nodes_from_file(tmp_path, capsys):
    f = tmp_path / "nodes"
    f.write_text("0 1\n3")
    code, out, _ = run_cli(capsys, ["weights", "--nodes", f"@{f}"])
    assert code == 0
    assert out == "0,0,1/3\n1,0,-1/2\n2,0,1/6\n"


# ---------------------------------------------------------------- verify command

def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, ["verify"])
    assert code == 0
    assert ", 0 failed" in out.splitlines()[-1]
    assert "FAIL" not in out


def test_verify_basis_filter(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--basis", "bernstein"])
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS bernstein-") for line in lines[:-1])


def test_run_checks_names_the_known_bases_for_an_unknown_one():
    with pytest.raises(ValueError) as exc:
        polydiff.verify.run_checks("nope")
    assert str(exc.value) == f"unknown basis 'nope'; expected one of {polydiff.verify.KNOWN_BASES}"
    assert "hermite" in polydiff.verify.KNOWN_BASES and "recurrence" not in polydiff.verify.KNOWN_BASES


def test_verify_detects_corruption(monkeypatch, capsys):
    def corrupt(n):
        return DenseMatrix.identity(n + 1)
    monkeypatch.setattr(polydiff.bernstein, "diff_matrix_bernstein", corrupt)
    code, out, _ = run_cli(capsys, ["verify", "--basis", "bernstein"])
    assert code == 1
    assert "FAIL bernstein-reference-matrix" in out


def test_verify_detects_corrupted_hermite_in_family_checks(monkeypatch, capsys):
    original = polydiff.hermite.diff_matrix_hermite
    monkeypatch.setattr(polydiff.hermite, "diff_matrix_hermite", lambda ns: original(ns) * 2)
    code, out, _ = run_cli(capsys, ["verify"])
    assert code == 1
    assert "FAIL jordan-similarity: D V != V J in hermite" in out


def _doubled(constructor):
    return lambda *args: constructor(*args) * 2


def _identity(constructor):
    return lambda *args: DenseMatrix.identity(constructor(*args).rows)


def _first_weight_doubled(constructor):
    # b_00 doubled: _doubled would repeat the GenBaryWeights tuple instead
    def corrupted(*args):
        w = constructor(*args)
        return w._replace(weights=((2 * w.weights[0][0], *w.weights[0][1:]), *w.weights[1:]))
    return corrupted


@pytest.mark.parametrize("module,name,corrupt,basis,failed", [
    ("degree_graded", "diff_matrix_degree_graded", _doubled, "monomial",
     {"monomial-explicit-vs-recurrence"}),
    ("degree_graded", "chebyshev_diff_matrix", _doubled, "chebyshev",
     {"chebyshev-explicit-vs-recurrence", "chebyshev-antideriv-inverts"}),
    ("degree_graded", "newton_diff_matrix", _doubled, "newton",
     {"newton-equal-centers-monomial", "newton-conjugation-oracle"}),
    ("lagrange", "diff_matrix_lagrange", _doubled, "lagrange",
     {"lagrange-reference-matrix", "lagrange-monomial-exactness", "lagrange-conjugation-oracle"}),
    ("hermite", "diff_matrix_hermite", _doubled, "hermite",
     {"hermite-reference-matrix", "hermite-confluency-one-is-lagrange",
      "hermite-conjugation-oracle"}),
    ("bernstein", "diff_matrix_bernstein", _doubled, "bernstein",
     {"bernstein-reference-matrix", "bernstein-norm-identities", "bernstein-conjugation-oracle"}),
    ("degree_graded", "legendre_antideriv_matrix", _doubled, "legendre",
     {"legendre-antideriv-inverts"}),
    ("degree_graded", "chebyshev_antideriv_matrix", _doubled, "chebyshev",
     {"chebyshev-antideriv-inverts"}),
    # doubling keeps the constant's derivative zero and the nilpotency
    # index; the identity breaks both
    ("lagrange", "diff_matrix_lagrange", _identity, "lagrange",
     {"lagrange-reference-matrix", "lagrange-row-sums-vanish", "lagrange-monomial-exactness",
      "lagrange-conjugation-oracle", "lagrange-nilpotency-index"}),
    ("hermite", "diff_matrix_hermite", _identity, "hermite",
     {"hermite-reference-matrix", "hermite-confluency-one-is-lagrange",
      "hermite-constant-annihilation", "hermite-conjugation-oracle", "hermite-nilpotency-index"}),
    ("degree_graded", "monomial_diff_matrix", _doubled, "monomial", {"monomial-explicit-vs-recurrence"}),
    ("degree_graded", "legendre_diff_matrix", _doubled, "legendre",
     {"legendre-row-pattern", "legendre-antideriv-inverts"}),
    ("hermite", "gen_bary_weights", _first_weight_doubled, "hermite", {"hermite-partial-fractions"}),
], ids=lambda v: v.__name__.strip("_") if callable(v) else v if isinstance(v, str) else "")
def test_verify_fails_exactly_the_checks_of_a_corrupted_constructor(
        monkeypatch, capsys, module, name, corrupt, basis, failed):
    namespace = getattr(polydiff, module)
    monkeypatch.setattr(namespace, name, corrupt(getattr(namespace, name)))
    code, out, _ = run_cli(capsys, ["verify", "--basis", basis])
    assert code == 1
    assert {line.removeprefix("FAIL ").split(":")[0] for line in out.splitlines()
            if line.startswith("FAIL ")} == failed


# ---------------------------------------------------------------- experiment command

def test_experiment_lagrange_error(capsys):
    code, out, _ = run_cli(capsys, [
        "experiment", "--which", "lagrange-error", "--n", "3,5"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# grid: 1001 uniform points on [-1,1]"
    assert lines[1] == "n,node_family,confluency,norm_D,norm_Z,max_err"
    assert len(lines) == 4
    assert lines[2].startswith("3,chebyshev,1,,,")
    assert lines[3].startswith("5,chebyshev,1,,,")


def test_experiment_hermite_defaults(capsys):
    code, out, _ = run_cli(capsys, [
        "experiment", "--which", "hermite-norms", "--n", "3"])
    assert code == 0
    row = out.splitlines()[2].split(",")
    assert row[:3] == ["3", "chebyshev", "3"]
    assert row[3] and row[4] and not row[5]


def test_experiment_equispaced_nodes(capsys):
    code, out, _ = run_cli(capsys, [
        "experiment", "--which", "hermite-error", "--nodes", "equispaced",
        "--confluency", "2", "--n", "4"])
    assert code == 0
    assert out.splitlines()[2].startswith("4,equispaced,2,,,")


def test_experiment_deterministic_output(tmp_path, capsys):
    argv = ["experiment", "--which", "hermite-norms", "--n", "3,5"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second
    target = tmp_path / "r.csv"
    code, out, _ = run_cli(capsys, argv + ["--out", str(target)])
    assert code == 0 and out == ""
    assert target.read_text() == first


def test_parser_tree_is_built_once_and_each_caller_gets_its_own_copy():
    # perfbench's tracer wraps parse_args on the parser it is handed; on a
    # shared parser the wrappers would nest one deeper with every request
    first, second = build_parser(), build_parser()
    first.parse_args = None
    assert second.parse_args(["verify", "--basis", "bernstein"]).basis == "bernstein"
    assert main(["verify", "--basis", "bernstein"]) == 0
    # a subcommand's parser is handed out as a copy too
    one, other = build_parser("matrix"), build_parser("matrix")
    assert one is not other
    one.parse_args = None
    assert "parse_args" not in vars(other) and "parse_args" not in vars(_parser_tree().commands["matrix"])
    assert other.parse_args(["matrix", "--basis", "monomial", "--degree", "2"]).degree == 2
    assert _parser_tree.cache_info().misses == 1


def _outputs(call):
    """Exit code, stdout and stderr of ``call()``; argparse's exit stands for the code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call()
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _main_with_the_whole_tree(argv):
    """``main`` as it ran when the whole tree parsed every argv."""
    args = copy.copy(_parser_tree()).parse_args(_absorb_negative_values(argv))
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"polydiff: error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"polydiff: error: arithmetic failure: {exc}", file=sys.stderr)
        return 2


@pytest.mark.parametrize("argv", PARSE_EDGES, ids=" ".join)
def test_main_behaves_as_the_whole_tree_parse(argv):
    assert _outputs(lambda: main(list(argv))) == _outputs(lambda: _main_with_the_whole_tree(list(argv)))
    # where the tree parses, a subcommand's parser gives the same namespace, in the same order
    tree = _outputs(lambda: vars(copy.copy(_parser_tree()).parse_args(_absorb_negative_values(argv))))
    if isinstance(tree[0], dict):
        direct = vars(build_parser(argv[0]).parse_args(_absorb_negative_values(argv)))
        assert list(direct.items()) == list(tree[0].items())


def test_each_request_calls_parse_args_once_on_what_build_parser_returns(monkeypatch):
    # perfbench times the parse by wrapping parse_args on each parser that build_parser returns
    calls = []

    def traced_build_parser(*args):
        parser = build_parser(*args)
        parse = parser.parse_args
        parser.parse_args = lambda argv: calls.append(argv) or parse(argv)
        return parser

    monkeypatch.setattr(polydiff.cli, "build_parser", traced_build_parser)
    requests = [[command, *request] for command, request in REQUESTS.items()]
    for argv in requests + [[*requests[0], "extra"]]:   # the last falls back to the tree
        calls.clear()
        _outputs(lambda: main(argv))
        assert calls == [argv]
