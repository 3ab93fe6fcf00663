"""Property tests of the CLI over generated input.

Every request exits 0 or 2 without an uncaught exception, and a request
that exits 0 prints only finite numbers.  The complex scalar parser
reads every token as the hand-written reference grammar does.
"""

import cmath
import contextlib
import io
from fractions import Fraction

import pytest

from polydiff.cli import main, parse_complex
from polydiff.families import FAMILIES

import _oracles as orc

# subnormal, near-overflow and mixed-scale values, spelled for each field
REALS = ("0", "1", "-1", "0.5", "5e-324", "1e-320", "-2e-310",
         "1e-300", "-1e-300", "1e300", "-1e300", "1.7e308", "-1.7e308")
SCALARS = {"rational": REALS + ("1/3", "-2/7"), "real": REALS,
           "complex": REALS + ("2+1i", "-1i", "1e-320i", "-1e300i", "1e300+1e300i",
                               "1e-300-1e300i")}
MAX_DIM = 8


def _unparsed_as_rational(text: str) -> list:
    """CSV tokens that are not decimal or rational literals, parsed as complex.

    Finite floats print as decimals, so inf, nan and complex values land here.
    """
    out = []
    for tok in filter(None, text.replace("\n", ",").split(",")):
        try:
            Fraction(tok)
        except ValueError:
            out.append(parse_complex(tok))
    return out


def test_cli_exit_codes_and_finite_output():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def requests(draw):
        field = draw(st.sampled_from(tuple(SCALARS)))
        scalars = st.sampled_from(SCALARS[field])
        command = draw(st.sampled_from(tuple(FAMILIES) + ("weights",)))
        if command == "weights":
            argv, arg = ["weights"], "nodes"
        else:
            argv, arg = ["matrix", "--basis", command], FAMILIES[command].arg
        if arg == "degree":
            argv += ["--degree", str(draw(st.integers(0, MAX_DIM - 1)))]
        elif arg == "nodes":
            nodes = draw(st.lists(scalars, min_size=1, max_size=MAX_DIM, unique=True))
            argv.append("--nodes=" + ",".join(nodes))
            if command in ("hermite", "weights"):
                budget, conf = MAX_DIM - len(nodes), []
                for _ in nodes:
                    extra = draw(st.integers(0, min(2, budget)))
                    budget -= extra
                    conf.append(str(1 + extra))
                argv += ["--confluency", ",".join(conf)]
        else:
            n = draw(st.integers(1, MAX_DIM - 1))
            for flag in ("--alpha", "--beta", "--gamma"):
                argv.append(f"{flag}=" + ",".join(draw(st.lists(scalars, min_size=n, max_size=n))))
        argv += ["--field", field]
        if command != "weights" and draw(st.booleans()):
            argv.append("--pinv")
        return argv

    @hypothesis.settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @hypothesis.given(requests())
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:   # argparse rejects flags this way
                code = exc.code
        assert code in (0, 2), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code == 0:
            assert all(map(cmath.isfinite, _unparsed_as_rational(out.getvalue()))), argv

    check()


# ASCII and other decimal digits, and every character the grammar gives a role
TOKEN_PIECES = tuple("0123456789") + ("\u0663", "\uff15", "\u0967", "\u07c1") + tuple(
    ".eE+-iIjJ()_ ") + ("inf", "nan")
# the same characters in the shape sign, number, sign, number, unit
SIGNS = ("", "+", "-")
NUMBERS = ("", "", "0", "2.5", ".5", "1e3", "4E-2", "1_0", "\u0663", "\uff15.\u0967e1",
           "inf", "nan", "1e", "_1")
UNITS = ("", "i", "I", "j", "J", ")")


def _outcome(parse, token):
    try:
        return repr(parse(token))
    except ValueError:
        return "ValueError"


def test_complex_parser_matches_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def tokens(draw):
        if draw(st.integers(0, 2)) == 0:
            pieces = draw(st.lists(st.sampled_from(TOKEN_PIECES), max_size=10))
        else:
            pieces = [draw(st.sampled_from(choices))
                      for choices in (SIGNS, NUMBERS, SIGNS, NUMBERS, UNITS)]
            if draw(st.integers(0, 9)) == 0:
                pieces.insert(0, "(")
        for _ in range(draw(st.integers(0, 2))):
            pieces.insert(draw(st.integers(0, len(pieces))), " ")
        return "".join(pieces)

    @hypothesis.settings(max_examples=600, deadline=None, database=None, derandomize=True)
    @hypothesis.given(tokens())
    def check(token):
        assert _outcome(parse_complex, token) == _outcome(orc.parse_complex, token), token

    check()
