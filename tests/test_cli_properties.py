"""Property test of the CLI's error contract over generated argv.

Every request exits 0 or 2 without an uncaught exception, and a request
that exits 0 prints only finite numbers.
"""

import cmath
import contextlib
import io
from fractions import Fraction

import pytest

from polydiff.cli import main, parse_complex
from polydiff.families import FAMILIES

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
