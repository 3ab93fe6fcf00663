"""Digests of the outputs that byte-identity gates compare, for the polydiff on ``PYTHONPATH``.

Prints one line per output, ``<sha256>  <label>``.  First the CLI, ``listing()``,
each digest taken over the exit code, stdout and stderr of one in-process call
of ``polydiff.cli.main``:

- every request of the benchmark's catalogue, ``perfbench/refs/cli_catalogue.json``
  of the checkout this script sits in;
- ``matrix ... --pinv`` in the floating fields, which no catalogue request
  asks for: Newton, Lagrange, Hermite and a recurrence over the reals and
  Lagrange on the fourth roots of unity over the complex numbers, each with the
  floating-point warning on stderr;
- ``weights --format json`` in the floating fields, ``WEIGHTS_JSON``, where the
  catalogue has one real request and no complex one: one node, simple nodes and
  confluent nodes over the reals and over the complex numbers;
- ``experiment`` at its default sizes, each of the three experiments on each of
  the two node families;
- three ``experiment`` requests that exit 2: ``lagrange-error`` at confluency 2,
  ``hermite-norms`` at confluency 0 and ``hermite-norms`` with a size that is not
  an integer;
- ``verify``;
- the parse edge cases, ``PARSE_EDGES``: argvs that the whole argparse tree
  parses (none, help, a first token that is not a subcommand's name, ``--``),
  argvs that a subcommand's own parser parses (``--flag=value``, an
  abbreviated flag, a repeated flag, a leading minus in ``--nodes``, help) and
  argvs whose extras that parser hands back to the tree (``extra``,
  ``--bogus``, a trailing ``--``), under labels ``parse edge <i>: <argv>``.

Then the exact structure kernels, ``structure_listing()``, called directly on
seeded rational instances of every family at dimensions 1-12: the integer rows
of ``invert_matrix`` of the images M and of V, of ``pseudo_inverse``, of
``conjugation_oracle`` and of D V, and the ``nilpotency_index`` of D, one digest
per family and kernel; and the integer rows of M^(-1) for the 41 equispaced
Lagrange nodes on [-1, 1].  ``census.py`` runs ``listing()`` alone.

The catalogue's ``@FILE:`` inputs are written into the working directory and
passed as relative paths, so an error text that names a file reads the same in
every tree.  To compare two trees, run it from an empty directory with one
tree's ``src`` on the path and then the other's, and diff the two listings::

    cd "$(mktemp -d)"
    PYTHONPATH=/path/to/old/src python3 /path/to/new/tests/parity.py > old.txt
    PYTHONPATH=/path/to/new/src python3 /path/to/new/tests/parity.py > new.txt
    diff old.txt new.txt

Standard library only; pytest does not collect it.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from polydiff import experiments
from polydiff.cli import main
from polydiff.core import LagrangeBasis, NodeSet
from polydiff.degree_graded import RecurrenceSpec
from polydiff.families import FAMILIES
from polydiff.structure import (
    build_V,
    conjugation_oracle,
    invert_matrix,
    monomial_images,
    nilpotency_index,
    pseudo_inverse,
)

CATALOGUE = Path(__file__).resolve().parent.parent / "perfbench" / "refs" / "cli_catalogue.json"

FLOAT_PINV = [
    ["--basis", "newton", "--nodes", "-1,-0.5,0.5,1", "--field", "real"],
    ["--basis", "lagrange", "--nodes", "-1,-0.5,0.5,1", "--field", "real"],
    ["--basis", "hermite", "--nodes", "-1,0,1", "--confluency", "2,1,2", "--field", "real"],
    ["--basis", "recurrence", "--alpha", "1,0.5,0.5,0.5", "--beta", "0,0,0,0",
     "--gamma", "0,0.5,0.5,0.5", "--field", "real"],
    ["--basis", "lagrange", "--nodes", "1,i,-1,-i", "--field", "complex"],
]

WEIGHTS_JSON = [
    ["--nodes", "0.1", "--field", "real"],
    ["--nodes", "-1,0.3,2e5", "--field", "real"],
    ["--nodes", "0,1,-2.5", "--confluency", "2,1,3", "--field", "real"],
    ["--nodes", "1-i", "--field", "complex"],
    ["--nodes", "1,i,-1,-i", "--field", "complex"],
    ["--nodes", "-0.5i,1,2+i", "--confluency", "3,1,2", "--field", "complex"],
]

EXPERIMENT_REFUSALS = [
    ["--which", "lagrange-error", "--confluency", "2"],
    ["--which", "hermite-norms", "--confluency", "0"],
    ["--which", "hermite-norms", "--n", "3,x"],
]

# one valid request per subcommand, and argvs that take each way through the parser
REQUESTS = {"matrix": ["--basis", "monomial", "--degree", "3"], "weights": ["--nodes", "0,1,2"],
            "verify": ["--basis", "bernstein"], "experiment": ["--which", "hermite-norms", "--n", "3"]}
PARSE_EDGES = [
    [], ["-h"], ["--help"],
    *([*lead, *REQUESTS["matrix"]] for lead in (["mat"], ["MATRIX"], ["-x"], ["--"], ["--", "matrix"])),
    ["matrix", "--basis=monomial", "--degree=3"], ["matrix", "--basis", "monomial", "--deg", "3"],
    ["matrix", "--basis", "monomial", "--degree", "3", "--degree", "4"], ["matrix"],
    ["matrix", "--basis", "lagrange", "--nodes", "-1,0,1"], ["weights", "--nodes", "-1,0,1"],
    *([command, *tail] for command, request in REQUESTS.items()
      for tail in (["-h"], [*request, "-h"], [*request, "extra"], [*request, "extra", "more"],
                   ["--bogus", *request], [*request, "--bogus"], [*request, "--"])),
]


def digest(argv: list[str]) -> str:
    """sha256 of the exit code, stdout and stderr of one CLI call; an escaping exception stands for the code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse rejects flags this way
            code = exc.code
        except Exception as exc:   # a traceback is an output too
            code = f"uncaught {type(exc).__name__}: {exc}"
    return hashlib.sha256(json.dumps([code, out.getvalue(), err.getvalue()]).encode()).hexdigest()


def _instance(name: str, dim: int, rng: random.Random):
    """A seeded rational instance of family ``name`` with dimension ``dim``."""
    def rationals(count):
        pool = sorted({Fraction(p, q) for p in range(-9, 10) if p for q in range(1, 6)})
        return rng.sample(pool, count)
    arg = FAMILIES[name].arg
    if arg == "degree":
        return dim - 1
    if arg == "recurrence":
        return RecurrenceSpec(*(rationals(dim - 1) for _ in range(3))), dim - 1
    count = rng.randint(1, dim) if name == "hermite" else dim
    conf = [1] * count
    for _ in range(dim - count):
        conf[rng.randrange(count)] += 1
    return NodeSet(rationals(count), conf)


def _rows_digest(values) -> str:
    """sha256 of a list of integers and matrices, each matrix as its integer rows."""
    return hashlib.sha256(json.dumps([v if isinstance(v, int) else v._int_rows()
                                      for v in values]).encode()).hexdigest()


def structure_listing() -> list[str]:
    """One digest per family and exact structure kernel over dimensions 1-12, and the 41-node M^(-1)."""
    lines = []
    for name, family in FAMILIES.items():
        rng, kernels = random.Random(name), {}
        for dim in range(1, 13):
            arg = _instance(name, dim, rng)
            basis, D = family.basis(arg), family.diff_matrix(arg)
            M = monomial_images(basis)
            V = build_V(M)
            for kernel, value in [("inverse of M", invert_matrix(M)), ("inverse of V", invert_matrix(V)),
                                  ("pseudo_inverse", pseudo_inverse(D, V)),
                                  ("conjugation_oracle", conjugation_oracle(basis)),
                                  ("D V", D * V), ("nilpotency_index", nilpotency_index(D))]:
                kernels.setdefault(kernel, []).append(value)
        lines += [f"{_rows_digest(values)}  structure {name} 1-12: {kernel}"
                  for kernel, values in kernels.items()]
    M = monomial_images(LagrangeBasis(NodeSet([Fraction(k - 20, 20) for k in range(41)])))
    lines.append(f"{_rows_digest([invert_matrix(M)])}  structure lagrange 41 equispaced: inverse of M")
    return lines


def listing() -> list[str]:
    catalogue = json.loads(CATALOGUE.read_text())
    for name, text in catalogue["files"].items():
        Path(name).write_text(text)
    runs = [(f"catalogue {i}: " + " ".join(req["argv"]),
             [f"@{tok[6:]}" if tok.startswith("@FILE:") else tok for tok in req["argv"]])
            for i, req in enumerate(catalogue["requests"])]
    runs += [(f"float pinv {i}: matrix " + " ".join(flags), ["matrix", *flags, "--pinv"])
             for i, flags in enumerate(FLOAT_PINV)]
    runs += [(f"weights json {i}: weights " + " ".join(flags), ["weights", *flags, "--format", "json"])
             for i, flags in enumerate(WEIGHTS_JSON)]
    runs += [(f"experiment {which} {nodes}", ["experiment", "--which", which, "--nodes", nodes])
             for which in experiments.EXPERIMENTS for nodes in experiments.NODE_FAMILIES]
    runs += [(f"experiment refusal {i}: " + " ".join(flags), ["experiment", *flags])
             for i, flags in enumerate(EXPERIMENT_REFUSALS)]
    runs.append(("verify", ["verify"]))
    runs += [(f"parse edge {i}: " + " ".join(argv), argv) for i, argv in enumerate(PARSE_EDGES)]
    return [f"{digest(argv)}  {label}" for label, argv in runs]


if __name__ == "__main__":
    print("polydiff from", Path(sys.modules["polydiff"].__file__).parent, file=sys.stderr)
    print("\n".join(listing() + structure_listing()))
