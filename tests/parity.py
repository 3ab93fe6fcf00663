"""Digests of the CLI outputs that byte-identity gates compare, for the polydiff on ``PYTHONPATH``.

Prints one line per output, ``<sha256>  <label>``, each digest taken over the
exit code, stdout and stderr of one in-process call of ``polydiff.cli.main``:

- every request of the benchmark's catalogue, ``perfbench/refs/cli_catalogue.json``
  of the checkout this script sits in;
- ``matrix ... --pinv`` in the floating fields, which no catalogue request
  asks for: Newton, Lagrange, Hermite and a recurrence over the reals and
  Lagrange on the fourth roots of unity over the complex numbers, each with the
  floating-point warning on stderr;
- ``experiment`` at its default sizes, each of the three experiments on each of
  the two node families;
- ``verify``.

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
import sys
from pathlib import Path

from polydiff import experiments
from polydiff.cli import main

CATALOGUE = Path(__file__).resolve().parent.parent / "perfbench" / "refs" / "cli_catalogue.json"

FLOAT_PINV = [
    ["--basis", "newton", "--nodes", "-1,-0.5,0.5,1", "--field", "real"],
    ["--basis", "lagrange", "--nodes", "-1,-0.5,0.5,1", "--field", "real"],
    ["--basis", "hermite", "--nodes", "-1,0,1", "--confluency", "2,1,2", "--field", "real"],
    ["--basis", "recurrence", "--alpha", "1,0.5,0.5,0.5", "--beta", "0,0,0,0",
     "--gamma", "0,0.5,0.5,0.5", "--field", "real"],
    ["--basis", "lagrange", "--nodes", "1,i,-1,-i", "--field", "complex"],
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


def listing() -> list[str]:
    catalogue = json.loads(CATALOGUE.read_text())
    for name, text in catalogue["files"].items():
        Path(name).write_text(text)
    runs = [(f"catalogue {i}: " + " ".join(req["argv"]),
             [f"@{tok[6:]}" if tok.startswith("@FILE:") else tok for tok in req["argv"]])
            for i, req in enumerate(catalogue["requests"])]
    runs += [(f"float pinv {i}: matrix " + " ".join(flags), ["matrix", *flags, "--pinv"])
             for i, flags in enumerate(FLOAT_PINV)]
    runs += [(f"experiment {which} {nodes}", ["experiment", "--which", which, "--nodes", nodes])
             for which in experiments.EXPERIMENTS for nodes in experiments.NODE_FAMILIES]
    runs.append(("verify", ["verify"]))
    return [f"{digest(argv)}  {label}" for label, argv in runs]


if __name__ == "__main__":
    print("polydiff from", Path(sys.modules["polydiff"].__file__).parent, file=sys.stderr)
    print("\n".join(listing()))
