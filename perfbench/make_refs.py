"""Write the stored references the benchmark checks outputs against.

    python3 perfbench/make_refs.py

Run from the repository root.  It runs the program in this checkout
and records what it prints: the conditioning records, and for every
request in the CLI catalogue its exit code plus either the SHA-256 of
its output (exact and error requests) or a numeric fingerprint (float
requests).  The references pin today's output, so regenerate them only
when an output change is deliberate, and say so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
CATALOGUE_SEED = 1809_05769


def _rational(rng) -> str:
    num, den = rng.randint(-9, 9), rng.randint(1, 6)
    return str(num) if den == 1 else f"{num}/{den}"


def _distinct(rng, count, draw) -> list:
    """``count`` drawn tokens with pairwise different values."""
    out = []
    while len(out) < count:
        v = draw(rng)
        if not any(eval_token(v) == eval_token(u) for u in out):
            out.append(v)
    return out


def eval_token(tok: str) -> complex:
    try:
        return complex(Fraction(tok))
    except ValueError:
        return wl.parse_scalar_text(tok)


def _nodes_arg(values) -> list:
    # "--nodes -1,..." relies on the CLI's own handling of a leading minus
    return ["--nodes", ",".join(values)]


def _complex(rng) -> str:
    re, im = rng.randint(-4, 4) / 2, rng.randint(-4, 4) / 2
    sign = "-" if im < 0 else "+"
    return f"{re}{sign}{abs(im)}i"


def node_files() -> dict:
    cheb = lambda n: [repr(math.cos(math.pi * (n - j) / n)) for j in range(n + 1)]
    rng = random.Random(CATALOGUE_SEED)
    rand = sorted({round(rng.uniform(-1, 1), 12) for _ in range(100)})
    return {
        "cheb165.txt": "\n".join(cheb(165)) + "\n",
        "cheb40.txt": ",".join(cheb(40)) + "\n",
        "cheb20.txt": " ".join(cheb(20)) + "\n",
        "equi60.txt": ",".join(repr(-1.0 + 2.0 * j / 60) for j in range(61)) + "\n",
        "rand100.txt": "\n".join(repr(x) for x in rand) + "\n",
    }


def catalogue_requests(rng) -> list:
    """(argv, expected exit code) for every request in the mix."""
    reqs = []
    fields = ("rational", "real", "complex")

    def field_flags(field):
        if field == "rational" and rng.random() < 0.5:
            return []
        return ["--field", field]

    def fmt_flags():
        return ["--format", "json"] if rng.random() < 0.4 else []

    # degree-indexed bases across fields and formats, degrees 3..40
    for basis in ("monomial", "chebyshev", "legendre", "bernstein"):
        for k in range(18):
            reqs.append((["matrix", "--basis", basis, "--degree", str(rng.randint(3, 40))]
                         + field_flags(fields[k % 3]) + fmt_flags(), 0))
    # user-given recurrences
    for k in range(12):
        length = rng.randint(3, 12)
        real = k % 4 == 3
        draw = (lambda r: repr(float(eval_token(_rational(r)).real))) if real else _rational
        alpha = [a for a in (draw(rng) for _ in range(3 * length)) if eval_token(a) != 0]
        argv = ["matrix", "--basis", "recurrence", f"--alpha={','.join(alpha[:length])}"]
        if rng.random() < 0.7:
            argv.append(f"--beta={','.join(draw(rng) for _ in range(length))}")
        if rng.random() < 0.7:
            argv.append(f"--gamma={','.join(draw(rng) for _ in range(length))}")
        reqs.append((argv + field_flags("real" if real else "rational") + fmt_flags(), 0))
    # exact node lists given inline
    for basis in ("newton", "lagrange"):
        for _ in range(15):
            nodes = _distinct(rng, rng.randint(3, 12), _rational)
            reqs.append((["matrix", "--basis", basis] + _nodes_arg(nodes) + fmt_flags(), 0))
    for _ in range(15):
        count = rng.randint(2, 5)
        conf = [str(rng.randint(1, 3)) for _ in range(count)]
        nodes = _distinct(rng, count, _rational)
        reqs.append((["matrix", "--basis", "hermite"] + _nodes_arg(nodes)
                     + ["--confluency", ",".join(conf)] + fmt_flags(), 0))
    # real node lists up to 165 from files
    for argv in (
        ["matrix", "--basis", "lagrange", "--nodes", "@FILE:cheb165.txt"],
        ["matrix", "--basis", "newton", "--nodes", "@FILE:cheb165.txt"],
        ["matrix", "--basis", "lagrange", "--nodes", "@FILE:rand100.txt", "--format", "json"],
        ["matrix", "--basis", "newton", "--nodes", "@FILE:rand100.txt"],
        ["matrix", "--basis", "lagrange", "--nodes", "@FILE:equi60.txt"],
        ["matrix", "--basis", "lagrange", "--nodes", "@FILE:cheb40.txt", "--format", "json"],
        ["matrix", "--basis", "hermite", "--nodes", "@FILE:cheb20.txt",
         "--confluency", ",".join(["2"] * 21)],
        ["matrix", "--basis", "hermite", "--nodes", "@FILE:cheb40.txt",
         "--confluency", ",".join("12"[j % 2] for j in range(41)), "--format", "json"],
        ["weights", "--nodes", "@FILE:cheb165.txt"],
        ["weights", "--nodes", "@FILE:rand100.txt", "--format", "json"],
        ["weights", "--nodes", "@FILE:equi60.txt"],
        ["weights", "--nodes", "@FILE:cheb20.txt", "--confluency", ",".join(["3"] * 21)],
    ):
        reqs.append((argv + ["--field", "real"], 0))
    # complex node lists
    for basis in ("lagrange", "newton", "hermite"):
        for _ in range(3):
            nodes = _distinct(rng, rng.randint(3, 7), _complex)
            conf = (["--confluency", ",".join(str(rng.randint(1, 2)) for _ in nodes)]
                    if basis == "hermite" else [])
            reqs.append((["matrix", "--basis", basis, f"--nodes={','.join(nodes)}"] + conf
                         + ["--field", "complex"] + fmt_flags(), 0))
    # companions: closed forms at any degree, generalized inverses on small cases
    for basis in ("chebyshev", "legendre"):
        for _ in range(4):
            reqs.append((["matrix", "--basis", basis, "--degree", str(rng.randint(3, 40)),
                          "--pinv"] + fmt_flags(), 0))
    for basis in ("monomial", "bernstein"):
        for _ in range(3):
            reqs.append((["matrix", "--basis", basis, "--degree", str(rng.randint(3, 8)),
                          "--pinv"] + fmt_flags(), 0))
    for basis in ("newton", "lagrange", "hermite"):
        for _ in range(3):
            count = rng.randint(2, 4) if basis == "hermite" else rng.randint(3, 7)
            nodes = _distinct(rng, count, _rational)
            conf = (["--confluency", ",".join(str(rng.randint(1, 2)) for _ in nodes)]
                    if basis == "hermite" else [])
            reqs.append((["matrix", "--basis", basis] + _nodes_arg(nodes) + conf + ["--pinv"], 0))
    for _ in range(3):
        alpha = ",".join(str(rng.randint(1, 5)) for _ in range(rng.randint(3, 6)))
        reqs.append((["matrix", "--basis", "recurrence", "--alpha", alpha, "--pinv"], 0))
    # barycentric weights
    for _ in range(10):
        nodes = _distinct(rng, rng.randint(2, 12), _rational)
        reqs.append((["weights"] + _nodes_arg(nodes) + fmt_flags(), 0))
    for _ in range(10):
        count = rng.randint(2, 5)
        nodes = _distinct(rng, count, _rational)
        conf = ",".join(str(rng.randint(1, 4)) for _ in range(count))
        reqs.append((["weights"] + _nodes_arg(nodes) + ["--confluency", conf] + fmt_flags(), 0))
    for _ in range(5):
        nodes = [repr(rng.uniform(-1, 1)) for _ in range(rng.randint(3, 20))]
        reqs.append((["weights", f"--nodes={','.join(nodes)}", "--field", "real"] + fmt_flags(), 0))
    # inputs the CLI rejects with exit 2
    errors = [
        ["matrix", "--basis", "chebyshev", "--degree", "5", "--nodes", "1,2"],
        ["matrix", "--basis", "lagrange", "--nodes", "1,2,1"],
        ["matrix", "--basis", "lagrange", "--nodes", "1,x,2"],
        ["matrix", "--basis", "legendre"],
        ["matrix", "--basis", "hermite", "--nodes", "0,1", "--confluency", "1,2,3"],
        ["matrix", "--basis", "monomial", "--degree", "3", "--alpha", "1,1"],
        ["matrix", "--basis", "lagrange", "--degree", "3", "--nodes", "0,1"],
        ["matrix", "--basis", "spline", "--degree", "3"],
        ["matrix", "--basis", "newton"],
        ["matrix", "--basis", "bernstein", "--degree", "-1"],
        ["matrix", "--basis", "hermite", "--nodes", "0,1", "--confluency", "0,2"],
        ["weights", "--nodes", "0,1/0"],
        ["matrix", "--basis", "recurrence", "--alpha", "1,0,1"],
        ["matrix", "--basis", "lagrange", "--nodes", "@FILE:absent.txt"],
        ["matrix", "--basis", "chebyshev", "--degree", "3", "--field", "quaternion"],
        ["experiment", "--which", "lagrange-error", "--confluency", "2"],
        ["matrix", "--basis", "lagrange", "--nodes", "1,2", "--confluency", "2,1"],
        ["matrix", "--basis", "chebyshev", "--degree", "three"],
        ["weights", "--nodes", "1,2", "--confluency", "1,x"],
        ["matrix", "--basis", "newton", "--nodes", "1,2+i"],
    ]
    for k in range(30):
        argv = list(errors[k % len(errors)])
        if k >= len(errors) and "--nodes" in argv:
            # same rejection, other values
            i = argv.index("--nodes") + 1
            if not argv[i].startswith("@"):
                argv[i] = ",".join(_rational(rng) for _ in range(2)) + "," + argv[i]
        reqs.append((argv, 2))
    return reqs


def cli_catalogue() -> dict:
    mods = wl.load_polydiff(ROOT / "src")
    files = node_files()
    rng = random.Random(CATALOGUE_SEED)
    requests = []
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        file_dir = Path(tmp)
        for name, text in files.items():
            (file_dir / name).write_text(text)
        for argv, code in catalogue_requests(rng):
            got, text = wl.run_cli(mods["cli"], wl.materialize(argv, file_dir))
            if got != code:
                raise SystemExit(f"exit {got}, expected {code}: {argv}")
            if code == 0 and wl.is_float_request(argv):
                expect = {"code": code, "float": wl.float_fingerprint(
                    argv[0], wl.option(argv, "--format", "csv"), text)}
            else:
                expect = {"code": code, "sha256": hashlib.sha256(text.encode()).hexdigest()}
            requests.append({"argv": argv, "expect": expect})
    return {"files": files, "requests": requests}


def conditioning_refs() -> dict:
    mods = wl.load_polydiff(ROOT / "src")
    experiments = mods["experiments"]
    out = {}
    for case in wl.conditioning_cases():
        (r,) = experiments.run_experiment(case[0], case[1], case[2], [case[3]])
        out[wl.case_key(*case)] = [r.norm_D, r.norm_Z, r.max_err]
    return out


def main() -> int:
    wl.REFS.mkdir(exist_ok=True)
    (wl.REFS / "conditioning.json").write_text(json.dumps(conditioning_refs(), indent=1) + "\n")
    (wl.REFS / "cli_catalogue.json").write_text(json.dumps(cli_catalogue(), indent=None) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
