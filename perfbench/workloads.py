"""The three workloads: op lists built from a seed, and each op's output check.

An op is a zero-argument callable (timed) and a check (not timed) that
turns its result into a fingerprint, raising ``Mismatch`` when the
result is wrong.  The fingerprint is what the traced and untraced runs
compare.  Ops reach polydiff only through module attributes looked up
at call time, so a wrapper or a substitute installed into a module
namespace takes effect.  Checks never call polydiff: exact results are
recomputed with plain lists of numbers.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"
MODULE_NAMES = ("core", "series", "lagrange", "hermite", "degree_graded",
                "bernstein", "structure", "experiments", "verify", "cli")


def load_polydiff(src: Path) -> dict:
    """Import polydiff afresh from ``src``; its modules by short name.

    Refuses a polydiff found anywhere else, so the benchmark never
    measures an installed copy instead of the checkout.
    """
    for name in [n for n in sys.modules if n == "polydiff" or n.startswith("polydiff.")]:
        del sys.modules[name]
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    pkg = importlib.import_module("polydiff")
    if Path(pkg.__file__).resolve().parent != (src / "polydiff").resolve():
        raise ImportError(f"polydiff imported from {pkg.__file__}, not from {src}")
    return {name: importlib.import_module(f"polydiff.{name}") for name in MODULE_NAMES}


# Float outputs must match the reference fingerprint to this share of its scale.
FLOAT_RTOL = 1e-9
# Experiment norms must match the reference to this relative tolerance.
NORM_RTOL = 1e-6
# Error-type experiment quantities (norm_Z, max_err) measure rounding; they
# may fall freely but may not exceed this multiple of the reference (plus
# an absolute floor for values at the level of machine precision).
# Recomputing every record up to n = 55 with the node sums of the
# evaluation, and the row sums of D applied to the data, in 8 random
# orders each (784 records) gave at most 4.6 times the reference.
ERROR_GROWTH = 10.0
ERROR_FLOOR = 1e-12


class Mismatch(Exception):
    """An op returned a wrong result."""


class Op:
    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label, self.run, self.check = label, run, check


# ------------------------------------------------------------ conditioning

# The default experiment sizes, the Hermite experiments at confluencies
# 1, 2 and 3 (the default), and the paper's large sizes: 100 records, fixed
# here so that the workload does not follow later changes of the defaults.
NODE_FAMILIES = ("chebyshev", "equispaced")
DEFAULT_SIZES = (3, 5, 8, 13, 21, 34, 55)
LARGE_CASES = (("lagrange-error", "chebyshev", 1, 165), ("hermite-norms", "chebyshev", 1, 165))


def conditioning_cases() -> list:
    runs = [(which, s) for which in ("hermite-norms", "hermite-error") for s in (1, 2, 3)]
    runs.append(("lagrange-error", 1))
    cases = [(which, family, s, n)
             for which, s in runs for family in NODE_FAMILIES for n in DEFAULT_SIZES]
    return cases + list(LARGE_CASES)


def case_key(which, family, s, n) -> str:
    return f"{which}|{family}|{s}|{n}"


def _check_record(case, want, records):
    which, family, s, n = case
    if len(records) != 1:
        raise Mismatch(f"{len(records)} records")
    r = records[0]
    got = (r.n, r.node_family, r.confluency)
    if got != (n, family, s):
        raise Mismatch(f"record is for {got}")
    values = (r.norm_D, r.norm_Z, r.max_err)
    for name, v, ref in zip(("norm_D", "norm_Z", "max_err"), values, want):
        if (v is None) != (ref is None):
            raise Mismatch(f"{name} present={v is not None}, expected {ref is not None}")
        if v is None:
            continue
        if not isinstance(v, float) or math.isnan(v) or v < 0:
            raise Mismatch(f"{name} = {v!r}")
        if name == "norm_D":
            if abs(v - ref) > NORM_RTOL * abs(ref):
                raise Mismatch(f"norm_D {v!r} vs {ref!r}")
        elif v > ERROR_GROWTH * ref + ERROR_FLOOR:
            raise Mismatch(f"{name} {v!r} vs reference {ref!r}")
    return values


def conditioning_ops(mods, rng) -> list:
    """Each op is one experiment record; the seed only permutes the order."""
    refs = json.loads((REFS / "conditioning.json").read_text())
    experiments = mods["experiments"]
    ops = []
    for case in conditioning_cases():
        want = refs[case_key(*case)]
        ops.append(Op(case_key(*case),
                      lambda c=case: experiments.run_experiment(c[0], c[1], c[2], [c[3]]),
                      lambda out, c=case, w=want: _check_record(c, w, out)))
    rng.shuffle(ops)
    return ops


# ------------------------------------------------------------ exact-structure

FAMILIES = ("monomial", "chebyshev", "legendre", "newton", "lagrange", "hermite", "bernstein")
EXACT_DIMS = (3, 4, 5, 6, 7, 8, 9, 10)
# Families whose instances depend on the seed get this many per dimension.
SEEDED_FAMILIES = ("newton", "lagrange", "hermite")
SEEDED_INSTANCES = 3


def random_rationals(rng, count, lo=-8, hi=8, den=4) -> list:
    out = []
    while len(out) < count:
        q = Fraction(rng.randint(lo, hi), rng.randint(1, den))
        if q not in out:
            out.append(q)
    return out


def _confluencies(rng, dim) -> list:
    """A random split of dim into 1..3 per node."""
    count = rng.randint(max(1, -(-dim // 3)), max(1, dim // 2))
    conf = [1] * count
    for _ in range(dim - count):
        conf[rng.choice([i for i, s in enumerate(conf) if s < 3])] += 1
    return conf


def _exact_instance(mods, family, dim, rng):
    """(basis descriptor, constructor) for one seeded instance of a family."""
    core, dg = mods["core"], mods["degree_graded"]
    n = dim - 1
    if family == "monomial":
        return dg.monomial_basis(n), lambda: dg.diff_matrix_degree_graded(dg.monomial_recurrence(n), n)
    if family == "chebyshev":
        return dg.chebyshev_basis(n), lambda: dg.chebyshev_diff_matrix(n)
    if family == "legendre":
        return dg.legendre_basis(n), lambda: dg.diff_matrix_degree_graded(dg.legendre_recurrence(n), n)
    if family == "bernstein":
        return core.BernsteinBasis(n), lambda: mods["bernstein"].diff_matrix_bernstein(n)
    if family == "hermite":
        conf = _confluencies(rng, dim)
        ns = core.NodeSet(random_rationals(rng, len(conf)), conf)
        return core.HermiteBasis(ns), lambda: mods["hermite"].diff_matrix_hermite(ns)
    ns = core.NodeSet(random_rationals(rng, dim))
    if family == "newton":
        return dg.newton_basis(ns), lambda: dg.newton_diff_matrix(ns)
    return core.LagrangeBasis(ns), lambda: mods["lagrange"].diff_matrix_lagrange(ns)


def _structure_pipeline(structure, basis, construct):
    D = construct()
    oracle = structure.conjugation_oracle(basis)
    V = structure.build_V(structure.monomial_images(basis))
    P = structure.pseudo_inverse(D, V)
    return (D, oracle, V, P, structure.verify_generalized_inverse(D, P),
            structure.jordan_check(D, V), structure.nilpotency_index(D))


# Plain-list linear algebra for the exact checks: they must not rely on
# the DenseMatrix product, equality or elimination they are checking.

def rows_of(M) -> list:
    e = M.entries
    return [list(e[i * M.cols:(i + 1) * M.cols]) for i in range(M.rows)]


def plain_matmul(A, B) -> list:
    cols = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in A]


def plain_rank(A) -> int:
    a = [[Fraction(x) for x in row] for row in A]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((r for r in range(rank, len(a)) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for r in range(rank + 1, len(a)):
            f = a[r][col] / a[rank][col]
            a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def plain_nilpotency_index(A) -> int | None:
    """Smallest k with A^k = 0, in integers after clearing denominators."""
    scale = math.lcm(*(Fraction(x).denominator for row in A for x in row))
    M = [[int(x * scale) for x in row] for row in A]
    P = [[int(i == j) for j in range(len(A))] for i in range(len(A))]
    for k in range(len(A) + 1):
        if not any(any(row) for row in P):
            return k
        P = plain_matmul(P, M)
    return None


def _check_pipeline(dim, out):
    D, oracle, V, P, gen_inverse, jordan, index = out
    d, v, p = rows_of(D), rows_of(V), rows_of(P)
    if (D.rows, D.cols) != (dim, dim) or D.entries != oracle.entries:
        raise Mismatch("constructor disagrees with the conjugation oracle")
    if plain_matmul(plain_matmul(d, p), d) != d or plain_matmul(plain_matmul(p, d), p) != p:
        raise Mismatch("D D+ D = D or D+ D D+ = D+ fails")
    vj = [[row[j - 1] if j else 0 for j in range(dim)] for row in v]
    if plain_rank(v) != dim or plain_matmul(d, v) != vj:
        raise Mismatch("V is singular or D V != V J")
    if plain_nilpotency_index(d) != dim:
        raise Mismatch(f"nilpotency index is not the dimension {dim}")
    if not (gen_inverse and jordan and index == dim):
        raise Mismatch(f"structure reports gen_inverse={gen_inverse}, jordan={jordan}, "
                       f"index={index}")
    return hash((D.entries, P.entries, index))


def _check_equal_pair(out):
    direct, oracle = out
    if (direct.rows, direct.cols) != (oracle.rows, oracle.cols) or direct.entries != oracle.entries:
        raise Mismatch("41-node constructor disagrees with the conjugation oracle")
    return hash(direct.entries)


def _check_index(want, out):
    D, index = out
    plain = plain_nilpotency_index(rows_of(D))
    if plain != want or index != want:
        raise Mismatch(f"nilpotency index {index} (recomputed {plain}), expected {want}")
    return index


def _nilpotency_pair(structure, D):
    return D, structure.nilpotency_index(D)


def _check_verify(results):
    bad = [r.name for r in results if not r.ok]
    if bad or not results:
        raise Mismatch(f"verify failures: {bad}")
    return tuple((r.name, r.ok) for r in results)


def exact_structure_ops(mods, rng) -> list:
    """Seeded exact instances of every family, plus the ROADMAP's named cases."""
    core, structure = mods["core"], mods["structure"]
    ops = []
    for family in FAMILIES:
        for dim in EXACT_DIMS * (SEEDED_INSTANCES if family in SEEDED_FAMILIES else 1):
            basis, construct = _exact_instance(mods, family, dim, rng)
            ops.append(Op(f"{family}-{dim}",
                          lambda b=basis, c=construct: _structure_pipeline(structure, b, c),
                          lambda out, d=dim: _check_pipeline(d, out)))
    ns41 = core.NodeSet([Fraction(k - 20, 20) for k in range(41)])
    lag41 = core.LagrangeBasis(ns41)
    ops.append(Op("lagrange-41-oracle",
                  lambda: (mods["lagrange"].diff_matrix_lagrange(ns41),
                           structure.conjugation_oracle(lag41)),
                  _check_equal_pair))
    ops.append(Op("bernstein-30-nilpotency",
                  lambda: _nilpotency_pair(structure, mods["bernstein"].diff_matrix_bernstein(30)),
                  lambda out: _check_index(31, out)))
    ops.append(Op("verify-run-checks", lambda: mods["verify"].run_checks(), _check_verify))
    rng.shuffle(ops)
    return ops


# ------------------------------------------------------------ cli-requests

def parse_scalar_text(tok: str) -> complex:
    """Read a real or "a+bi" scalar as printed by the CLI."""
    tok = tok.strip()
    if not tok.endswith("i"):
        return complex(float(tok))
    body = tok[:-1]
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "eE":
            return complex(float(body[:k]), float(body[k:]))
    raise ValueError(f"not a complex literal: {tok!r}")


def float_output_table(command: str, fmt: str, text: str):
    """Split float CLI output into (exact metadata, rows of numbers)."""
    if fmt == "json":
        obj = json.loads(text)
        if command == "matrix":
            meta = [obj["basis"], obj["dimension"], obj["field"], len(obj["entries"])]
            rows = [[parse_scalar_text(e) for e in row] for row in obj["entries"]]
        else:
            meta = [obj["confluencies"], obj["field"], [w[:2] for w in obj["weights"]]]
            rows = ([[parse_scalar_text(w[2])] for w in obj["weights"]]
                    + [[parse_scalar_text(t)] for t in obj["nodes"]])
        return meta, rows
    lines = text.splitlines()
    if command == "matrix":
        rows = [[parse_scalar_text(e) for e in line.split(",")] for line in lines]
        return [len(rows), [len(r) for r in rows]], rows
    cells = [line.split(",") for line in lines]
    return [[c[:2] for c in cells]], [[parse_scalar_text(c[2])] for c in cells]


def _probe(i, k):
    return math.cos(0.7 * i + 0.3 + k), math.sin(1.1 * i + 0.5 + 2 * k)


def float_fingerprint(command: str, fmt: str, text: str) -> dict:
    """Two bilinear forms u^T M x of the printed numbers, and their scale."""
    meta, rows = float_output_table(command, fmt, text)
    forms, scale = [], 0.0
    for k in range(2):
        total = 0j
        for i, row in enumerate(rows):
            u = _probe(i, k)[0]
            for j, m in enumerate(row):
                x = _probe(j, k)[1]
                total += u * m * x
                scale += abs(u * m * x)
        forms.append([total.real, total.imag])
    return {"meta": json.loads(json.dumps(meta)), "forms": forms, "scale": scale}


def option(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def is_float_request(argv) -> bool:
    return option(argv, "--field", "rational") != "rational"


def run_cli(cli, argv):
    """One in-process CLI call; returns (exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:   # argparse rejects flags this way
            code = exc.code
    return code, out.getvalue()


def _check_cli(argv, want, out):
    code, text = out
    if code != want["code"]:
        raise Mismatch(f"exit {code}, expected {want['code']}")
    if "sha256" in want:
        if hashlib.sha256(text.encode()).hexdigest() != want["sha256"]:
            raise Mismatch("output differs from the reference digest")
        return code, want["sha256"]
    got = float_fingerprint(argv[0], option(argv, "--format", "csv"), text)
    ref = want["float"]
    if got["meta"] != ref["meta"]:
        raise Mismatch("output layout differs from the reference")
    for (a, b), (c, d) in zip(got["forms"], ref["forms"]):
        if abs(complex(a, b) - complex(c, d)) > FLOAT_RTOL * ref["scale"]:
            raise Mismatch("float output outside tolerance of the reference")
    return code, hashlib.sha256(text.encode()).hexdigest()


def materialize(argv, file_dir: Path) -> list:
    """Point "@FILE:name" tokens at the node files written during set-up."""
    return [f"@{file_dir / tok[6:]}" if tok.startswith("@FILE:") else tok for tok in argv]


def cli_requests_ops(mods, rng, file_dir: Path) -> list:
    """The stored request catalogue, node files written, order seeded."""
    catalogue = json.loads((REFS / "cli_catalogue.json").read_text())
    file_dir.mkdir(parents=True, exist_ok=True)
    for name, text in catalogue["files"].items():
        (file_dir / name).write_text(text)
    cli = mods["cli"]
    ops = []
    for req in catalogue["requests"]:
        argv = materialize(req["argv"], file_dir)
        ops.append(Op(" ".join(req["argv"]),
                      lambda a=argv: run_cli(cli, a),
                      lambda out, a=req["argv"], w=req["expect"]: _check_cli(a, w, out)))
    rng.shuffle(ops)
    return ops


WORKLOADS = ("conditioning", "exact-structure", "cli-requests")


def build_ops(workload: str, mods, seed: int, file_dir: Path) -> list:
    rng = random.Random(seed)
    if workload == "conditioning":
        return conditioning_ops(mods, rng)
    if workload == "exact-structure":
        return exact_structure_ops(mods, rng)
    return cli_requests_ops(mods, rng, file_dir)
