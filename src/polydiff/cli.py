"""Command line front end.

Four subcommands: ``matrix`` emits a differentiation matrix (or its
antidifferentiation / generalized-inverse companion with ``--pinv``),
``weights`` emits barycentric weights, ``verify`` runs the invariant
suite, and ``experiment`` reproduces the double-precision conditioning
runs as CSV.

Serialization is text-only and round-trips, in the requested field and,
for a matrix held as integer rows, straight from them, each distinct
value of a row formatted once: exact rationals as "p/q" (bare integers
without the slash), floats via ``repr``, complex values as "a+bi".  Exit
codes: 0 success, 1 verification failure, 2 usage error (including
malformed values, inconsistent flag combinations and floating-point
breakdown such as weights that underflow to zero, or a floating-point
result that would print inf or nan).
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import experiments, hermite, structure, verify
from .core import DenseMatrix, Field, NodeSet, SingularMatrixError, all_finite, field_of
from .degree_graded import RecurrenceSpec
from .families import FAMILIES


class UsageError(ValueError):
    """Bad flags or unparseable values; reported on stderr, exit code 2."""


# ------------------------------------------------------------ scalars

def parse_complex(s: str) -> complex:
    """Python's complex literal with i or I in place of j: "1+2i", "-i", "1e3".

    Whitespace inside the token is ignored; j, J and parentheses are refused.
    """
    t = "".join(s.split())
    if any(c in "jJ()" for c in t):
        raise ValueError(f"not a complex literal: {s!r}")
    return complex(t[:-1] + "j" if t.endswith(("i", "I")) else t)


_EXPONENT = re.compile(r"[-+]?[\d_.]*[eE][-+]?(\d+(?:_\d+)*)\Z")


def parse_scalar(s: str, field: Field):
    tok, limit = s.strip(), sys.get_int_max_str_digits()
    # Python turns no more than ``limit`` digits of text into an integer, and
    # Fraction expands an exponent e into 10 ** |e|: one past ``limit`` is refused first
    exp = field is Field.RATIONAL and _EXPONENT.match(tok)
    too_long = 0 < limit < (float(exp[1]) if exp else 0)
    try:
        if too_long:
            raise ValueError("exponent past the digit limit")
        if field is Field.RATIONAL:
            return Fraction(s)
        if field is Field.REAL:
            return float(s)
        return parse_complex(s)
    except (ValueError, ZeroDivisionError) as exc:
        shown = tok if len(tok) <= 40 else tok[:40] + "..."
        too_long = too_long or field is Field.RATIONAL and 0 < limit < sum(map(str.isdecimal, tok))
        why = f" (it has more than {limit} digits)" if too_long else ""
        raise UsageError(f"cannot parse {shown!r} as a {field.value} scalar{why}") from exc


# Python refuses to turn integers past its digit limit into text
_TOO_LONG = "exact result too long to print: a numerator or denominator has more than {} digits"


def _exact_text(x) -> str:
    try:
        # an exact entry is already a Fraction; only plain integers need one
        return str(x if isinstance(x, Fraction) else Fraction(x))
    except ValueError as exc:
        raise ValueError(_TOO_LONG.format(sys.get_int_max_str_digits())) from exc


def _complex_text(x: complex) -> str:
    sign = "-" if x.imag < 0 else "+"
    return f"{x.real!r}{sign}{abs(x.imag)!r}i"


# one formatter per field: a matrix, homogeneous, picks its own once
_FORMATTERS = {Field.RATIONAL: _exact_text, Field.REAL: repr, Field.COMPLEX: _complex_text}


# the text of an integer x over den > 0 in each field, no Fraction formed: exactly as ``str(Fraction)``
# prints it, else x / den, correctly rounded so the float of p / q (complex(x / den) has imaginary +0.0)
_INT_TEXTS = {Field.RATIONAL: lambda x, den: str(x) if den == 1 else (
                  str(x // g) if (g := math.gcd(x, den)) == den else f"{x // g}/{den // g}"),
              Field.REAL: lambda x, den: repr(x / den),
              Field.COMPLEX: lambda x, den: f"{x / den!r}+0.0i"}


def format_scalar(x) -> str:
    """Text of one scalar: "p/q" (bare integers without the slash), ``repr`` of a
    float, "a+bi"; dispatched on its field through the table that
    ``matrix_to_csv`` and ``matrix_to_json`` read once per matrix."""
    return _FORMATTERS[field_of(x)](x)


def _read_values(spec: str) -> list[str]:
    """Split a comma list, or the contents of "@path", into raw tokens."""
    if spec.startswith("@"):
        try:
            text = Path(spec[1:]).read_text()
        except OSError as exc:
            raise UsageError(f"cannot read {spec[1:]!r}: {exc}") from exc
        tokens = re.split(r"[,\s]+", text.strip())
    else:
        tokens = spec.split(",")
    out = [tok.strip() for tok in tokens if tok.strip()]
    if not out:
        raise UsageError(f"no values found in {spec!r}")
    return out


def parse_scalar_list(spec: str, field: Field) -> list:
    return [parse_scalar(tok, field) for tok in _read_values(spec)]


def parse_int_list(spec: str) -> list[int]:
    tokens = _read_values(spec)   # its own UsageError passes through
    try:
        return [int(tok) for tok in tokens]
    except ValueError as exc:
        raise UsageError(f"expected a comma list of integers, got {spec!r}") from exc


# ------------------------------------------------------------ output

def _row_texts(M: DenseMatrix, field: Field):
    """The texts of each row in turn, in ``field``.  Held entries print after the constructor promotes
    them, if they are in another field.  Integer rows (den, nums) print with no Fraction formed, each
    distinct value of a row once: the table is keyed by the integers, so two with one float stay apart."""
    if M._entries is not None:
        M = M if field is M.field else DenseMatrix(M.rows, M.cols, M.entries, field)
        yield from (list(map(_FORMATTERS[field], M.row(i))) for i in range(M.rows))
        return
    text = _INT_TEXTS[field]
    try:
        for den, nums in M._ints:
            table = {x: text(x, den) for x in set(nums)}   # lives for this row only
            yield list(map(table.__getitem__, nums))
    except ValueError as exc:
        raise ValueError(_TOO_LONG.format(sys.get_int_max_str_digits())) from exc


def matrix_to_csv(M: DenseMatrix, field: Field | None = None) -> str:
    return "\n".join(map(",".join, _row_texts(M, field or M.field))) + "\n"


def matrix_to_json(M: DenseMatrix, basis_name: str, field: Field | None = None) -> str:
    """The text of ``json.dumps(record, indent=2)`` for M in ``field`` (M's own by default), joined from
    one encoded row at a time: the row's separator quotes each text on its own line, where indent=2 puts it."""
    field = field or M.field
    encode = json.JSONEncoder(separators=(",\n      ", ": ")).encode
    rows = ",\n    ".join(f"[\n      {encode(texts)[1:-1]}\n    ]" if M.cols else "[]"
                          for texts in _row_texts(M, field))
    entries = f"[\n    {rows}\n  ]" if M.rows else "[]"
    return (f'{{\n  "basis": {json.dumps(basis_name)},\n  "dimension": {M.rows},\n'
            f'  "field": {json.dumps(field.value)},\n  "entries": {entries}\n}}\n')


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise UsageError(f"cannot write {out!r}: {exc}") from exc
    else:
        sys.stdout.write(text)


# ------------------------------------------------------------ matrix

def _parse_node_set(args, field: Field) -> NodeSet:
    nodes = parse_scalar_list(args.nodes, field)
    conf = parse_int_list(args.confluency) if args.confluency is not None else None
    if conf is not None and len(conf) != len(nodes):
        raise UsageError(f"{len(nodes)} nodes but {len(conf)} confluencies")
    return NodeSet(nodes, conf)


# the flags that name an instance, per ``Family.arg``; the first is required
_INSTANCE_FLAGS = {"degree": ("degree",), "nodes": ("nodes", "confluency"),
                   "recurrence": ("alpha", "beta", "gamma", "degree")}


def _instance_arg(args, family, field: Field):
    """What names the requested instance, in the shape ``family.arg`` says.  Refuses first
    a flag that does not apply, the first in the parser's order, then a missing one."""
    flags = _INSTANCE_FLAGS[family.arg]
    for flag in ("degree", "nodes", "confluency", "alpha", "beta", "gamma"):
        if flag not in flags and getattr(args, flag) is not None:
            raise UsageError(f"--{flag} does not apply to --basis {args.basis}")
    if getattr(args, flags[0]) is None:
        raise UsageError(f"--basis {args.basis} requires --{flags[0]}")
    if family.arg == "degree":
        return args.degree
    if family.arg == "nodes":
        return _parse_node_set(args, field)
    alpha = parse_scalar_list(args.alpha, field)
    beta = parse_scalar_list(args.beta, field) if args.beta is not None else None
    gamma = parse_scalar_list(args.gamma, field) if args.gamma is not None else None
    rec = RecurrenceSpec(alpha, beta, gamma)
    return rec, args.degree if args.degree is not None else len(alpha)


def cmd_matrix(args) -> int:
    basis = args.basis
    family = FAMILIES[basis]
    field = Field(args.field)
    arg = _instance_arg(args, family, field)
    if args.pinv and family.antideriv:
        M = family.antideriv(arg)
    else:
        M = family.diff_matrix(arg)
        if args.pinv:
            try:   # V = M diag(1/k!) is invertible for every basis: only floating point loses its rank
                M = structure.pseudo_inverse(M, structure.build_V(structure.monomial_images(family.basis(arg))))
            except SingularMatrixError:
                raise ArithmeticError("the basis-change matrix V is singular in floating point") from None
    # a matrix holding entries was built in ``field``; integer rows print in it as x / den, always finite
    if M.field is not Field.RATIONAL:
        if not all_finite(M.field, M.entries):
            raise ArithmeticError("the floating-point result is not finite")
        if args.pinv:
            print("polydiff: warning: pseudo-inverse computed in floating point; "
                  "entries may lose accuracy", file=sys.stderr)
    text = matrix_to_json(M, basis, field) if args.fmt == "json" else matrix_to_csv(M, field)
    _emit(text, args.out)
    return 0


# ------------------------------------------------------------ weights

def cmd_weights(args) -> int:
    field = Field(args.field)
    ns = _parse_node_set(args, field)
    w = hermite.gen_bary_weights(ns)
    # gen_bary_weights refuses a weight that is not finite
    rows = [(i, j, b) for i, wi in enumerate(w.weights) for j, b in enumerate(wi)]
    if args.fmt == "json":
        obj = {
            "nodes": [format_scalar(t) for t in ns.nodes],
            "confluencies": list(ns.confluencies),
            "field": ns.field.value,
            "weights": [[i, j, format_scalar(b)] for i, j, b in rows],
        }
        text = json.dumps(obj, indent=2) + "\n"
    else:
        text = "\n".join(f"{i},{j},{format_scalar(b)}" for i, j, b in rows) + "\n"
    _emit(text, args.out)
    return 0


# ------------------------------------------------------------ verify

def cmd_verify(args) -> int:
    results = verify.run_checks(args.basis)
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        print(f"{status} {r.name}: {r.detail}")
    failed = sum(1 for r in results if not r.ok)
    print(f"{len(results)} checks, {len(results) - failed} passed, {failed} failed")
    return 1 if failed else 0


# ------------------------------------------------------------ experiment

def cmd_experiment(args) -> int:
    if args.which == "lagrange-error":
        if args.confluency not in (None, 1):
            raise UsageError("lagrange-error runs at confluency 1")
        confluency = 1
    else:
        confluency = 3 if args.confluency is None else args.confluency
        if confluency < 1:
            raise UsageError("confluency must be at least 1")
    sizes = parse_int_list(args.n) if args.n is not None else None
    records = experiments.run_experiment(args.which, args.nodes, confluency, sizes)
    for r in records:
        # the norms and the maximum keep inf and nan, so a record's own fields show every value
        bad = [q for q in ("norm_D", "norm_Z", "max_err") if not math.isfinite(getattr(r, q) or 0.0)]
        if bad:
            raise ArithmeticError(f"at n={r.n}: {bad[0]} is not finite")
    _emit(experiments.records_to_csv(records), args.out)
    return 0


# ------------------------------------------------------------ driver

def build_parser() -> argparse.ArgumentParser:
    """A copy of the tree built once, so what one caller sets on it stays on that copy."""
    return copy.copy(_parser_tree())


@functools.cache
def _parser_tree() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="polydiff",
        description="Differentiation matrices for polynomial bases.")
    sub = p.add_subparsers(dest="command", required=True)

    m = sub.add_parser("matrix", help="emit a differentiation matrix")
    m.add_argument("--basis", required=True, choices=tuple(FAMILIES))
    m.add_argument("--degree", type=int,
                   help="polynomial degree (dimension - 1) for degree-indexed bases")
    m.add_argument("--nodes",
                   help="comma list of nodes, or @file (spell a leading minus as --nodes=-1,0,1)")
    m.add_argument("--confluency", help="comma list of per-node confluencies")
    m.add_argument("--alpha", help="recurrence coefficients of phi_{j+1} (comma list)")
    m.add_argument("--beta", help="recurrence coefficients of phi_j (comma list)")
    m.add_argument("--gamma", help="recurrence coefficients of phi_{j-1} (comma list)")
    m.add_argument("--field", choices=[f.value for f in Field], default="rational")
    m.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    m.add_argument("--pinv", action="store_true",
                   help="emit the antidifferentiation companion (Chebyshev, Legendre) "
                        "or the structured generalized inverse (other bases)")
    m.add_argument("--out", help="write to this path instead of standard output")
    m.set_defaults(func=cmd_matrix)

    w = sub.add_parser("weights", help="emit barycentric weights as rows i,j,weight")
    w.add_argument("--nodes", required=True,
                   help="comma list of nodes, or @file (spell a leading minus as --nodes=-1,0,1)")
    w.add_argument("--confluency", help="comma list of per-node confluencies")
    w.add_argument("--field", choices=[f.value for f in Field], default="rational")
    w.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    w.add_argument("--out", help="write to this path instead of standard output")
    w.set_defaults(func=cmd_weights)

    v = sub.add_parser("verify", help="run the invariant suite")
    v.add_argument("--basis", choices=verify.KNOWN_BASES,
                   help="restrict to checks for one basis family")
    v.set_defaults(func=cmd_verify)

    e = sub.add_parser("experiment", help="run a conditioning experiment, CSV output")
    e.add_argument("--which", required=True, choices=experiments.EXPERIMENTS)
    e.add_argument("--nodes", choices=experiments.NODE_FAMILIES, default="chebyshev")
    e.add_argument("--confluency", type=int,
                   help="confluency at every node (default 3 for the hermite experiments)")
    e.add_argument("--n", help="comma list of sizes overriding the built-in list")
    e.add_argument("--out", help="write to this path instead of standard output")
    e.set_defaults(func=cmd_experiment)
    return p


_VALUE_FLAGS = ("--nodes", "--alpha", "--beta", "--gamma")


def _absorb_negative_values(argv: list[str]) -> list[str]:
    """Turn ``--nodes -1,0,1`` (or ``-i,i``, ``-nan,0``) into ``--nodes=...`` so argparse accepts it."""
    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv) and re.match(r"-[\d.iInN]", argv[i + 1]):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_absorb_negative_values(
        list(sys.argv[1:] if argv is None else argv)))
    try:
        return args.func(args)
    except ValueError as exc:
        # usage errors and constructor-level rejections (duplicate nodes, ...)
        print(f"polydiff: error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # floating-point breakdown, e.g. node products that underflow to zero
        print(f"polydiff: error: arithmetic failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
