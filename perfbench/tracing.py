"""Per-layer tracing of polydiff from outside the package.

Wrappers are installed into every loaded ``polydiff`` module namespace
that holds the wrapped object, because the package binds names with
``from ... import``: patching only the defining module would miss the
calls made through the importing modules.  Nothing under ``src/`` is
edited.

A wrapper's self time is its duration minus the time spent in the
wrapped calls it made; several functions may share one span name, and
their self times add up under that name.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


def _package_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "polydiff" or name.startswith("polydiff."))]


def patch_everywhere(owner, attr: str, replacement) -> list:
    """Replace ``owner.attr`` and every module-level alias of it.

    Returns the (namespace, name, original) triples that undo the patch.
    A class attribute (a method) is replaced on the class only.
    """
    orig = getattr(owner, attr)
    undo = [(owner, attr, orig)]
    setattr(owner, attr, replacement)
    if isinstance(owner, type):
        return undo
    for mod in _package_modules():
        for name, value in list(vars(mod).items()):
            if value is orig and not (mod is owner and name == attr):
                setattr(mod, name, replacement)
                undo.append((mod, name, orig))
    return undo


def unpatch(undo: list) -> None:
    for owner, name, orig in reversed(undo):
        setattr(owner, name, orig)


# (span name, module, attributes); None stands for every series_* function
# and linear_power_series.  Several attributes may share one span.
LAYERS = (
    ("core.matrix_init", "core", ("DenseMatrix.__init__",)),
    ("core.matmul", "core", ("DenseMatrix.__mul__",)),
    ("core.mat_apply", "core", ("mat_apply",)),
    ("core.slot", "core", ("NodeSet.slot",)),
    ("series.all", "series", None),
    ("lagrange.bary_weights", "lagrange", ("bary_weights",)),
    ("lagrange.diff_matrix_lagrange", "lagrange", ("diff_matrix_lagrange",)),
    ("lagrange.eval_first_form", "lagrange", ("eval_first_form",)),
    ("hermite.gen_bary_weights", "hermite", ("gen_bary_weights",)),
    ("hermite.diff_matrix_hermite", "hermite", ("diff_matrix_hermite",)),
    ("hermite.hermite_eval", "hermite", ("hermite_eval",)),
    ("degree_graded.diff_matrix_degree_graded", "degree_graded", ("diff_matrix_degree_graded",)),
    ("degree_graded.chebyshev_diff_matrix", "degree_graded", ("chebyshev_diff_matrix",)),
    ("bernstein.diff_matrix_bernstein", "bernstein", ("diff_matrix_bernstein",)),
    ("structure.monomial_images", "structure", ("monomial_images",)),
    ("structure.invert_matrix", "structure", ("invert_matrix",)),
    ("structure.pseudo_inverse", "structure", ("pseudo_inverse",)),
    ("structure.conjugation_oracle", "structure", ("conjugation_oracle",)),
    ("structure.nilpotency_index", "structure", ("nilpotency_index",)),
    ("structure.jordan_check", "structure", ("jordan_check",)),
    ("experiments.run_experiment", "experiments", ("run_experiment",)),
    ("verify.run_checks", "verify", ("run_checks",)),
    ("cli.main", "cli", ("main",)),
    # argument parsing also happens in the parser's parse_args, see Tracer
    ("cli.parse", "cli", ("build_parser", "parse_scalar_list", "parse_int_list")),
    ("cli.format", "cli", ("matrix_to_csv", "matrix_to_json", "format_scalar")),
)
SPAN_NAMES = tuple(name for name, _, _ in LAYERS)
MODULES = tuple(dict.fromkeys(name.split(".")[0] for name in SPAN_NAMES))


def layer_targets(mods) -> list:
    """(span name, owner, attribute) for every wrapped function.

    ``mods`` maps a short module name to the loaded polydiff module.  A
    listed function that does not exist is an error: a change that
    renames or removes one must update ``LAYERS``.
    """
    targets = []
    for span, module, names in LAYERS:
        mod = mods[module]
        if names is None:
            names = sorted(n for n in vars(mod)
                           if n.startswith("series_") or n == "linear_power_series")
            if not names:
                raise AttributeError(f"traced layer {span}: no series functions in polydiff.{module}")
        for dotted in names:
            owner_name, _, attr = dotted.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            if attr not in vars(owner):
                raise AttributeError(f"traced layer {span}: polydiff.{module}.{dotted} is missing")
            targets.append((span, owner, attr))
    return targets


class Tracer:
    """Call counts and self times per span name, kept in memory."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.madds = 0
        self._child = [0.0]   # time spent in wrapped callees, one slot per open span
        self._undo = []

    def _wrap(self, name, fn, after=None):
        calls, self_s, child = self.calls, self.self_s, self._child
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            child.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[name] += dt - child.pop()
                child[-1] += dt
            return after(out) if after else out
        return wrapper

    def install(self, mods) -> None:
        core = mods["core"]
        for name, owner, attr in layer_targets(mods):
            fn = getattr(owner, attr)
            after = None
            if name == "core.matmul":
                fn = self._counting_matmul(fn, core.DenseMatrix)
            elif attr == "build_parser":
                # argument parsing happens in the returned parser's parse_args
                after = self._trace_parse_args
            self._undo += patch_everywhere(owner, attr, self._wrap(name, fn, after))

    def _counting_matmul(self, mul, dense):
        tracer = self

        @functools.wraps(mul)
        def counted(a, b):
            if isinstance(b, dense):
                tracer.madds += a.rows * a.cols * b.cols
            return mul(a, b)
        return counted

    def _trace_parse_args(self, parser):
        parser.parse_args = self._wrap("cli.parse", parser.parse_args)
        return parser

    def uninstall(self) -> None:
        unpatch(self._undo)
        self._undo = []

    def metrics(self, passes: int, time_scale: float) -> dict:
        """Per-layer metrics, per pass over the workload's op list.

        Self times are multiplied by ``time_scale``, the run's host-speed
        correction.
        """
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (self.calls[name] / passes, "count")
            out[f"{name}.self_s"] = (self.self_s[name] * time_scale / passes, "s")
        for mod in MODULES:
            total = sum(self.self_s[n] for n in SPAN_NAMES if n.split(".")[0] == mod)
            out[f"{mod}.self_s"] = (total * time_scale / passes, "s")
        out["core.matmul.madds"] = (self.madds / passes, "count")
        return out
