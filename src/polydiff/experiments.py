"""Conditioning experiments run entirely in double precision.

Two node families on [-1, 1] are compared at sizes from a fixed list:
Chebyshev points t_j = cos(pi (n - j) / n) and equispaced points
t_j = -1 + 2 j / n, j = 0 .. n.  The measured quantities are the
infinity norm of the differentiation matrix, the residual norm when it
is applied to the exact representation of the constant 1 (which a
perfect construction would annihilate), and the worst interpolation
error for the constant on a uniform evaluation grid.

Everything here is deterministic: no randomness, fixed grids, fixed
size lists, double precision throughout, weight construction included.
The weights themselves stay accurate (at Chebyshev n=55, confluency 3,
they keep about 12 digits); the loss of accuracy shows in the
nontrivial rows of the differentiation matrix, that is in norm_Z.  The grid
is evaluated by one ``hermite_eval`` call per record.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .core import NodeSet, mat_apply, mat_inf_norm, vec_inf_norm
from .hermite import constant_data, diff_matrix_hermite, gen_bary_weights, hermite_eval

DEFAULT_SIZES = (3, 5, 8, 13, 21, 34, 55)
DEFAULT_CONFLUENCY = 3
GRID_POINTS = 1001
GRID_NOTE = f"grid: {GRID_POINTS} uniform points on [-1,1]"

EXPERIMENTS = ("hermite-norms", "hermite-error", "lagrange-error")


class ExperimentRecord(NamedTuple):
    """One size of one experiment, unmeasured quantities None; compares as a tuple."""

    n: int
    node_family: str
    confluency: int
    norm_D: float | None = None
    norm_Z: float | None = None
    max_err: float | None = None


def chebyshev_points(n: int) -> list[float]:
    """n + 1 Chebyshev points of the second kind, ascending on [-1, 1]."""
    return [math.cos(math.pi * (n - j) / n) for j in range(n + 1)]


def equispaced_points(n: int) -> list[float]:
    return [-1.0 + 2.0 * j / n for j in range(n + 1)]


_POINTS = {"chebyshev": chebyshev_points, "equispaced": equispaced_points}
NODE_FAMILIES = tuple(_POINTS)


def _node_set(n: int, family: str, confluency: int) -> NodeSet:
    return NodeSet(_POINTS[family](n), [confluency] * (n + 1))


def _grid() -> list[float]:
    return [-1.0 + 2.0 * t / (GRID_POINTS - 1) for t in range(GRID_POINTS)]


def hermite_norms_record(n: int, family: str, confluency: int) -> ExperimentRecord:
    """Norm of D and of D applied to the constant's exact layout."""
    nodes = _node_set(n, family, confluency)
    D = diff_matrix_hermite(nodes)
    z = mat_apply(D, constant_data(nodes))
    return ExperimentRecord(n, family, confluency,
                            norm_D=float(mat_inf_norm(D)),
                            norm_Z=float(vec_inf_norm(z)))


def hermite_error_record(n: int, family: str, confluency: int) -> ExperimentRecord:
    """Worst deviation of the interpolant of the constant 1 on the grid; nan when any value is."""
    nodes = _node_set(n, family, confluency)
    w = gen_bary_weights(nodes)
    data = constant_data(nodes)
    err = vec_inf_norm([v - 1.0 for v in hermite_eval(w, data, _grid())])
    return ExperimentRecord(n, family, confluency, max_err=err)


def run_experiment(which: str, node_family: str = "chebyshev",
                   confluency: int | None = None, ns=None) -> list[ExperimentRecord]:
    """One record per size; sizes default to the built-in list, the confluency to the experiment's own."""
    if which not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {which!r}; expected one of {EXPERIMENTS}")
    if node_family not in NODE_FAMILIES:
        raise ValueError(f"unknown node family {node_family!r}")
    if confluency is None:   # lagrange-error is the confluency-1 case of hermite-error
        confluency = 1 if which == "lagrange-error" else DEFAULT_CONFLUENCY
    elif which == "lagrange-error" and confluency != 1:
        raise ValueError("lagrange-error runs at confluency 1")
    record = hermite_norms_record if which == "hermite-norms" else hermite_error_record
    sizes = tuple(ns) if ns is not None else DEFAULT_SIZES
    out = []
    for n in sizes:
        if n < 1:
            raise ValueError("sizes must be positive")
        try:
            out.append(record(n, node_family, confluency))
        except ArithmeticError as exc:
            raise ArithmeticError(f"at n={n}: {exc}") from exc
    return out


def _format_value(v) -> str:
    if v is None:
        return ""
    return repr(float(v))


def records_to_csv(records) -> str:
    lines = [f"# {GRID_NOTE}", "n,node_family,confluency,norm_D,norm_Z,max_err"]
    for r in records:
        lines.append(",".join([str(r.n), r.node_family, str(r.confluency),
                               _format_value(r.norm_D), _format_value(r.norm_Z),
                               _format_value(r.max_err)]))
    return "\n".join(lines) + "\n"
