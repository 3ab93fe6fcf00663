"""Node families, experiment records, and their CSV serialization."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from polydiff.core import NodeSet, mat_inf_norm
from polydiff.experiments import (
    DEFAULT_SIZES,
    ExperimentRecord,
    chebyshev_points,
    equispaced_points,
    hermite_error_record,
    records_to_csv,
    run_experiment,
)
from polydiff.hermite import diff_matrix_hermite
from polydiff.lagrange import diff_matrix_lagrange
from polydiff.verify import CheckResult


def test_chebyshev_points_shape():
    pts = chebyshev_points(8)
    assert len(pts) == 9
    assert pts[0] == -1.0 and pts[-1] == 1.0
    assert all(a < b for a, b in zip(pts, pts[1:]))
    assert abs(pts[4]) < 1e-15  # midpoint of an even count


def test_equispaced_points_shape():
    pts = equispaced_points(4)
    assert pts == [-1.0, -0.5, 0.0, 0.5, 1.0]


def test_run_experiment_validates_input():
    with pytest.raises(ValueError):
        run_experiment("bogus")
    with pytest.raises(ValueError):
        run_experiment("hermite-norms", node_family="legendre")
    with pytest.raises(ValueError):
        run_experiment("lagrange-error", ns=[0])


def test_default_sizes_are_used():
    records = run_experiment("lagrange-error", ns=None)
    assert tuple(r.n for r in records) == DEFAULT_SIZES


def test_lagrange_error_is_tiny_at_small_n():
    for r in run_experiment("lagrange-error", ns=[3, 5, 8]):
        assert r.confluency == 1
        assert r.norm_D is None and r.norm_Z is None
        assert 0 <= r.max_err < 1e-13


def test_hermite_norms_record_matches_direct_build():
    (r,) = run_experiment("hermite-norms", confluency=2, ns=[4])
    ns = NodeSet(chebyshev_points(4), [2] * 5)
    assert r.norm_D == pytest.approx(float(mat_inf_norm(diff_matrix_hermite(ns))))
    assert r.max_err is None
    assert r.confluency == 2 and r.node_family == "chebyshev"


def test_confluency_one_norms_match_lagrange():
    (r,) = run_experiment("hermite-norms", confluency=1, ns=[6])
    D = diff_matrix_lagrange(NodeSet(chebyshev_points(6)))
    assert r.norm_D == pytest.approx(float(mat_inf_norm(D)))


def test_hermite_error_record_shape():
    (r,) = run_experiment("hermite-error", ns=[5])
    assert r.confluency == 3
    assert r.norm_D is None and r.max_err is not None
    assert math.isfinite(r.max_err)


def test_experiments_are_deterministic():
    a = run_experiment("hermite-norms", ns=[3, 5])
    b = run_experiment("hermite-norms", ns=[3, 5])
    assert a == b


def test_records_at_the_edge_of_the_float_range_show_their_nan_or_refuse():
    # n=717: the weights are finite, near 1e308, but 464 grid values stay nan behind the
    # maximum, which a plain max dropped: the record read 9.6e193
    assert math.isnan(hermite_error_record(717, "equispaced", 1).max_err)
    # one size past it, or at s=3 from n=240, some weight is infinite: the size is named
    for which, n, s, named in (("lagrange-error", 718, 1, "b_346,0 = inf"),
                               ("hermite-norms", 240, 3, "b_113,0 = -inf"),
                               ("hermite-error", 240, 3, "b_113,0 = -inf")):
        with pytest.raises(ArithmeticError, match=f"^at n={n}: the weight {named} is outside"):
            run_experiment(which, "equispaced", s, [3, n])


def test_csv_layout():
    records = [
        ExperimentRecord(3, "chebyshev", 3, norm_D=12.5, norm_Z=1e-15),
        ExperimentRecord(5, "equispaced", 1, max_err=0.25),
    ]
    text = records_to_csv(records)
    lines = text.splitlines()
    assert lines[0] == "# grid: 1001 uniform points on [-1,1]"
    assert lines[1] == "n,node_family,confluency,norm_D,norm_Z,max_err"
    assert lines[2] == "3,chebyshev,3,12.5,1e-15,"
    assert lines[3] == "5,equispaced,1,,,0.25"
    assert text.endswith("\n")


def test_csv_roundtrips_floats():
    (r,) = run_experiment("hermite-norms", ns=[5])
    row = records_to_csv([r]).splitlines()[2].split(",")
    assert float(row[3]) == r.norm_D and float(row[4]) == r.norm_Z


def test_records_compare_as_tuples_and_the_package_imports_no_dataclasses():
    assert ExperimentRecord(3, "chebyshev", 3, norm_D=12.5) == (3, "chebyshev", 3, 12.5, None, None)
    assert CheckResult("name", "all", True) == ("name", "all", True, "")
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = "import sys, polydiff; sys.exit('dataclasses' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0
