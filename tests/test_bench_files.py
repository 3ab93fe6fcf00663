"""Every committed ``BENCH_<pr>.json`` records paired benchmark runs in one shape.

A file is a JSON list with one object per ``perfbench/run.py`` run: the
workload, seed and seconds it ran with, which side of a pair it measured
(``parent`` or ``change``) and that side's commit, and the run's context
and result lines exactly as the benchmark printed them.  No bound is put
on the numbers: the file is a record, and the benchmark's gates judge it.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}


def test_a_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_runs_have_the_agreed_fields(path):
    assert re.fullmatch(r"BENCH_\d+\.json", path.name)
    runs = json.loads(path.read_text())
    assert isinstance(runs, list) and runs
    sides = {}
    for run in runs:
        assert run["workload"] in WORKLOADS
        assert isinstance(run["seed"], int) and not isinstance(run["seed"], bool)
        assert isinstance(run["seconds"], (int, float)) and run["seconds"] > 0
        assert run["side"] in ("parent", "change")
        assert isinstance(run["commit"], str) and run["commit"].strip()
        # the two lines are kept as printed, so they are strings holding JSON
        context = json.loads(run["context"])["context"]
        assert (context["workload"], context["seed"]) == (run["workload"], run["seed"])
        result = json.loads(run["result"])
        assert {"correct", "attempted", "failed", "metrics"} <= set(result)
        for metric in result["metrics"].values():
            assert set(metric) == {"value", "unit"}
        if not context["trace"]:
            assert END_TO_END <= set(result["metrics"])
        sides.setdefault(run["workload"], set()).add(run["side"])
    # runs come in pairs: every workload measured on both sides
    assert all(s == {"parent", "change"} for s in sides.values())
