"""The benchmark's stored CLI request catalogue, replayed in process.

``perfbench/refs/cli_catalogue.json`` holds 231 requests with their exit
codes, for each exact or rejected request the sha256 of its stdout, and
for each of the 77 float requests a fingerprint of its printed numbers.
Replaying them here keeps every exact output byte-identical between
benchmark runs, and every float output within the benchmark's own
tolerance of its fingerprint, checked with the benchmark's own helper.
The files are only read.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
from pathlib import Path

from polydiff.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
CATALOGUE = PERFBENCH / "refs" / "cli_catalogue.json"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse rejects flags this way
            code = exc.code
    return code, out.getvalue()


def test_catalogue_replays_with_the_stored_codes_and_digests(tmp_path):
    catalogue = json.loads(CATALOGUE.read_text())
    for name, text in catalogue["files"].items():
        (tmp_path / name).write_text(text)
    requests = catalogue["requests"]
    assert len(requests) == 231
    assert sum("sha256" in req["expect"] for req in requests) == 154
    assert sum("float" in req["expect"] for req in requests) == 77
    wl = _workloads()
    wrong = []
    for req in requests:
        argv = [f"@{tmp_path / tok[6:]}" if tok.startswith("@FILE:") else tok for tok in req["argv"]]
        code, text = _run(argv)
        want = req["expect"]
        if code != want["code"] or (
                "sha256" in want and hashlib.sha256(text.encode()).hexdigest() != want["sha256"]):
            wrong.append(" ".join(req["argv"]))
        elif "float" in want:
            got, ref = wl.float_fingerprint(argv[0], wl.option(argv, "--format", "csv"), text), want["float"]
            if got["meta"] != ref["meta"] or any(
                    abs(complex(*a) - complex(*b)) > wl.FLOAT_RTOL * ref["scale"]
                    for a, b in zip(got["forms"], ref["forms"])):
                wrong.append(" ".join(req["argv"]))
    assert wrong == []
