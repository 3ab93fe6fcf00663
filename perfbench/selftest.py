"""Self-test of the benchmark's output checks and of its tracing.

    python3 perfbench/selftest.py

Run from the repository root.  For each workload, on a quick subset of
its ops:

1. an untraced pass has no failed ops;
2. a traced pass gives exactly the outputs of the untraced pass (the
   tracing overhead is printed);
3. with a deliberately corrupted constructor substituted through the
   module namespaces (every entry doubled), some ops fail.

Prints one JSON line per workload; exits 1 if any of these fails.
"""

from __future__ import annotations

import json
import sys

import run
import tracing
import workloads as wl

CORRUPTED = {
    "conditioning": ("hermite", "diff_matrix_hermite"),
    "exact-structure": ("lagrange", "diff_matrix_lagrange"),
    "cli-requests": ("degree_graded", "chebyshev_diff_matrix"),
}


def quick(workload, op) -> bool:
    """Small ops only, so the self-test takes seconds."""
    if workload == "conditioning":
        return int(op.label.rsplit("|", 1)[1]) <= 13
    if workload == "exact-structure":
        size = op.label.rsplit("-", 1)[1]
        return size.isdigit() and int(size) <= 6
    return True


def doubled(constructor):
    def corrupted(*args, **kwargs):
        return constructor(*args, **kwargs) * 2
    return corrupted


def selftest(workload, file_dir) -> dict:
    mods = wl.load_polydiff(run.SRC)
    ops = [op for op in wl.build_ops(workload, mods, 1, file_dir) if quick(workload, op)]
    clean = run.run_passes(ops, passes=1)
    tracer = tracing.Tracer()
    tracer.install(mods)
    try:
        traced = run.run_passes(ops, passes=1)
    finally:
        tracer.uninstall()
    module, name = CORRUPTED[workload]
    undo = tracing.patch_everywhere(mods[module], name, doubled(getattr(mods[module], name)))
    try:
        broken = run.run_passes(ops, passes=1)
    finally:
        tracing.unpatch(undo)
    report = {
        "workload": workload, "ops": len(ops),
        "clean_failed": len(clean.failures),
        "traced_identical": traced.prints == clean.prints,
        "trace_overhead": sum(traced.times) / sum(clean.times) - 1,
        "corrupted": f"{module}.{name}",
        "corrupted_failed_ops_ratio": len(broken.failures) / len(broken.times),
    }
    report["ok"] = (report["clean_failed"] == 0 and report["traced_identical"]
                    and report["corrupted_failed_ops_ratio"] > 0)
    return report


def main() -> int:
    file_dir = run.SCRATCH / "selftest"
    ok = True
    try:
        for workload in wl.WORKLOADS:
            report = selftest(workload, file_dir)
            ok &= report["ok"]
            print(json.dumps(report), flush=True)
    finally:
        run.remove_scratch(file_dir)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
