"""Benchmark of polydiff: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload conditioning --seed 1 --seconds 25 --trace 0

Run from the repository root; polydiff is imported from ``src/`` of the
same checkout.  The run sets up its inputs from the seed several times,
then runs whole passes over the workload's op list, at least three,
until ``--seconds`` have passed.  Each op is timed alone and its output
is checked after the clock stops.

A shared 2-core x86 VM ran 1.3-1.8x slower for stretches of seconds
to minutes, so there raw times of the same code differed by more than
any useful bound from one run to the next.  Each op is therefore
preceded by a fixed piece of pure-Python work, ``calibrate``, and every
time is scaled by ``CAL_REF_S`` over the median calibration time of the
nearby ops: times read as on that VM at its usual speed.  An op's
time in the run is the median of its scaled times over the passes.
Every op list holds at least 100 ops, so ten of them lie above the
90th percentile.

With ``--trace 0`` the last line carries the end-to-end metrics.  With
``--trace 1`` the run makes untraced passes for a third of the time,
then as many passes with every layer wrapped, checks that both gave
identical outputs, and reports per-layer calls and self times per pass,
plus the tracing overhead.  The line before the result holds context
that no gate reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import accuracy
import tracing
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
SETUP_REPEATS = 15
MIN_PASSES = 3
# Median time of calibrate() on the 2-core x86 VM the benchmark was
# defined on, at its usual speed.
CAL_REF_S = 1.2e-3
# Host speed at an op is the median calibration time of the ops within
# this distance of it in the same pass.
CAL_WINDOW = 5
_CAL_XS = [0.1 * k for k in range(60)]


def calibrate():
    """Fixed pure-Python work: float loops, Fractions, dicts, text and back."""
    s = 0.0
    for a in _CAL_XS:
        for b in _CAL_XS[:40]:
            s += a * b - a / (b + 1.0)
    q = Fraction(0)
    for k in range(1, 120):
        q += Fraction(k, k + 1) * Fraction(1, 3)
    d = {}
    for k in range(800):
        d[k % 37] = d.get(k % 37, 0) + k
    text = ",".join(format(x, ".17g") for x in _CAL_XS)
    return s, q, d, [float(x) for x in text.split(",")]


def time_calibration() -> float:
    t0 = time.perf_counter()
    calibrate()
    return time.perf_counter() - t0


class Passes:
    """Op times, calibration times, output fingerprints and failures of whole passes."""

    def __init__(self):
        self.times, self.cals, self.prints, self.failures, self.count = [], [], [], [], 0

    def add_pass(self, ops) -> None:
        clock = time.perf_counter
        for op in ops:
            self.cals.append(time_calibration())
            t0 = clock()
            try:
                out = op.run()
            except Exception as exc:   # a crashing op is a failed op, not an abort
                self.times.append(clock() - t0)
                self._fail(op, f"raised {type(exc).__name__}: {exc}")
                continue
            self.times.append(clock() - t0)
            try:
                self.prints.append(op.check(out))
            except Exception as exc:   # Mismatch, or output the check cannot parse
                self._fail(op, f"{type(exc).__name__}: {exc}")
        self.count += 1

    def _fail(self, op, why) -> None:
        self.prints.append(None)
        self.failures.append(f"{op.label}: {why}")

    def host_slowness(self) -> float:
        """Median calibration time over CAL_REF_S: above 1 on a slow host."""
        return statistics.median(self.cals) / CAL_REF_S

    def op_times(self) -> list:
        """Each op's scaled time, median over the passes, in op-list order."""
        per_pass = len(self.times) // self.count
        scaled = []
        for p in range(self.count):
            cals = self.cals[p * per_pass:(p + 1) * per_pass]
            for k in range(per_pass):
                local = statistics.median(cals[max(0, k - CAL_WINDOW):k + CAL_WINDOW + 1])
                scaled.append(self.times[p * per_pass + k] * CAL_REF_S / local)
        return [statistics.median(scaled[k::per_pass]) for k in range(per_pass)]


def run_passes(ops, seconds=None, passes=None, min_passes=1) -> Passes:
    """Whole passes: a fixed number, or until the time and pass minimum are met."""
    res = Passes()
    start = time.perf_counter()
    while True:
        res.add_pass(ops)
        if passes is not None:
            if res.count >= passes:
                return res
        elif time.perf_counter() - start >= seconds and res.count >= min_passes:
            return res


def remove_scratch(file_dir) -> None:
    """Delete this run's node files, and the scratch root once it is empty."""
    shutil.rmtree(file_dir, ignore_errors=True)
    try:
        SCRATCH.rmdir()
    except OSError:   # absent, or another run still uses it
        pass


def setup(workload, seed, file_dir):
    """Fresh import of polydiff plus the workload's inputs; returns (seconds, mods, ops)."""
    t0 = time.perf_counter()
    mods = wl.load_polydiff(SRC)
    ops = wl.build_ops(workload, mods, seed, file_dir)
    return time.perf_counter() - t0, mods, ops


def src_nonblank_lines() -> int:
    return sum(1 for path in (SRC / "polydiff").rglob("*.py")
               for line in path.read_text().splitlines() if line.strip())


def p90(times) -> float:
    return statistics.quantiles(times, n=10)[8]


def end_to_end(ops, mods, seconds, setup_s, context) -> tuple:
    res = run_passes(ops, seconds=seconds, min_passes=MIN_PASSES)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    errors = accuracy.forward_errors(mods)
    context["d_fwd_err_probes"] = errors
    times = res.op_times()
    context["op_p90_ms_is"] = (
        f"90th percentile, statistics.quantiles(n=10), of the {len(times)} ops' median "
        f"scaled times over {res.count} passes; {sum(t > p90(times) for t in times)} lie above it")
    context["host_slowness"] = res.host_slowness()
    context["raw_ops_per_s"] = len(ops) * res.count / sum(res.times)
    metrics = {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_p90_ms": (p90(times) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "d_fwd_err": (max(errors.values()) if errors else None, "ratio"),
        "setup_s": (setup_s, "s"),
    }
    return res, metrics


def traced(ops, mods, seconds, context) -> tuple:
    # the traced passes repeat the untraced ones and take longer
    base = run_passes(ops, seconds=seconds / 3)
    tracer = tracing.Tracer()
    tracer.install(mods)
    try:
        res = run_passes(ops, passes=base.count)
    finally:
        tracer.uninstall()
    differ = [f"{op.label}: traced output differs"
              for op, a, b in zip(ops * base.count, base.prints, res.prints)
              if a != b and a is not None and b is not None]
    overhead = sum(res.op_times()) / sum(base.op_times()) - 1
    context["untraced_s"], context["traced_s"] = sum(base.times), sum(res.times)
    context["host_slowness"] = res.host_slowness()
    metrics = tracer.metrics(base.count, 1 / res.host_slowness())
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    base.times += res.times
    base.cals += res.cals
    base.failures += res.failures + differ
    base.count += res.count
    return base, metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "polydiff" / "__init__.py").is_file():
        print(f"perfbench: no polydiff sources under {SRC}", file=sys.stderr)
        return 2
    file_dir = SCRATCH / str(os.getpid())
    try:
        setups, cals = [], [time_calibration()]
        for _ in range(SETUP_REPEATS):
            dt, mods, ops = setup(args.workload, args.seed, file_dir)
            setups.append(dt)
            cals.append(time_calibration())
        # each set-up scaled like an op, by the calibrations just before and after it
        setup_s = statistics.median(dt * 2 * CAL_REF_S / (before + after)
                                    for dt, before, after in zip(setups, cals, cals[1:]))
        context = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "src_nonblank_lines": src_nonblank_lines(), "ops_per_pass": len(ops),
        }
        if args.trace:
            res, metrics = traced(ops, mods, args.seconds, context)
        else:
            res, metrics = end_to_end(ops, mods, args.seconds, setup_s, context)
    finally:
        remove_scratch(file_dir)
    n = len(res.times)
    context.update({
        "setup_runs_s": setups, "setup_calibrations_s": cals,
        "ops": n, "passes": res.count, "failed_ops_ratio": len(res.failures) / n,
        "failures": res.failures[:20],
    })
    for line in res.failures[:20]:
        print(f"perfbench: failed op {line}", file=sys.stderr)
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": not res.failures, "attempted": n, "failed": len(res.failures),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
