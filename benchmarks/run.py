"""nctorus benchmark: one closed-loop caller, jobs in sequence.

Usage:
    python3 benchmarks/run.py --workload {verify,table,actions} --seed N \
        --seconds S --trace {0,1}

With --trace 0 the run measures set-up time in fresh interpreters, then
runs whole shuffled passes over the workload's jobs until S seconds have
elapsed, and prints the end-to-end metrics.  With --trace 1 it runs one
untraced pass, then traced passes until S seconds have elapsed, and prints
per-layer metrics.  Times are in reference-speed seconds (calibrate.py).
The last line of standard output is one JSON object {correct, attempted,
failed, metrics}; the line before it holds diagnostics.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl
from calibrate import K_REF, Calibration
from tracing import LAYERS, Tracer

SETUP_PROBES = 21
SETUP_TIMEOUT_S = 60
WARMUP_S = 1.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; failures enter as +inf and rank slowest."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure_setup(workload: str, seed: int) -> tuple[float, list[float], list[float]]:
    """Median reference-speed seconds of SETUP_PROBES fresh set-ups.

    Each probe normalises its own time by kernel samples taken in the same
    process just before and after it.
    """
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    walls, kernels = [], []
    # The first probe only warms the file cache.
    for _ in range(SETUP_PROBES + 1):
        done = subprocess.run(
            [sys.executable, str(probe), workload, str(seed)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        report = json.loads(done.stdout.strip().splitlines()[-1])
        walls.append(report["wall_s"])
        kernels.append(statistics.median(report["kernel_s"]))
    walls, kernels = walls[1:], kernels[1:]
    setup_s = statistics.median(w * K_REF / k for w, k in zip(walls, kernels))
    return setup_s, walls, kernels


class Runner:
    """Runs passes over one workload's jobs and keeps per-job records."""

    def __init__(self, workload: str, seed: int, nct, refs: dict) -> None:
        self.workload = workload
        self.seed = seed
        self.nct = nct
        self.refs = refs
        self.jobs = wl.build_jobs(workload, seed)
        self.cal = Calibration()
        self.passes = 0
        self.starts: list[float] = []
        self.walls: list[float] = []  # failures keep their time
        self.ok: list[bool] = []
        self.items = 0
        self.failures: dict[str, dict] = {}
        self.on_job = None  # called with the job index before each job

    def run_pass(self) -> range:
        """One shuffled pass; returns its job indices.  Run inside ``cal.sampling()``."""
        order = wl.pass_order(self.jobs, self.seed, self.passes)
        self.passes += 1
        first = len(self.walls)
        for job in order:
            if self.on_job is not None:
                self.on_job(len(self.walls))
            start = time.perf_counter()
            try:
                output = wl.run_job(self.nct, job)
                error = None
            except Exception as exc:  # any exception is a failed job, never an abort
                output, error = None, type(exc).__name__
            end = time.perf_counter()
            wall = end - start - self.cal.kernel_time(start, end)
            if error is None:
                outcome = wl.check_job(self.workload, job, output, self.refs)
            else:
                outcome = wl.Outcome(False, 0, error)
            self.starts.append(start)
            self.walls.append(wall)
            self.ok.append(outcome.ok)
            if outcome.ok:
                self.items += outcome.items
            else:
                rec = self.failures.setdefault(job.point, {"count": 0, "reasons": []})
                rec["count"] += 1
                if outcome.reason not in rec["reasons"]:
                    rec["reasons"].append(outcome.reason)
        return range(first, len(self.walls))

    def warm_up(self) -> None:
        """Untimed jobs until WARMUP_S has passed, so lazy set-up is done."""
        deadline = time.perf_counter() + WARMUP_S
        for job in wl.pass_order(self.jobs, self.seed, -1):
            try:
                wl.run_job(self.nct, job)
            except Exception:  # failures are accounted for in the timed passes
                pass
            if time.perf_counter() >= deadline:
                break

    def factors(self) -> list[float]:
        """Per-job factors from wall to reference-speed seconds."""
        return [self.cal.factor(s, s + w) for s, w in zip(self.starts, self.walls)]

    @property
    def unexpected(self) -> list[str]:
        return sorted(set(self.failures) - wl.KNOWN_FAILURES[self.workload])


def end_to_end(args, runner: Runner) -> tuple[dict, dict]:
    setup_s, setup_walls, setup_kernels = measure_setup(args.workload, args.seed)
    runner.warm_up()
    gc.collect()
    start = time.perf_counter()
    with runner.cal.sampling():
        while True:
            runner.run_pass()
            if time.perf_counter() - start >= args.seconds:
                break
    loop_wall = time.perf_counter() - start
    times = [w * f for w, f in zip(runner.walls, runner.factors())]
    ranked = [t if ok else math.inf for t, ok in zip(times, runner.ok)]
    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (runner.items / sum(times), "1/s"),
        "job_p50_s": (percentile(ranked, 0.5), "s"),
        "job_p90_s": (percentile(ranked, 0.9), "s"),
        "ok_frac": (sum(runner.ok) / len(times), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    diagnostics = {
        "passes": runner.passes,
        "jobs_per_pass": len(runner.jobs),
        "job_count": len(times),
        "items": runner.items,
        "loop_wall_s": loop_wall,
        "job_wall_s": sum(runner.walls),
        "k_run_s": runner.cal.k_run,
        "kernel_samples": len(runner.cal.samples),
        "setup_wall_s": setup_walls,
        "setup_k_s": setup_kernels,
    }
    return metrics, diagnostics


def traced(args, runner: Runner) -> tuple[dict, dict]:
    runner.warm_up()
    gc.collect()
    tracer = Tracer()
    passes, self_times, counts = [], [], None
    with runner.cal.sampling():
        untraced = runner.run_pass()
        runner.on_job = lambda index: setattr(tracer, "job", index)
        runner.cal.observer = tracer.exclude
        tracer.install()
        start = time.perf_counter()
        try:
            while True:
                tracer.reset()
                passes.append(runner.run_pass())
                self_times.append(dict(tracer.self_s))
                if counts is None:
                    counts = tracer.counts()
                if time.perf_counter() - start >= args.seconds:
                    break
        finally:
            tracer.uninstall()
            runner.cal.observer = None
    factors = runner.factors()
    times = [w * f for w, f in zip(runner.walls, factors)]
    metrics = {name: (value, "ratio" if name.endswith("_frac") else "count")
               for name, value in counts.items()}
    layer_s = []
    for spans in self_times:
        per_layer = dict.fromkeys(LAYERS, 0.0)
        for (job, layer), seconds in spans.items():
            per_layer[layer] += seconds * factors[job]
        layer_s.append(per_layer)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (statistics.median(p[layer] for p in layer_s), "s")
    untraced_s = sum(times[i] for i in untraced)
    traced_s = statistics.median(sum(times[i] for i in jobs) for jobs in passes)
    diagnostics = {
        "traced_passes": len(passes),
        "jobs_per_pass": len(runner.jobs),
        "untraced_pass_s": untraced_s,
        "traced_pass_s": traced_s,
        "trace_overhead_s": traced_s - untraced_s,
        "k_run_s": runner.cal.k_run,
    }
    return metrics, diagnostics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # Bytecode is compiled before anything is timed, so set-up never
    # includes a one-off .pyc build.
    if not (wl.SRC_DIR / "nctorus").is_dir() or not compileall.compile_dir(
            str(wl.SRC_DIR), quiet=1):
        print(f"error: no compilable nctorus package under {wl.SRC_DIR}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(wl.BENCH_DIR), quiet=1)
    try:
        nct = wl.import_program()
    except (OSError, ImportError) as exc:
        print(f"error: cannot import nctorus: {exc}", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed, nct, wl.load_references())
    if args.trace:
        metrics, diagnostics = traced(args, runner)
    else:
        metrics, diagnostics = end_to_end(args, runner)
    diagnostics.update(
        workload=args.workload,
        seed=args.seed,
        k_ref_s=K_REF,
        failures=runner.failures,
        unexpected_failures=runner.unexpected,
        nproc=len(os.sched_getaffinity(0)),
        python=platform.python_version(),
    )
    print(json.dumps({"diagnostics": diagnostics}, sort_keys=True))
    result = {
        "correct": not runner.unexpected,
        "attempted": len(runner.walls),
        "failed": runner.ok.count(False),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
