"""Self-test of the traced run: layer coverage and repeatable counts.

Usage: python3 benchmarks/selftest.py [--workloads verify,table,actions]

Runs ``run.py --trace 1`` twice per workload with a short --seconds and
checks that (a) both runs are correct and report identical counts, and
(b) each layer is busy or idle on each workload as the benchmark's design
says.  Busy layers prove that the wrappers reached every binding: algebra
``mul`` is called by ``cli`` through ``from .algebra import mul``, theta is
reached from ``tensor`` through ``from .theta import theta_st``.  Also
prints the tracing overhead of each run.  Exits 1 if any check failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"

# (metric, expected): "+" means > 0, 0 means exactly zero.
EXPECT = {
    "verify": [
        ("tensor.calls", "+"), ("tensor.evaluate_calls", "+"), ("gaussians.evaluate_calls", "+"),
        ("theta.calls", "+"), ("algebra.mul_calls", "+"), ("modules.calls", "+"),
        ("connections.calls", "+"), ("cli.calls", "+"),
    ],
    "table": [
        ("tensor.calls", "+"), ("theta.calls", "+"), ("theta.terms", "+"),
        ("tensor.evaluate_calls", 0), ("gaussians.calls", 0), ("connections.calls", 0),
        ("cli.calls", 0), ("algebra.mul_calls", 0),
    ],
    "actions": [
        ("algebra.mul_calls", "+"), ("gaussians.vector_calls", "+"), ("modules.calls", "+"),
        ("connections.calls", "+"), ("cli.calls", "+"),
        ("tensor.calls", 0), ("theta.calls", 0), ("tensor.evaluate_calls", 0),
    ],
}


def traced_run(workload: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=True,
    )
    lines = done.stdout.strip().splitlines()
    diag = json.loads(lines[-2])["diagnostics"]
    print(f"     {workload}: untraced pass {diag['untraced_pass_s']:.3f} s, traced pass "
          f"{diag['traced_pass_s']:.3f} s, overhead {diag['trace_overhead_s']:.3f} s")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(EXPECT))
    args = parser.parse_args()
    failures = 0
    for workload in args.workloads.split(","):
        first, second = traced_run(workload), traced_run(workload)
        counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
                  for r in (first, second)]
        checks = [("correct", first["correct"] and second["correct"]),
                  ("counts repeat", counts[0] == counts[1])]
        for metric, want in EXPECT[workload]:
            value = counts[0][metric]
            checks.append((f"{metric} {'> 0' if want == '+' else '== 0'} (is {value})",
                           value > 0 if want == "+" else value == 0))
        for name, ok in checks:
            print(f"{'ok  ' if ok else 'FAIL'} {workload}: {name}")
            failures += not ok
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
