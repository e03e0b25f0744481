"""Run the benchmark on several seeds and set each metric's spread against its bound.

Usage: python3 benchmarks/steadiness.py [--workloads verify,table,actions]
           [--seeds 1-10] [--out FILE]

For every workload and seed this runs the command of BENCHMARK.json with
--trace 0, then reports per end-to-end metric the median, the quartile
spread (Q3 - Q1) / median from statistics.quantiles(n=4), and that spread
as a share of the metric's bound.  Run it from the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    report = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in names:
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            start = time.perf_counter()
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=True)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            diag = json.loads(lines[-2])["diagnostics"]
            runs.append({"seed": seed, "elapsed_s": time.perf_counter() - start,
                         "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"], "k_run_s": diag["k_run_s"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(workload, seed, json.dumps(runs[-1]["metrics"]), flush=True)
        summary = {}
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            summary[metric["name"]] = {
                "median": med, "spread": spread, "bound": metric["bound"],
                "spread_over_bound": spread / metric["bound"],
            }
            print(f"  {workload:8s} {metric['name']:12s} median {med:.6g} "
                  f"spread {spread:.4f} = {spread / metric['bound']:.2f} x bound", flush=True)
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
