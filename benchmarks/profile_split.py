"""Top-5 cProfile self-time split per workload (a diagnostic, not a metric).

Usage: python3 benchmarks/profile_split.py [--workloads verify,table,actions] [--seed N]

Profiles one pass over each workload's jobs and prints the five functions
with the most self time and their share of the pass.  cProfile adds a cost
to every Python call, so shares lean towards call-heavy code; use it to
find candidates, and the benchmark to measure them.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys

import workloads as wl


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    nct = wl.import_program()
    for workload in args.workloads.split(","):
        jobs = wl.pass_order(wl.build_jobs(workload, args.seed), args.seed, 0)
        profiler = cProfile.Profile()
        profiler.enable()
        for job in jobs:
            try:
                wl.run_job(nct, job)
            except Exception:  # failing reproducers still count towards the split
                pass
        profiler.disable()
        stats = pstats.Stats(profiler).stats
        total = sum(tottime for _, _, tottime, _, _ in stats.values())
        top = sorted(stats.items(), key=lambda kv: kv[1][2], reverse=True)[:5]
        print(f"{workload}: {len(jobs)} jobs, {total:.2f} s profiled self time")
        for (path, line, func), (_, ncalls, tottime, _, _) in top:
            where = f"{path.rsplit('/src/', 1)[-1]}:{line}" if line else path
            print(f"  {100 * tottime / total:5.1f}%  {ncalls:>9d} calls  {func}  ({where})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
