"""Job-interleaved in-process A/B timing of two nctorus checkouts.

Usage:
    python3 tools/interleave_ab.py SRC_A SRC_B [--workload W] [--seed N]
                                   [--passes P]

Copies ``SRC_A/src/nctorus`` and ``SRC_B/src/nctorus`` into a temporary
directory as the packages ``nctorus_a`` and ``nctorus_b``.  Every import
inside the package is relative, so both load in one process.  The jobs of
one benchmark workload come from ``benchmarks/workloads.build_jobs`` (only
imported, nothing under ``benchmarks/`` runs), in the shuffled order of
``workloads.pass_order``.  After one untimed warm-up pass per side, each job
runs on both sides back to back, and the side that goes first alternates
from job to job.  The tool prints the total-time ratio A/B and the median
of the per-job ratios A/B (above 1 means B is faster), and exits 1 if any
job's output differs between the sides.

Timing noise on a shared machine comes in bursts that span many jobs, so
timing one side's block of jobs and then the other's can swing a ratio
either way; two runs of one job back to back see the same burst.  This is
a diagnostic for attributing a change to its parts.  Only the numbers of
``benchmarks/run.py``, recorded in a ``BENCH_*.json``, count as
performance claims.  Pure stdlib apart from the packages under test.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "benchmarks"))
import workloads as wl  # noqa: E402  (pure stdlib at import time)


def load_side(src: Path, name: str, tmp: Path):
    """Import the nctorus package of checkout src under the name ``name``."""
    shutil.copytree(src / "src" / "nctorus", tmp / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    pkg = importlib.import_module(name)
    importlib.import_module(f"{name}.cli")
    return pkg


def run_job(pkg, job: wl.Job):
    """One job as ``workloads.run_job`` runs it; returns comparable output."""
    try:
        if job.labels is not None:
            n, m, k, l, th = job.labels
            p = pkg.product_params(n, m, k, l, th)
            return pkg.structure_constants(p, pkg.ComplexStructure(-1j)).values
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = pkg.cli.main(list(job.argv))
        return code, buf.getvalue()
    except pkg.NCTorusError as exc:
        return type(exc).__name__, str(exc)


def timed(pkg, job: wl.Job):
    start = time.perf_counter()
    out = run_job(pkg, job)
    return time.perf_counter() - start, out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_a", type=Path)
    parser.add_argument("src_b", type=Path)
    parser.add_argument("--workload", choices=wl.WORKLOADS, default="actions")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=3)
    args = parser.parse_args(argv)

    jobs = wl.build_jobs(args.workload, args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        sides = (load_side(args.src_a, "nctorus_a", Path(tmp)),
                 load_side(args.src_b, "nctorus_b", Path(tmp)))
        for pkg in sides:
            for job in jobs:
                run_job(pkg, job)
        totals, ratios, differ = [0.0, 0.0], [], 0
        for pass_index in range(args.passes):
            gc.collect()
            for i, job in enumerate(wl.pass_order(jobs, args.seed, pass_index)):
                first = (i + pass_index) % 2
                took, outs = [0.0, 0.0], [None, None]
                for side in (first, 1 - first):
                    took[side], outs[side] = timed(sides[side], job)
                    totals[side] += took[side]
                ratios.append(took[0] / took[1])
                differ += outs[0] != outs[1]

    print(f"workload {args.workload}, seed {args.seed}: {args.passes} passes of "
          f"{len(jobs)} jobs, {differ} job runs with differing output")
    print(f"A {args.src_a}: {totals[0]:.3f} s; B {args.src_b}: {totals[1]:.3f} s")
    print(f"total-time ratio A/B: {totals[0] / totals[1]:.3f}")
    print(f"median per-job ratio A/B: {statistics.median(ratios):.3f}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
