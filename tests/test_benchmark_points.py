"""Every point of every benchmark workload passes its reference check once.

The benchmark counts a failing job in its ``ok_frac``; this runs the first
seed-1 job of each distinct point through the benchmark's own ``run_job``
and ``check_job``, so a point that stops passing fails here first.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import nctorus
import nctorus.cli  # noqa: F401  (verify and actions call the CLI)

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
_spec = importlib.util.spec_from_file_location("benchmark_workloads", BENCH / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
# its dataclasses look their module up by name while they are built
sys.modules[_spec.name] = workloads
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_benchmark_point_passes(workload):
    refs = workloads.load_references()
    jobs = {}
    for job in workloads.build_jobs(workload, 1):
        jobs.setdefault(job.point, job)
    failing = {}
    for point, job in jobs.items():
        try:
            outcome = workloads.check_job(workload, job, workloads.run_job(nctorus, job), refs)
        except Exception as exc:  # the benchmark counts a raising job as failed
            failing[point] = f"{type(exc).__name__}: {exc}"
            continue
        if not outcome.ok:
            failing[point] = outcome.reason
    assert set(jobs) == set(refs[workload])
    assert failing == {}
