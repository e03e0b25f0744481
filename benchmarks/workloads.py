"""Workload definitions: job grids, job execution and output checks.

A job is one call into nctorus.  ``verify`` and ``actions`` call the CLI
entry point in-process with an argv list; ``table`` calls the library
``structure_constants(product_params(...), ComplexStructure(-1j))``.  The
program receives only argv lists and labels; everything else (order,
program seeds of ``actions``) is derived from the benchmark seed here.

This module imports nothing from nctorus at import time, so a set-up probe
can load it before starting its clock.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
REFERENCES = BENCH_DIR / "data" / "references.json"

# Relative tolerance of closed form against direct summation used by the CLI.
TABLE_TOL = 1e-10

THETAS = {"0.2": 0.2, "sqrt2-1": math.sqrt(2) - 1}

# The five label pairs of the verify and actions grids, (n, m) x (k, l).
POINT_PAIRS = (
    (1, 2, 1, 3),
    (3, 2, 2, 3),
    (1, 4, 2, 3),
    (1, 3, 2, 5),
    (2, 3, 3, 5),
)

# (1,2)x(14,1) has M = 29; shifting the left factor by B/l = 13.8 prunes it
# to the zero vector, so identification_u1 fails (silent zero).
VERIFY_POINTS = tuple((pair, th) for pair in POINT_PAIRS for th in THETAS) + (
    ((1, 2, 14, 1), "0.2"),
)
# Each passing point runs twice per pass so the single failing point is
# 1 job in 21: job_p90_s then falls on an interior rank, not on the
# slowest passing job.
VERIFY_REPEATS = 2

# Label pairs of the table grid, M = n*l + m*k from 5 to 45, valid at both
# angles (n + m*theta > 0 and k - l*theta > 0).
TABLE_PAIRS = (
    (1, 3, 1, 2), (1, 4, 1, 2), (1, 2, 2, 3), (3, 2, 1, 2), (1, 3, 2, 3),
    (3, 4, 1, 2), (1, 4, 2, 3), (1, 2, 4, 3), (3, 2, 3, 2), (3, 2, 2, 3),
    (1, 3, 3, 5), (1, 6, 2, 3), (2, 5, 2, 3), (1, 3, 4, 5), (2, 3, 3, 5),
    (1, 5, 3, 5), (1, 3, 5, 6), (2, 3, 4, 5), (1, 3, 6, 5), (2, 9, 2, 3),
    (1, 3, 6, 7), (1, 4, 5, 6), (1, 6, 4, 3), (1, 7, 3, 7), (2, 3, 5, 7),
    (1, 4, 6, 5), (1, 2, 14, 1), (1, 3, 9, 4), (1, 4, 7, 5), (2, 3, 9, 4),
    (1, 4, 8, 5), (2, 3, 7, 9), (2, 5, 6, 5), (3, 2, 10, 7), (1, 7, 5, 7),
    (2, 3, 11, 5), (1, 5, 8, 5),
)
# Closed-form overflow reproducers: exp(+-2*pi*i*t*u) overflows because the
# congruence representative q0 leaves Im(t) unreduced.  (1,7)x(2,9) is
# invalid at sqrt2-1 (k - l*theta < 0), so it runs at 0.2 only.
TABLE_OVERFLOW = (
    ((2, 5, 3, 7), "0.2"),
    ((2, 5, 3, 7), "sqrt2-1"),
    ((1, 7, 2, 9), "0.2"),
)
TABLE_POINTS = tuple((pair, th) for pair in TABLE_PAIRS for th in THETAS) + TABLE_OVERFLOW

# Program seeds per actions point, drawn from the benchmark seed.
ACTIONS_SEEDS = 12

# Jobs expected to fail at the parent code.  They still count as failures;
# any other failure makes the run incorrect.
KNOWN_FAILURES = {
    "verify": {"1,2,14,1@0.2"},
    "table": {f"{','.join(map(str, pair))}@{th}" for pair, th in TABLE_OVERFLOW},
    "actions": set(),
}

WORKLOADS = ("verify", "table", "actions")


def point_key(pair: tuple[int, int, int, int], theta: str) -> str:
    return f"{','.join(map(str, pair))}@{theta}"


def cli_argv(command: str, pair: tuple[int, int, int, int], theta: str, seed: int) -> list[str]:
    n, m, k, l = pair
    return [command, "--theta", theta, "--nm", f"{n},{m}", "--kl", f"{k},{l}",
            "--seed", str(seed)]


@dataclass(frozen=True)
class Job:
    """One unit of work: ``point`` names the reference entry it is checked against."""

    point: str
    argv: tuple[str, ...] = ()
    labels: tuple[int, int, int, int, float] | None = None


def build_jobs(workload: str, seed: int) -> list[Job]:
    """The jobs of one pass, before shuffling.  Pure stdlib: no nctorus."""
    if workload == "verify":
        jobs = []
        for pair, th in VERIFY_POINTS:
            key = point_key(pair, th)
            repeats = 1 if key in KNOWN_FAILURES["verify"] else VERIFY_REPEATS
            jobs += [Job(key, tuple(cli_argv("verify-all", pair, th, 0)))] * repeats
        return jobs
    if workload == "table":
        return [Job(point_key(pair, th), labels=(*pair, THETAS[th])) for pair, th in TABLE_POINTS]
    if workload == "actions":
        rng = random.Random(f"actions:{seed}")
        seeds = [rng.randrange(1_000_000) for _ in range(ACTIONS_SEEDS)]
        return [
            Job(point_key(pair, th), tuple(cli_argv("algebra-check", pair, th, s)))
            for pair in POINT_PAIRS for th in THETAS for s in seeds
        ]
    raise ValueError(f"unknown workload {workload!r}")


def pass_order(jobs: list[Job], seed: int, pass_index: int) -> list[Job]:
    order = list(jobs)
    random.Random(f"order:{seed}:{pass_index}").shuffle(order)
    return order


def import_program():
    """Import nctorus from this checkout's ``src`` and nowhere else."""
    if not (SRC_DIR / "nctorus" / "__init__.py").is_file():
        raise FileNotFoundError(f"no nctorus package under {SRC_DIR}")
    sys.path.insert(0, str(SRC_DIR))
    import nctorus
    import nctorus.cli  # noqa: F401  (verify and actions call the CLI)

    if Path(nctorus.__file__).resolve().parent != (SRC_DIR / "nctorus").resolve():
        raise ImportError(f"nctorus imported from {nctorus.__file__}, not {SRC_DIR}")
    return nctorus


def load_references() -> dict:
    with open(REFERENCES) as handle:
        return json.load(handle)


@dataclass
class Outcome:
    ok: bool
    items: int
    reason: str = ""


def run_job(nct, job: Job):
    """Run one job; returns its raw output.  Exceptions propagate to the caller."""
    if job.labels is not None:
        n, m, k, l, th = job.labels
        p = nct.product_params(n, m, k, l, th)
        return nct.structure_constants(p, nct.ComplexStructure(-1j))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = sys.modules["nctorus.cli"].main(list(job.argv))
    return code, buf.getvalue()


def check_job(workload: str, job: Job, output, refs: dict) -> Outcome:
    """Compare one job's output with the committed reference data."""
    if workload == "table":
        ref = refs["table"][job.point]
        m, l, big_m = ref["shape"]
        if tuple(output.shape) != (m, l, big_m):
            return Outcome(False, 0, f"shape {output.shape}")
        values = iter(ref["values"])
        for alpha in range(m):
            for beta in range(l):
                for gamma in range(big_m):
                    re, im = next(values)
                    want = complex(re, im)
                    got = output.values[alpha][beta][gamma]
                    if not abs(got - want) <= TABLE_TOL * (1 + abs(want)):
                        return Outcome(False, 0, f"entry {(alpha, beta, gamma)} off")
        return Outcome(True, m * l * big_m)
    code, text = output
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return Outcome(False, 0, f"exit {code}, no JSON report")
    failing = [c["name"] for c in doc.get("checks", []) if c.get("pass") is False]
    if code != 0:
        return Outcome(False, 0, f"exit {code}: " + ",".join(failing))
    names = [c["name"] for c in doc.get("checks", [])]
    if names != refs[workload][job.point]:
        return Outcome(False, 0, "unexpected check names")
    return Outcome(True, 1)
