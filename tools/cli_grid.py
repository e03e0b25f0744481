"""Run the CLI over input sets: record, compare and sweep its output.

Usage:
    python3 tools/cli_grid.py record SRC OUT.json
    python3 tools/cli_grid.py compare A.json B.json
    python3 tools/cli_grid.py digest SRC OUT.json
    python3 tools/cli_grid.py sweep [--label N,M,K,L]... [--seed SEEDS] [--json OUT]

``record`` runs ``python -m nctorus.cli`` with ``PYTHONPATH=SRC/src`` once
per argv of the grid and stores its exit code, stdout and stderr, plus the
files written by the ``--output`` calls.  Its summary line ends with the
children's total wall time, start-up included: the end-to-end cost of the
CLI over the fixed grid.  Each child runs under an address space limit of
2 GiB and a CPU limit of 120 s, set in the child alone, so a checkout that
runs away on some call fails that call and not the machine.
``compare`` lists every argv whose record differs between two recordings
and exits 1 if any does, so a refactor that must not change output can be
checked against the parent checkout.  It names the fields that differ
between two records, and compares two ``digest`` files entry by entry; a
record file against a digest file is hashed first, as ``digest`` does.
When two record files differ, it then prints the margins of both sides,
per check the worst residual/tol of A and of B and their ratio B/A, and
names every call and check whose residual grew more than 4x, so a
digit-changing change shows how much accuracy it gained or lost:

    git archive --prefix=parent/ HEAD~1 | tar -x -C /tmp
    python3 tools/cli_grid.py record /tmp/parent /tmp/parent.json
    python3 tools/cli_grid.py record . /tmp/change.json
    python3 tools/cli_grid.py compare /tmp/parent.json /tmp/change.json

``digest`` runs the same children, timed alike, and writes, per argv, only
the SHA-256 of (exit code, stdout, stderr, written file).
``tests/data/cli_grid_digests.json`` is that file, and ``tests/test_cli.py``
runs the grid in process against it, so Tier-1 names every call whose
output moved.

``sweep`` runs ``verify-all --theta TH --nm=N,M --kl=K,L --seed S`` in
process at theta = 0.2 and sqrt2-1, for every label of grids A (n -2..4,
m 1..4, k 1..7, l 1..4, M <= 30: 472 points) and B (n -1..3, m 1..3,
k 8..16, l 1..2: 221 points) that ``product_params`` accepts and whose
denominators A = n + m*theta and B = k - l*theta are both positive, or of
the ``--label`` values alone.  ``--seed``
takes a comma list or an inclusive range such as ``0-199``.  It prints the
count of points by exit code, exit 1 by failing check and exit 2 by
failing stage, then the margins: per check, the worst residual/tol over
all points and the point where it occurs, so a loss of accuracy shows
before it changes an exit code.  ``--json`` writes the points' records as
``record`` does.
It runs the ``nctorus`` of this checkout's ``src`` and refuses any other.

The grid of 142 calls covers every subcommand over the five benchmark
label pairs at two angles, ``verify-all`` at edge labels and at nonzero
connection offsets, ``structure-constants`` at the M = 29 edge label and
at a label whose every row sums to truncation radius 3 (in JSON and in
CSV, where its r = 2 leaves empty ``q0`` cells), a left label
degenerate at theta = 0.5 through
``theta-basis --side left`` (``DegenerateDenominator``) and ``algebra-check``
(whose mirrored check holds exactly), a right label degenerate at
theta = 0.5 through ``theta-basis``, two ``algebra-check``
seeds that shift Gaussians far from their centres, an exact-zero component
pair, two ``--qmax`` caps above the certified window of the direct q-sum,
two below it (``NonConvergent``) and one below 1 (a usage error), three
products at large Im(s) (one at nonzero offsets), three overflows (``SeriesOverflow``: one in the
closed form, two in the direct q-sum), four connection offsets whose peak
representative is not reduced (``SeriesOverflow``), two non-finite
holomorphic widths (``NoHolomorphicVectors``), four theta moduli that
overflow (``SeriesOverflow``) and one huge tau whose phases fail the
oracle check (in JSON and in CSV, which names the failing checks on
stderr), three basis vectors that overflow at a probe point
(``SeriesOverflow``), two labels with n < 0 or l = 1 whose Bezout pairs
have a negative entry, an
``algebra-check`` label whose ``module_axiom`` fails from far-centre phase
rounding, four ``--theta`` expressions (one a division by zero, a usage error),
a table too large for the size gate of ``structure_constants``
(``--kl 999999,1``, a typed ``TableTooLarge``), a left label without
components (``--kl 1,0``), three ``tensor`` calls
whose ``--alpha``, ``--beta`` or ``--delta`` is out of range
(``IndexOutOfRange``), products off the cone A > 0, B > 0 (``tensor`` at
B < 0, at A = 0 and, with ``structure-constants``, at B = 0, whose
holomorphic data raise ``SignAssumptionViolated``; ``verify-all`` at B < 0,
whose q-sum stages run), a label that is not coprime (``NotCoprime``), a ``tensor`` call at
``--tol 0`` (exit 1), one at ``--tau 0,1`` (``NoHolomorphicVectors``),
every ``--help`` text and
one JSON and one CSV ``--output`` file.  Pure stdlib apart from nctorus.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import re
import resource
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

REPO_SRC = Path(__file__).resolve().parent.parent / "src"

PAIRS = ("1,2 1,3", "3,2 2,3", "1,4 2,3", "1,3 2,5", "2,3 3,5")
THETAS = ("0.2", "sqrt2-1")
PER_POINT = (
    ["verify-all"],
    ["structure-constants"],
    ["structure-constants", "--format", "csv"],
    ["tensor", "--alpha", "0", "--beta", "0", "--z", "0.3", "--delta", "1"],
    ["algebra-check", "--seed", "7"],
    ["theta-basis"],
    ["theta-basis", "--side", "left"],
)
OFFSETS = ["--tau", "0.3,-1.2", "--c1", "0.1,0.2", "--c2=-0.3,0.1"]
EDGES = (
    ["--nm", "1,2", "--kl", "14,1"],
    ["--theta", "0.5", "--kl", "1,2"],
    ["--tau", "0,1"],
    ["--nm=-1,2", "--theta", "0.5"],
    OFFSETS,
)
# Labels with r = gcd(m, l) = 2, whose incompatible component pairs are exact zeros.
R2 = ["--nm", "1,2", "--kl", "1,4"]
# Im(s) ~ 160: once overflowed in exp(2*pi*i*t*u), now ordinary values.
LARGE_S = ["--theta", "sqrt2-1", "--nm", "2,5", "--kl", "3,7"]
# Calls that exercise the --theta expression grammar end to end.
THETA_EXPRS = (
    ["theta-basis", "--theta", "(1+sqrt5)/4"],
    ["algebra-check", "--theta", "3*0.1"],
    ["theta-basis", "--theta=-0.3+1/2"],
    ["algebra-check", "--theta", "1/0"],
)
COMMANDS = ("algebra-check", "theta-basis", "tensor", "structure-constants", "verify-all")
# A call that runs away on a checkout without the size gate, so it runs only
# in a capped child, never in process.
CAPPED_ONLY = ["structure-constants", "--kl", "999999,1"]
# Calls run with "--output NAME" in a scratch directory, keyed by NAME.
OUTPUT_CALLS = {
    "out.json": ["structure-constants"],
    "out.csv": ["structure-constants", "--format", "csv"],
}
# Label grids (n, m, k, l) of the sweep; grid A keeps M = n*l + m*k <= 30.
GRIDS = {
    "A": [(n, m, k, l) for n, m, k, l in itertools.product(
        range(-2, 5), range(1, 5), range(1, 8), range(1, 5)) if n * l + m * k <= 30],
    "B": list(itertools.product(range(-1, 4), range(1, 4), range(8, 17), range(1, 3))),
}
_STAGE_RE = re.compile(r"error: ([\w.]+):")


def grid() -> list[list[str]]:
    calls = []
    for pair in PAIRS:
        nm, kl = pair.split()
        for theta in THETAS:
            for cmd in PER_POINT:
                calls.append([*cmd, "--theta", theta, "--nm", nm, "--kl", kl])
    calls += [["verify-all", *edge] for edge in EDGES]
    calls += [[cmd, *OFFSETS] for cmd in ("theta-basis", "tensor", "structure-constants")]
    calls += [
        ["tensor", *R2, "--alpha", "0", "--beta", "1", "--delta", "0", "--z", "0.3"],
        ["verify-all", *R2],
        # Caps above the certified window of the direct q-sum change nothing;
        # caps below it raise NonConvergent.
        ["verify-all", *R2, "--qmax", "24"],
        ["tensor", *R2, "--qmax", "16"],
        ["verify-all", *R2, "--qmax", "8"],
        ["tensor", *R2, "--qmax", "4"],
        ["structure-constants", *LARGE_S],
        ["tensor", "--alpha", "0", "--beta", "0", "--delta", "1", *LARGE_S],
        ["structure-constants", *OFFSETS, *LARGE_S],
        # One truncation radius per row: 1 on every row of the M = 29 edge
        # label, 3 on every row of (3, 2) x (1, 2), where Im(s) is small.
        ["structure-constants", "--nm", "1,2", "--kl", "14,1"],
        ["structure-constants", "--nm", "3,2", "--kl", "1,2"],
        # The same table as CSV, whose r = 2 leaves 16 rows with an empty q0 cell.
        ["structure-constants", "--format", "csv", "--nm", "3,2", "--kl", "1,2"],
        # Products whose true value exceeds double range: typed overflows.
        ["structure-constants", "--c1=0,400"],
        ["tensor", "--c1=0,280", "--z=-7", "--delta", "1"],
        ["tensor", "--c1=0,400"],
        # Offsets so large that the peak representative keeps no digit: K is nan.
        ["structure-constants", "--c1=0,1e308"],
        ["structure-constants", "--c2=-1e308,0"],
        ["structure-constants", "--c2=1e307,0"],
        ["structure-constants", "--c1=0,1e200"],
        # A left label degenerate at theta = 0.5: (1, 2) with 1 - 2*theta = 0.
        ["theta-basis", "--side", "left", "--theta", "0.5", "--nm", "1,2"],
        ["algebra-check", "--theta", "0.5", "--kl", "1,2"],
        # Random elements whose U1 powers shift a Gaussian far from its centre.
        ["algebra-check", "--theta", "sqrt2-1", "--nm", "3,2", "--kl", "2,3", "--seed", "318027"],
        ["algebra-check", "--nm", "4,1", "--seed", "1"],
        # A cap below 1 is a usage error.
        ["tensor", "--qmax", "-5"],
        # A width i*tau*m/A that is not finite: a typed NoHolomorphicVectors.
        ["structure-constants", "--tau=-1e308,-1"],
        ["verify-all", "--tau=-1e308,-1"],
        # Finite widths whose theta modulus s is not: a typed SeriesOverflow.
        ["structure-constants", "--tau=-1e307,-1"],
        ["tensor", "--tau=-1e307,-1"],
        ["structure-constants", "--tau=-1,-1e307"],
        ["verify-all", "--tau=-1,-1e307"],
        # Factor phases with no digit left: the oracle check fails, and the CSV
        # call names each failing check on stderr.
        ["structure-constants", "--tau=-1e306,-1"],
        ["structure-constants", "--format", "csv", "--tau=-1e306,-1"],
        # A basis vector whose value at a probe point overflows: a typed SeriesOverflow.
        ["theta-basis", "--c1=1e308,1e308"],
        # A basis vector whose exponent at a probe point is not finite: the same.
        ["theta-basis", "--side", "left", "--tau=-1e307,-1"],
        ["verify-all", "--tau=-1e307,-1"],
        # A label with n < 0, (a, b) = (1, -1), and one with l = 1, (c, d) = (0, -1).
        ["structure-constants", "--theta", "0.7", "--nm=-1,2", "--kl", "2,1"],
        ["algebra-check", "--theta", "0.7", "--nm=-1,2"],
        # Centres near x0 ~ 4e6, where the phase exp(2*pi*i*n*x0) of modulate keeps
        # about 3e-9 of rounding: module_axiom fails.  Pins modulate's digits.
        ["algebra-check", "--nm", "1000003,1", "--seed", "5"],
        # m*l*M = 3,999,998 entries, past the size gate: a typed TableTooLarge.
        CAPPED_ONLY,
        # A left label without components, named as verify-all names it.
        ["structure-constants", "--kl", "1,0"],
        # Component and delta indices outside range(m), range(l), range(M).
        ["tensor", "--alpha", "2"],
        ["tensor", "--beta=-1"],
        ["tensor", "--delta", "5"],
        # Products off the cone A > 0, B > 0: B < 0, then B = 0 at theta = 0.5.
        ["tensor", "--kl", "0,1"],
        ["tensor", "--theta", "0.5", "--kl", "1,2"],
        ["structure-constants", "--theta", "0.5", "--kl", "1,2"],
        # A = 0 at theta = 0.5: the cone error; the right label's theta' divides by it.
        ["tensor", "--nm=-1,2", "--kl", "1,1", "--theta", "0.5"],
        ["theta-basis", "--nm=-1,2", "--theta", "0.5"],
        # The q-sum stages run at B < 0; the table stage is skipped.
        ["verify-all", "--kl", "0,1"],
        # A right label that is not coprime.
        ["verify-all", "--nm", "2,4"],
        # A zero tolerance that the closed form misses by rounding: exit 1.
        ["tensor", "--tol", "0"],
        # Widths i*tau*m/A and i*tau*l/B with negative real part.
        ["tensor", "--tau", "0,1"],
    ]
    calls += THETA_EXPRS
    calls += [["--help"]] + [[cmd, "--help"] for cmd in COMMANDS]
    return calls


def _limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
    resource.setrlimit(resource.RLIMIT_CPU, (120, 120))


def run(src: Path, argv: list[str], cwd: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src / "src"), COLUMNS="80")
    done = subprocess.run(
        [sys.executable, "-m", "nctorus.cli", *argv],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=600,
        preexec_fn=_limit_child,
    )
    return {"exit": done.returncode, "stdout": done.stdout, "stderr": done.stderr}


def run_in_process(argv: list[str]) -> dict:
    """One call through ``nctorus.cli.main`` in this process, recorded as ``run`` does.

    The caller sets COLUMNS=80, as ``run`` does for its child, so that
    ``--help`` wraps alike.
    """
    from nctorus.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def collect(src: Path | None) -> dict:
    """Every grid call's record, keyed by its argv.

    Each call runs in a capped child on the checkout at src, or with
    src=None in this process, where the CAPPED_ONLY call is left out.
    """
    def call(argv: list[str], cwd: str) -> dict:
        return run_in_process(argv) if src is None else run(src, argv, cwd)

    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for argv in grid():
            if src is not None or argv != CAPPED_ONLY:
                results[" ".join(argv)] = call(argv, tmp)
        for name, cmd in OUTPUT_CALLS.items():
            path = Path(tmp, name)
            entry = call([*cmd, "--output", str(path)], tmp)
            entry["file"] = path.read_text() if path.exists() else None
            results[" ".join([*cmd, "--output", name])] = entry
    return results


def digests(results: dict) -> dict:
    """SHA-256 of each record's (exit code, stdout, stderr, written file)."""
    return {
        key: hashlib.sha256(json.dumps(
            [e["exit"], e["stdout"], e["stderr"], e.get("file")]).encode()).hexdigest()
        for key, e in results.items()
    }


def write(results: dict, out: Path) -> None:
    """The record format of ``record``, ``digest`` and ``sweep``: JSON keyed by argv."""
    out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")


def _is_digest(results: dict) -> bool:
    return any(isinstance(entry, str) for entry in results.values())


def compare(a: Path, b: Path) -> int:
    """Print every argv whose entry differs between two files; 1 if any does.

    Records name the fields that differ, digests differ whole.  A record
    file against a digest file is hashed as ``digests`` does first.
    """
    left = json.loads(a.read_text())
    right = json.loads(b.read_text())
    if _is_digest(left) != _is_digest(right):
        left, right = (side if _is_digest(side) else digests(side) for side in (left, right))
    differ = []
    for key in sorted(left.keys() | right.keys()):
        if key not in left or key not in right:
            differ.append(f"{key}: only in {a if key in left else b}")
        elif isinstance(left[key], str) and left[key] != right[key]:
            differ.append(f"{key}: digest differs")
        elif left[key] != right[key]:
            parts = [f for f in ("exit", "stdout", "stderr", "file")
                     if left[key].get(f) != right[key].get(f)]
            differ.append(f"{key}: {', '.join(parts)} differ")
    for line in differ:
        print(line)
    print(f"{len(differ)} of {len(left.keys() | right.keys())} calls differ")
    if differ and not _is_digest(left):
        print_margin_changes(left, right)
    return 1 if differ else 0


def parse_label(text: str) -> tuple[int, ...]:
    label = tuple(int(x) for x in text.split(","))
    if len(label) != 4:
        raise argparse.ArgumentTypeError(f"{text!r} is not four integers N,M,K,L")
    return label


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        span = range(int(lo), int(hi or lo) + 1)
        if not span:
            raise argparse.ArgumentTypeError(f"empty seed range {part!r}")
        seeds += span
    return seeds


def sweep_calls(nct, labels: list, seeds: list[int]):
    """verify-all argv of every label on the cone, angle by angle, seed by seed."""
    for th in THETAS:
        value = nct.cli.parse_theta(th)
        for n, m, k, l in labels:
            try:
                p = nct.product_params(n, m, k, l, value)
            except (nct.NCTorusError, ValueError):
                continue
            if not (p.A > 0 and p.B > 0):
                continue
            for seed in seeds:
                yield ["verify-all", "--theta", th, f"--nm={n},{m}", f"--kl={k},{l}",
                       "--seed", str(seed)]


def failing(entry: dict) -> list[str]:
    """The failing checks of an exit 1, else the failing stage of a nonzero exit."""
    if entry["exit"] == 1:
        checks = json.loads(entry["stdout"])["checks"]
        return [c["name"] for c in checks if c.get("pass") is False]
    text = entry["stderr"].strip()
    stage = _STAGE_RE.match(text)
    return [stage[1] if stage else text] if entry["exit"] else []


def _residuals(results: dict):
    """(argv, check name, residual, tol) of every residual in the records' JSON reports.

    Records without a JSON report (exit 2) and skipped checks are passed over.
    """
    for key, entry in results.items():
        try:
            checks = json.loads(entry["stdout"])["checks"]
        except (json.JSONDecodeError, KeyError, TypeError):
            continue
        for check in checks:
            if "residual" in check:
                yield key, check["name"], check["residual"], check["tol"]


def margins(results: dict) -> dict[str, tuple[float, str]]:
    """Per check, the worst residual/tol over the records' JSON reports and its argv.

    A nan residual is the worst, and tol 0 makes any residual inf.
    """
    worst: dict[str, tuple[float, str]] = {}
    for key, name, residual, tol in _residuals(results):
        ratio = residual / tol if tol else (math.inf if residual else 0.0)
        if name not in worst or _rank(ratio) > _rank(worst[name][0]):
            worst[name] = (ratio, key)
    return worst


def _rank(ratio: float) -> float:
    return math.inf if math.isnan(ratio) else ratio


def _growth(before: float, after: float) -> float:
    """after/before with nan ranked as inf: 1 where they are equal, inf from 0."""
    before, after = _rank(before), _rank(after)
    if before == after:
        return 1.0
    return after / before if before else math.inf


def print_margins(results: dict) -> None:
    print("margins, worst residual/tol per check:")
    for name, (ratio, key) in sorted(margins(results).items()):
        print(f"  {name}: {ratio:.1e} at {key}")


def print_margin_changes(before: dict, after: dict) -> None:
    """Per check, the worst residual/tol of A and of B and B/A; every residual grown over 4x."""
    worst_a, worst_b = margins(before), margins(after)
    print("margins, worst residual/tol per check, A and B:")
    for name in sorted(worst_a.keys() | worst_b.keys()):
        if name in worst_a and name in worst_b:
            a, b = worst_a[name][0], worst_b[name][0]
            print(f"  {name}: A {a:.1e}, B {b:.1e}, B/A {_growth(a, b):.2g}")
        else:
            print(f"  {name}: only in {'A' if name in worst_a else 'B'}")
    residual_a = {(key, name): residual for key, name, residual, _ in _residuals(before)}
    grown = sorted((key, name, residual_a[key, name], residual)
                   for key, name, residual, _ in _residuals(after)
                   if (key, name) in residual_a and _growth(residual_a[key, name], residual) > 4)
    print(f"residuals grown more than 4x: {len(grown)}")
    for key, name, a, b in grown:
        print(f"  {key}: {name} {a:.1e} -> {b:.1e}")


def sweep(nct, labels: list | None, seeds: list[int], out: Path | None) -> int:
    sweeps = {"labels": labels} if labels else {
        f"grid {name}": grid for name, grid in GRIDS.items()}
    results = {}
    for name, group in sweeps.items():
        entries = {" ".join(argv): run_in_process(argv)
                   for argv in sweep_calls(nct, group, seeds)}
        print(f"{name}: {len(entries)} points")
        for code, count in sorted(Counter(e["exit"] for e in entries.values()).items()):
            print(f"  exit {code}: {count}")
        by_failure = Counter(f"exit {e['exit']}: {failure}"
                             for e in entries.values() for failure in failing(e))
        for failure, count in sorted(by_failure.items()):
            print(f"    {failure}: {count}")
        results |= entries
    print_margins(results)
    if out:
        write(results, out)
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    for name, a, b in (("record", "SRC", "OUT"), ("digest", "SRC", "OUT"), ("compare", "A", "B")):
        sub = commands.add_parser(name)
        sub.add_argument("a", type=Path, metavar=a)
        sub.add_argument("b", type=Path, metavar=b)
    sweeper = commands.add_parser("sweep")
    sweeper.add_argument("--label", action="append", metavar="N,M,K,L", type=parse_label)
    sweeper.add_argument("--seed", default="0", type=parse_seeds, metavar="SEEDS")
    sweeper.add_argument("--json", metavar="OUT", type=Path)
    args = parser.parse_args(argv)
    if args.command == "sweep":
        sys.path.insert(0, str(REPO_SRC))
        import nctorus

        if Path(nctorus.__file__).resolve().parent != REPO_SRC / "nctorus":
            sweeper.error(f"nctorus imported from {nctorus.__file__}, not {REPO_SRC}")
        import nctorus.cli  # noqa: F401
        return sweep(nctorus, args.label, args.seed, args.json)
    if args.command == "compare":
        return compare(args.a, args.b)
    start = time.perf_counter()
    results = collect(args.a.resolve())
    wall = time.perf_counter() - start
    write(digests(results) if args.command == "digest" else results, args.b)
    print(f"recorded {len(results)} calls to {args.b} in {wall:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
