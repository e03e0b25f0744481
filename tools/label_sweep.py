"""Run ``nctorus verify-all`` over label grids and count the outcomes.

Usage:
    python3 tools/label_sweep.py [--label N,M,K,L] [--seed SEEDS] [--src DIR]
                                 [--json OUT]

Each point runs ``cli.main(["verify-all", "--theta", TH, "--nm=N,M",
"--kl=K,L", "--seed", S])`` in process through ``cli_grid.run_in_process``,
at theta = 0.2 and sqrt2-1, for every label of the grid that
``product_params`` accepts with its default strict sign checks.  The ``=``
form keeps a negative n from reading as an option.

    A: n -2..4, m 1..4, k 1..7, l 1..4, M <= 30   (472 points)
    B: n -1..3, m 1..3, k 8..16, l 1..2           (221 points)

The summary counts points by exit code, exit 1 by failing check and exit 2
by failing stage (the ``error: STAGE:`` prefix of the message, else the
message).  ``--label`` (repeatable) sweeps just those labels instead of
both grids, at both angles.  ``--seed`` takes a comma list or an inclusive
range, e.g. ``0-199``, so a small subset can be run over many program
seeds:

    python3 tools/label_sweep.py --label 2,3,3,5 --seed 0-199

``--src`` imports ``nctorus`` from DIR/src (default: this checkout), so two
checkouts can be swept alike.  ``--json OUT`` writes the summary and every
point's outcome.  Pure stdlib apart from the package under test.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import cli_grid  # noqa: E402  (pure stdlib at import time)

THETAS = ("0.2", "sqrt2-1")
GRIDS = {
    "A": (range(-2, 5), range(1, 5), range(1, 8), range(1, 5), 30),
    "B": (range(-1, 4), range(1, 4), range(8, 17), range(1, 3), None),
}
_STAGE_RE = re.compile(r"error: ([\w.]+):")


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def grid_labels(grid: str):
    ns, ms, ks, ls, m_max = GRIDS[grid]
    for n in ns:
        for m in ms:
            for k in ks:
                for l in ls:
                    if m_max is None or n * l + m * k <= m_max:
                        yield n, m, k, l


def points(nct, labels):
    """(n, m, k, l, theta text) of every strict-valid label, angle by angle."""
    labels = list(labels)
    for th in THETAS:
        value = nct.cli.parse_theta(th)
        for n, m, k, l in labels:
            try:
                nct.product_params(n, m, k, l, value)
            except (nct.NCTorusError, ValueError):
                continue
            yield n, m, k, l, th


def run_point(n: int, m: int, k: int, l: int, th: str, seed: int) -> dict:
    argv = ["verify-all", "--theta", th, f"--nm={n},{m}", f"--kl={k},{l}", "--seed", str(seed)]
    run = cli_grid.run_in_process(argv)
    code = run["exit"]
    result = {"labels": [n, m, k, l], "theta": th, "seed": seed, "exit": code}
    if code == 1:
        checks = json.loads(run["stdout"])["checks"]
        result["failing"] = [c["name"] for c in checks if c.get("pass") is False]
    elif code != 0:
        text = run["stderr"].strip()
        stage = _STAGE_RE.match(text)
        result["failing"] = [stage[1] if stage else text]
    return result


def summarize(results: list[dict]) -> dict:
    by_exit = Counter(r["exit"] for r in results)
    by_failure = Counter(f"exit {r['exit']}: {name}"
                         for r in results for name in r.get("failing", ()))
    return {
        "points": len(results),
        "by_exit": {str(code): by_exit[code] for code in sorted(by_exit)},
        "by_failure": dict(sorted(by_failure.items())),
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", action="append", metavar="N,M,K,L",
                        type=lambda s: tuple(int(x) for x in s.split(",")))
    parser.add_argument("--seed", default="0", type=parse_seeds, metavar="SEEDS")
    parser.add_argument("--src", default=Path(__file__).resolve().parent.parent, type=Path)
    parser.add_argument("--json", metavar="OUT", type=Path)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve() / "src"))
    import nctorus
    import nctorus.cli  # noqa: F401

    sweeps = {"labels": args.label} if args.label else {
        f"grid {grid}": grid_labels(grid) for grid in GRIDS}
    report = {}
    for name, labels in sweeps.items():
        results = [run_point(*point, seed)
                   for point in points(nctorus, labels) for seed in args.seed]
        summary = summarize(results)
        print(f"{name}: {summary['points']} points")
        for code, count in summary["by_exit"].items():
            print(f"  exit {code}: {count}")
        for failure, count in summary["by_failure"].items():
            print(f"    {failure}: {count}")
        report[name] = {**summary, "results": results}
    if args.json:
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
