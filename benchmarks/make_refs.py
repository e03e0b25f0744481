"""Regenerate benchmarks/data/references.json.

Usage: python3 benchmarks/make_refs.py

Table references come from the direct q-series ``tensor_direct`` at z = 0,
never from the theta closed form they check: with phi_gamma(0) = 1 the
structure constant c^gamma_{alpha,beta} is the product's value at z = 0.
The expected check names of each verify and actions point are the names
the CLI reports there (at program seed 0 for verify, the seed the
workload uses).  The script also reports how the closed form compares with
each table reference, so known failures are listed when data is rebuilt.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import workloads as wl


def table_reference(nct, pair, theta: float) -> dict:
    n, m, k, l = pair
    p = nct.product_params(n, m, k, l, theta)
    cs = nct.ComplexStructure(-1j)
    basis_f = nct.holomorphic_basis(nct.module_tag(n, m, theta), cs)
    basis_g = nct.holomorphic_basis(nct.module_tag(k, l, -theta), cs)
    values = []
    for alpha in range(m):
        for beta in range(l):
            for gamma in range(p.M):
                v = nct.tensor_direct(basis_f[alpha], basis_g[beta], p, 0.0, gamma)
                values.append([v.real, v.imag])
    return {"shape": [m, l, p.M], "values": values}


def check_names(nct, command: str, pair, theta: str) -> list[str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        nct.cli.main(wl.cli_argv(command, pair, theta, 0))
    return [c["name"] for c in json.loads(buf.getvalue())["checks"]]


def main() -> int:
    nct = wl.import_program()
    refs = {"table": {}, "verify": {}, "actions": {}}
    for pair, th in wl.TABLE_POINTS:
        key = wl.point_key(pair, th)
        ref = table_reference(nct, pair, wl.THETAS[th])
        refs["table"][key] = ref
        job = wl.Job(key, labels=(*pair, wl.THETAS[th]))
        try:
            outcome = wl.check_job("table", job, wl.run_job(nct, job), refs)
            status = "ok" if outcome.ok else outcome.reason
        except Exception as exc:
            status = type(exc).__name__
        print(f"table {key}: {len(ref['values'])} entries, closed form {status}")
    for pair, th in wl.VERIFY_POINTS:
        refs["verify"][wl.point_key(pair, th)] = check_names(nct, "verify-all", pair, th)
    for pair in wl.POINT_PAIRS:
        for th in wl.THETAS:
            refs["actions"][wl.point_key(pair, th)] = check_names(nct, "algebra-check", pair, th)
    wl.REFERENCES.parent.mkdir(exist_ok=True)
    with open(wl.REFERENCES, "w") as handle:
        json.dump(refs, handle, separators=(",", ":"), sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
