"""Command line entry points: exit codes, output layout, determinism."""

import importlib.util
import json
import math
import random
import sys
import tracemalloc
import types
from pathlib import Path

import pytest

import nctorus
import nctorus.cli as cli
import nctorus.gaussians as gs
import nctorus.modules as modules
import nctorus.tensor as tensor
from nctorus.algebra import element
from nctorus.cli import main, parse_complex, parse_int_pair, parse_theta
from nctorus.connections import ComplexStructure
from nctorus.errors import TableTooLarge

REPO = Path(__file__).resolve().parent.parent
DIGESTS = REPO / "tests" / "data" / "cli_grid_digests.json"
_spec = importlib.util.spec_from_file_location("cli_grid", REPO / "tools" / "cli_grid.py")
cli_grid = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_grid)


# ----------------------------------------------------------------- parsing

def test_parse_theta_expressions():
    assert parse_theta("0.2") == 0.2
    assert abs(parse_theta("sqrt2-1") - (math.sqrt(2) - 1)) < 1e-15
    assert parse_theta("1/2") == 0.5
    assert abs(parse_theta("(1+sqrt5)/2") - (1 + math.sqrt(5)) / 2) < 1e-15
    assert parse_theta(" 3 * 0.1 ") == pytest.approx(0.3)
    assert parse_theta("-0.3+1") == pytest.approx(0.7)


def test_parse_theta_rejects_garbage():
    for bad in ("bogus", "1+", "sqrt", "(1", "2**3", "1//2", ""):
        with pytest.raises(ValueError):
            parse_theta(bad)


def test_parse_theta_is_float_arithmetic():
    cases = {
        "0.2": 0.2,
        "sqrt2-1": math.sqrt(2) - 1.0,
        "(1+sqrt5)/2": (1.0 + math.sqrt(5)) / 2.0,
        "-0.3+1": -0.3 + 1.0,
        " 3 * 0.1 ": 3.0 * 0.1,
        "2--3": 2.0 - -3.0,
    }
    for text, want in cases.items():
        assert parse_theta(text) == want, text


OUTSIDE_GRAMMAR = (
    "+0.2", "2 sqrt2", "sqrt 2", "1e3", "1_0", "0x1", "1j", "(", "()", "2(3)",
    "2**3", "1//2", "1/0", "-" * 5000 + "1", "9" * 400, "9" * 400 + "-" + "9" * 400,
)
# Accepted by the earlier hand-written tokenizer: a leading-zero integer, a
# newline between tokens, non-ASCII digits, and a sum nested past the
# recursion limit.
ONCE_ACCEPTED = ("007", "1\n+2", "٣", "sqrt٣", "1" + "+1" * 3000)


def test_parse_theta_rejects_outside_the_grammar(capsys):
    for bad in OUTSIDE_GRAMMAR + ONCE_ACCEPTED:
        with pytest.raises(ValueError):
            parse_theta(bad)
        assert main(["algebra-check", f"--theta={bad}"]) == 2, bad[:20]
        assert "invalid parse_theta value" in capsys.readouterr().err


def test_parse_complex():
    assert parse_complex("1.5,-2") == 1.5 - 2j
    assert parse_complex("0.25") == 0.25 + 0j
    with pytest.raises(ValueError):
        parse_complex("1,2,3")
    for text in ("nan", "inf,0", "0,-inf", "1,nan"):
        with pytest.raises(ValueError):
            parse_complex(text)


def test_parse_int_pair():
    assert parse_int_pair("3,-2") == (3, -2)
    with pytest.raises(ValueError):
        parse_int_pair("3")
    with pytest.raises(ValueError):
        parse_int_pair("a,b")


# -------------------------------------------------------------- exit codes

def _by_name(doc):
    return {c["name"]: c for c in doc["checks"]}


def test_algebra_check_passes(capsys):
    assert main(["algebra-check", "--theta", "0.3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"]
    assert _by_name(doc)["associativity"]["pass"]
    assert doc["schema"] == 1


def test_repeated_main_calls_share_no_state(capsys):
    # main builds its parser once per process; a usage error in between and
    # an earlier --seed leave the next call at its defaults
    assert main(["algebra-check", "--seed", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["seed"] == 3
    assert main(["tensor", "--qmax", "0"]) == 2
    assert "--qmax" in capsys.readouterr().err
    assert main(["algebra-check"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["seed"] == 0


def test_algebra_check_builds_each_operand_once(capsys, monkeypatch):
    # each sample's f*g, f* and delta_a f, and each generator's action on the
    # module's vector, are built once and read by every check that needs them;
    # each generator action is one canonical vector; act_element builds U1 once
    # per power, U2 only at a nonzero power, and one canonical sum
    calls = {"mul": 0, "vector": 0}
    powers = {"act_U1": [], "act_U2": []}
    mul, vector = cli.mul, gs.vector

    def counting_mul(f, g, theta):
        calls["mul"] += 1
        return mul(f, g, theta)

    def counting_vector(m, terms):
        calls["vector"] += 1
        return vector(m, terms)

    def recording(name):
        act = getattr(modules, name)

        def wrapped(v, tag, power=1):
            powers[name].append(power)
            return act(v, tag, power)
        return wrapped

    monkeypatch.setattr(cli, "mul", counting_mul)
    monkeypatch.setattr(gs, "vector", counting_vector)
    for name in powers:
        monkeypatch.setattr(modules, name, recording(name))
    assert main(["algebra-check"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"]
    assert calls["mul"] == 113
    assert calls["vector"] <= 132
    assert powers["act_U1"] and powers["act_U2"]
    assert 0 not in powers["act_U1"] + powers["act_U2"]


def test_random_element_draws_as_randint():
    # randrange(5) - 2 and randint(-2, 2) both take one _randbelow(5): the
    # same elements, in the same order, and the same generator state
    def randint_element(rng):
        out = {}
        for _ in range(3):
            idx = (rng.randint(-2, 2), rng.randint(-2, 2))
            out[idx] = out.get(idx, 0j) + complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        return element(out)

    for seed in range(300):
        a, b = random.Random(seed), random.Random(seed)
        for _ in range(5):
            got, want = cli._random_element(a), randint_element(b)
            assert list(got.coeffs.items()) == list(want.coeffs.items())
        assert a.getstate() == b.getstate()


def test_table_size_gate(monkeypatch):
    # a table of m*l*M entries up to TABLE_LIMIT is built; one more is refused
    # before any work.  (1, 2) x (14, 1) has m*l*M = 2*1*29 = 58.
    p = tensor.product_params(1, 2, 14, 1, 0.2)
    cs = ComplexStructure(-1j)
    monkeypatch.setattr(tensor, "TABLE_LIMIT", 58)
    assert tensor.structure_constants(p, cs).shape == (2, 1, 29)
    monkeypatch.setattr(tensor, "TABLE_LIMIT", 57)
    with pytest.raises(TableTooLarge, match=r"m\*l\*M = 58 entries exceed the limit 57 "
                                            r"for \(1, 2\) x \(14, 1\)"):
        tensor.structure_constants(p, cs)


def test_oversized_table_is_typed_at_once(tmp_path):
    # --kl 999999,1 once ran out of memory after about 7 GB; under the gate it
    # exits 2 at once.  It runs in cli_grid's capped child, never in process.
    argv = cli_grid.CAPPED_ONLY
    entry = cli_grid.run(REPO, argv, str(tmp_path))
    assert entry["exit"] == 2
    assert entry["stdout"] == ""
    assert entry["stderr"] == (
        "error: structure_constants: m*l*M = 3999998 entries exceed the limit "
        f"{tensor.TABLE_LIMIT} for (1, 2) x (999999, 1)\n"
    )
    want = json.loads(DIGESTS.read_text())[" ".join(argv)]
    assert cli_grid.digests({"call": entry})["call"] == want


def test_sweep_counts_points_by_exit(monkeypatch, capsys, tmp_path):
    # the sweep puts the checkout's src first on sys.path
    monkeypatch.setattr(sys, "path", list(sys.path))
    out = tmp_path / "sweep.json"
    # (1, 2) x (1, 3) has B < 0 at sqrt2-1, off the cone, so it is swept at 0.2 only
    assert cli_grid.main(["sweep", "--label", "1,2,1,3", "--label", "1,2,1,2",
                          "--json", str(out)]) == 0
    records = json.loads(out.read_text())
    assert sorted(records) == sorted(
        f"verify-all --theta {th} --nm=1,2 --kl={kl} --seed 0"
        for th, kl in (("0.2", "1,3"), ("0.2", "1,2"), ("sqrt2-1", "1,2")))
    assert {r["exit"] for r in records.values()} == {0}
    out = capsys.readouterr().out
    assert out.startswith("labels: 3 points\n  exit 0: 3\nmargins, worst residual/tol per check:\n")
    # every check of the three reports has its margin line
    names = {c["name"] for r in records.values() for c in json.loads(r["stdout"])["checks"]
             if "residual" in c}
    assert len(out.splitlines()) == 3 + len(names)


def test_sweep_margins_name_the_worst_point_per_check(capsys):
    # two hand-built records: the worst residual/tol of each check and its
    # argv; a skipped check, an exit 2 and a nan residual, which is the worst
    def report(*checks):
        return {"exit": 0, "stdout": json.dumps({"checks": list(checks)}), "stderr": ""}

    records = {
        "verify-all --seed 0": report(
            {"name": "a", "pass": True, "residual": 2e-12, "tol": 1e-9},
            {"name": "b", "pass": True, "residual": 1e-12, "tol": 1e-10},
            {"name": "c", "pass": False, "residual": float("nan"), "tol": 1e-9},
            {"name": "d", "skipped": True, "reason": "off the cone"}),
        "verify-all --seed 1": report(
            {"name": "a", "pass": True, "residual": 5e-12, "tol": 1e-9},
            {"name": "b", "pass": True, "residual": 1e-13, "tol": 1e-10},
            {"name": "c", "pass": True, "residual": 1e-9, "tol": 1e-9}),
        "verify-all --seed 2": {"exit": 2, "stdout": "", "stderr": "error: x: y\n"},
    }
    margins = cli_grid.margins(records)
    assert margins["a"] == (pytest.approx(5e-3), "verify-all --seed 1")
    assert margins["b"] == (pytest.approx(1e-2), "verify-all --seed 0")
    assert math.isnan(margins["c"][0]) and margins["c"][1] == "verify-all --seed 0"
    assert sorted(margins) == ["a", "b", "c"]
    cli_grid.print_margins(records)
    assert capsys.readouterr().out == (
        "margins, worst residual/tol per check:\n"
        "  a: 5.0e-03 at verify-all --seed 1\n"
        "  b: 1.0e-02 at verify-all --seed 0\n"
        "  c: nan at verify-all --seed 0\n")


def test_compare_of_records_prints_both_margins(capsys, tmp_path):
    # two hand-built records that differ: per check the worst residual/tol of
    # each side and B/A, then every residual that grew more than 4x, from 0
    # and to nan included; an equal compare prints only its count line
    def report(*residuals):
        return {"exit": 0, "stderr": "", "stdout": json.dumps({"checks": [
            {"name": name, "residual": residual, "tol": 1e-9} for name, residual in residuals]})}

    parent = {"verify-all --seed 0": report(("a", 1e-12), ("b", 2e-12), ("c", 0.0)),
              "verify-all --seed 1": report(("a", 4e-12), ("b", 1e-13), ("d", 1e-12)),
              "verify-all --seed 2": {"exit": 2, "stdout": "", "stderr": "error: x: y\n"}}
    change = {"verify-all --seed 0": report(("a", 1e-12), ("b", 8.1e-12), ("c", 1e-15)),
              "verify-all --seed 1": report(("a", 2e-12), ("b", float("nan")), ("e", 1e-12)),
              "verify-all --seed 2": report(("a", 1e-10))}
    paths = [tmp_path / "parent.json", tmp_path / "change.json"]
    for path, results in zip(paths, (parent, change)):
        cli_grid.write(results, path)
    assert cli_grid.main(["compare", *map(str, paths)]) == 1
    assert capsys.readouterr().out == (
        "verify-all --seed 0: stdout differ\n"
        "verify-all --seed 1: stdout differ\n"
        "verify-all --seed 2: exit, stdout, stderr differ\n"
        "3 of 3 calls differ\n"
        "margins, worst residual/tol per check, A and B:\n"
        "  a: A 4.0e-03, B 1.0e-01, B/A 25\n"
        "  b: A 2.0e-03, B nan, B/A inf\n"
        "  c: A 0.0e+00, B 1.0e-06, B/A inf\n"
        "  d: only in A\n"
        "  e: only in B\n"
        "residuals grown more than 4x: 3\n"
        "  verify-all --seed 0: b 2.0e-12 -> 8.1e-12\n"
        "  verify-all --seed 0: c 0.0e+00 -> 1.0e-15\n"
        "  verify-all --seed 1: b 1.0e-13 -> nan\n")
    assert cli_grid.main(["compare", str(paths[0]), str(paths[0])]) == 0
    assert capsys.readouterr().out == "0 of 3 calls differ\n"


def test_sweep_grids_hold_their_strict_valid_points():
    points = {name: len(list(cli_grid.sweep_calls(nctorus, grid, [0])))
              for name, grid in cli_grid.GRIDS.items()}
    assert points == {"A": 472, "B": 221}


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--label", "1,2,3"], "'1,2,3' is not four integers N,M,K,L"),
    (["sweep", "--seed", "5-3"], "empty seed range '5-3'"),
    (["record", "."], "the following arguments are required: OUT"),
])
def test_cli_grid_rejects_bad_arguments(capsys, argv, message):
    with pytest.raises(SystemExit) as info:
        cli_grid.main(argv)
    assert info.value.code == 2
    assert message in capsys.readouterr().err


def test_cli_grid_compares_digest_files(capsys, tmp_path):
    # digests differ whole; a record file against a digest file is hashed first
    record = {argv: {"exit": 0, "stdout": f"{argv}\n", "stderr": ""}
              for argv in ("theta-basis", "tensor", "verify-all")}
    moved = dict(record, tensor={"exit": 2, "stdout": "", "stderr": "error: moved\n"})
    del moved["verify-all"]
    paths = {name: tmp_path / f"{name}.json" for name in ("record", "parent", "change")}
    for name, results in (("record", record), ("parent", cli_grid.digests(record)),
                          ("change", cli_grid.digests(moved))):
        cli_grid.write(results, paths[name])
    for old in ("parent", "record"):
        assert cli_grid.main(["compare", str(paths[old]), str(paths["change"])]) == 1
        assert capsys.readouterr().out == (
            f"tensor: digest differs\nverify-all: only in {paths[old]}\n2 of 3 calls differ\n")
    assert cli_grid.main(["compare", str(paths["record"]), str(paths["parent"])]) == 0
    assert capsys.readouterr().out == "0 of 3 calls differ\n"


def test_sweep_refuses_nctorus_of_another_checkout(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(sys, "path", list(sys.path))
    other = types.ModuleType("nctorus")
    other.__file__ = str(tmp_path / "nctorus" / "__init__.py")
    monkeypatch.setitem(sys.modules, "nctorus", other)
    with pytest.raises(SystemExit) as info:
        cli_grid.main(["sweep", "--label", "1,2,1,2"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert f"nctorus imported from {other.__file__}, not {REPO / 'src'}" in captured.err
    assert captured.out == ""


def test_sweeps_of_one_checkout_compare_equal(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(sys, "path", list(sys.path))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert cli_grid.main(["sweep", "--label", "1,2,1,2", "--json", str(out)]) == 0
    capsys.readouterr()
    assert cli_grid.main(["compare", str(a), str(b)]) == 0
    assert capsys.readouterr().out == "0 of 2 calls differ\n"


def test_cli_grid_matches_committed_digests(monkeypatch):
    """Every call of tools/cli_grid.py, run in process, against its committed digest.

    tests/data/cli_grid_digests.json holds the SHA-256 of each call's exit
    code, stdout, stderr and written file, as ``python3 tools/cli_grid.py
    digest . tests/data/cli_grid_digests.json`` records them from capped
    children.  The digests pin the libm of the machine that recorded them:
    elsewhere a last-bit difference in cmath or math can move printed digits.
    A change that moves output on purpose re-records the file and names each
    call it moved.  The CAPPED_ONLY call is checked by
    test_oversized_table_is_typed_at_once.
    """
    monkeypatch.setenv("COLUMNS", "80")
    want = json.loads(DIGESTS.read_text())
    del want[" ".join(cli_grid.CAPPED_ONLY)]
    got = cli_grid.digests(cli_grid.collect(None))
    differ = sorted(key for key in want.keys() | got.keys() if want.get(key) != got.get(key))
    assert not differ, f"{len(differ)} calls differ from {DIGESTS.name}: {differ}"


def test_non_coprime_label_is_usage_error(capsys):
    assert main(["theta-basis", "--nm", "2,4"]) == 2
    assert "error:" in capsys.readouterr().err


def test_wrong_tau_sign_is_usage_error(capsys):
    assert main(["theta-basis", "--tau", "0,1"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_bad_theta_expression(capsys):
    assert main(["algebra-check", "--theta", "nope"]) == 2
    assert "error:" in capsys.readouterr().err


def test_arithmetic_overflow_is_usage_error(capsys):
    # the products exceed double range here; the CLI reports it instead of a traceback
    assert main(["structure-constants", "--c1=0,400"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ProductClosedForm.row:")
    assert "(alpha, beta) = (0, 0), delta = 0, z = 0.0" in captured.err
    assert "(1, 2) x (1, 3)" in captured.err
    assert "theta = 0.2" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("offset", ["--c1=0,1e308", "--c2=-1e308,0", "--c2=1e307,0",
                                    "--c1=0,1e200"])
def test_unreduced_peak_is_typed(capsys, offset):
    # the rounding of -Im t/Im s keeps no digit, so the representative N is
    # huge and K = -(kappa*N/2 + lam)*N overflows; summing from there once
    # asked theta for ~1e290 terms (a MemoryError)
    assert main(["structure-constants", offset]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ProductClosedForm.row: peak t = ")
    assert "K = (inf+0j) is not reduced at (alpha, beta) = (0, 0), delta = 0, z = 0.0" in (
        captured.err)
    assert "(1, 2) x (1, 3) at theta = 0.2" in captured.err
    assert captured.out == ""


def test_tensor_closed_form_overflow_is_typed(capsys):
    # the true value exceeds double range; cmd_tensor runs the direct q-sum
    # first, which reports it before the closed form is reached: at c1 = 280i
    # each summand is finite but the total is not, at c1 = 400i a summand
    # overflows (the closed form's own overflow is covered in test_tensor)
    for argv, what in ((["--c1=0,280", "--z=-7", "--delta", "1"], "non-finite sum (inf+0j)"),
                       (["--c1=0,400"], "math range error")):
        assert main(["tensor", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: tensor.DirectSeries.evaluate: {what} at z = ")
        assert "(1, 2) x (1, 3)" in captured.err
        assert "theta = 0.2" in captured.err
        assert captured.out == ""


def test_large_modulus_is_not_an_overflow(capsys):
    # Im(s) ~ 160 once overflowed exp(2*pi*i*t*u); the values are ordinary
    labels = ["--theta", "sqrt2-1", "--nm", "2,5", "--kl", "3,7"]
    assert main(["structure-constants", *labels]) == 0
    assert main(["tensor", "--alpha", "0", "--beta", "0", "--delta", "1", *labels]) == 0
    assert capsys.readouterr().err == ""


def test_verify_all_does_not_skip_an_overflow(capsys, monkeypatch):
    # structure constants that overflow fail verify-all, they are not skipped
    # as an inapplicable stage; the slow q-sum stages are stubbed out here
    monkeypatch.setattr(cli, "_identity_checks", lambda cfg, checks: None)
    monkeypatch.setattr(cli, "_oracle_checks", lambda cfg, checks: None)
    assert main(["verify-all", "--c1=0,400"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ProductClosedForm.row:")
    assert captured.out == ""


_ORACLE_FAILURES = [
    # (closed sum fails at, closed reduction fails at, direct fails at, reported)
    (None, 3, 4, "ProductClosedForm.row: peak fails at (alpha, beta) = (0, 0), delta = 3, "),
    (1, 3, 4, "ProductClosedForm.row: sum fails at (alpha, beta) = (0, 0), delta = 1, "),
    (None, 3, 3, "ProductClosedForm.row: peak fails at (alpha, beta) = (0, 0), delta = 3, "),
    (1, None, 1, "ProductClosedForm.row: sum fails at (alpha, beta) = (0, 0), delta = 1, "),
    (None, 3, 2, "ProductClosedForm.row: peak fails at (alpha, beta) = (0, 0), delta = 3, "),
    # the 6th reduction is in the second row, z = -0.5: the first row's direct sum fails first
    (None, 5, 4, "tensor.DirectSeries.evaluate: direct fails at z = -1.0, delta = 4 of "),
]


@pytest.mark.parametrize("sum_at, peak_at, direct_at, reported", _ORACLE_FAILURES)
def test_oracle_reports_the_first_failing_point(capsys, monkeypatch, sum_at, peak_at,
                                                direct_at, reported):
    # a row reduces each entry to its peak and sums them before its direct
    # q-sums, so a failing closed form is reported before any failing direct
    # sum of its row.  The first row is z = -1.0 at (alpha, beta) = (0, 0),
    # where every delta of (1, 2) x (1, 3) is compatible, so the (delta + 1)-th
    # reduction or sum is the one at delta.  A reduction rounds -Im t/Im s
    # once; the direct q-sum rounds too, so it runs with the true round.
    monkeypatch.setattr(cli, "_identity_checks", lambda cfg, checks: None)
    calls = {"peak": 0, "sum": 0}
    theta_truncated = tensor.theta_truncated
    direct = tensor.DirectSeries.evaluate

    def failing_round(x):
        calls["peak"] += 1
        if calls["peak"] - 1 == peak_at:
            raise OverflowError("peak fails")
        return round(x)

    def failing_sum(*args):
        calls["sum"] += 1
        if calls["sum"] - 1 == sum_at:
            raise OverflowError("sum fails")
        return theta_truncated(*args)

    def fails(*args):
        raise OverflowError("direct fails")

    def failing_direct(self, z, delta):
        with monkeypatch.context() as patch:
            patch.setattr(tensor, "round", round)
            if (z, delta) == (-1.0, direct_at):
                patch.setattr(gs, "evaluate", fails)  # inside the q-sum's own error wrapper
            return direct(self, z, delta)

    monkeypatch.setattr(tensor, "round", failing_round, raising=False)
    monkeypatch.setattr(tensor, "theta_truncated", failing_sum)
    monkeypatch.setattr(tensor.DirectSeries, "evaluate", failing_direct)
    assert main(["verify-all"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {reported}")
    assert captured.err.endswith("of (1, 2) x (1, 3) at theta = 0.2\n")
    assert captured.out == ""


_RANGE = "gaussians.grid_abs_max: |v(x, mu)| exceeds double range at (x, mu) = (-5.0, 0)"
_PROBE_FAILURES = [
    (["theta-basis", "--c1=1e308,1e308"], _RANGE),
    # the holomorphic stage of verify-all fails on it, it is not skipped
    (["verify-all", "--c1=1e308,1e308"], _RANGE),
    # a width with |Im| ~ 1e307: the x coefficient of the dbar residual, about
    # 2*pi*sigma, is infinite, a NonFiniteParameter before any probe point
    (["theta-basis", "--side", "left", "--tau=-1e307,-1"],
     "Gaussian polynomial coefficients (0j, (-20.943951023931955+infj)) must be finite"),
    (["verify-all", "--tau=-1e307,-1"],
     "Gaussian polynomial coefficients (0j, (-47.12388980384691+infj)) must be finite"),
    # the same at Re(sigma) ~ 7.5e307 of the left mirror, whose closure once
    # read 0.0 and passed until the table's theta modulus overflowed
    (["verify-all", "--tau=-1,-1e307"],
     "Gaussian polynomial coefficients (0j, (-inf+47.12388980384691j)) must be finite"),
]


@pytest.mark.parametrize("argv, what", _PROBE_FAILURES,
                         ids=[f"argv{i}" for i in range(len(_PROBE_FAILURES))])
def test_overflowing_basis_value_is_typed(capsys, argv, what):
    # the basis vector is finite, its value at a probe point or its dbar residual is not
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {what}\n"
    assert "math range error" not in captured.err
    assert "math domain error" not in captured.err
    assert captured.out == ""


def test_non_finite_holomorphic_width_is_typed(capsys):
    # i*tau*m/A = nan - inf*i: a typed NoHolomorphicVectors, not the
    # assertion on Im(s) that a nan width once reached
    assert main(["structure-constants", "--tau=-1e308,-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: factor widths i*tau*m/A = (nan-infj)")
    assert "is not finite for tau = (-1e+308-1j)" in captured.err
    assert captured.out == ""
    assert main(["verify-all", "--tau=-1e308,-1"]) == 0
    captured = capsys.readouterr()
    skipped = {c["name"]: c["reason"] for c in json.loads(captured.out)["checks"]
               if c.get("skipped")}
    assert list(skipped) == ["holomorphic_closure", "structure_constants"]
    assert "is not finite" in skipped["structure_constants"]
    assert captured.err == ""


@pytest.mark.parametrize("argv,s", [
    # finite factor widths whose theta modulus overflows: once the assertion
    # on Im(s), and a nan in the peak representative's round
    (["structure-constants", "--tau=-1e307,-1"], "(inf+nanj)"),
    (["tensor", "--tau=-1e307,-1"], "(inf+nanj)"),
    (["structure-constants", "--tau=-1,-1e307"], "(nan+infj)"),
])
def test_overflowing_theta_modulus_is_typed(capsys, argv, s):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: tensor_gaussian_closed: theta modulus s = {s} is not finite for "
        "(1, 2) x (1, 3) at theta = 0.2\n"
    )
    assert captured.out == ""


def test_lost_phase_fails_the_oracle(capsys):
    # at tau = -1e306 - i the factor phases exp(-i*Im(sigma)*x**2/2) keep no
    # digit; the direct q-sum once raised a bare math domain error at the far
    # q of its fixed shells, now both sums finish and the oracle check fails
    assert main(["structure-constants", "--tau=-1e306,-1"]) == 1
    captured = capsys.readouterr()
    checks = {c["name"]: c["pass"] for c in json.loads(captured.out)["checks"]}
    assert checks == {"structure_constants_vs_direct": False, "basis_reconstruction": False}
    assert captured.err == ""


@pytest.mark.parametrize("argv", [
    ["theta-basis", "--tau", "nan,-1"],
    ["theta-basis", "--tau=-inf,-1"],
    ["verify-all", "--c1", "nan,0"],
    ["verify-all", "--c2", "0,inf"],
    ["algebra-check", "--tol", "nan"],
    ["verify-all", "--tol", "inf"],
    ["tensor", "--z", "nan"],
    # a --qmax cap below 1 would sum no q at all
    ["tensor", "--qmax", "-5"],
    ["tensor", "--qmax", "0"],
    # a negative tolerance would fail every check without checking anything
    ["tensor", "--tol=-1"],
])
def test_non_finite_numbers_are_usage_errors(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "invalid parse_" in captured.err and "usage:" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["algebra-check", "theta-basis", "tensor", "verify-all"])
def test_format_is_a_table_option(capsys, command):
    # only the table has a CSV form; elsewhere the flag is refused, not ignored
    assert main([command, "--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments: --format csv" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [["verify-all", "--nm"], ["verify-all", "--kl"],
                                  ["structure-constants", "--kl"], ["tensor", "--kl"]],
                         ids=["--nm", "--kl", "structure-constants", "tensor"])
def test_label_without_components_is_named(capsys, argv):
    # the left label reaches module_tag as the mirror's (n, m), and
    # product_params before any tag: each names the label, not m or l
    assert main([*argv, "1,0"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: module label (1, 0) needs at least one component\n"
    assert captured.out == ""


@pytest.mark.parametrize("theta,seed", [("sqrt2-1", "318027"), ("0.2", "40695")])
def test_algebra_check_far_shifted_gaussians(capsys, theta, seed):
    # random elements whose U1 powers shift a Gaussian far from its centre,
    # where a translate pruned to zero would break module_axiom
    argv = ["algebra-check", "--theta", theta, "--nm", "3,2", "--kl", "2,3", "--seed", seed]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["pass"]


def test_negative_complex_flag_needs_equals_form(capsys):
    # argparse reads "--c2 -0.3,0.1" as a new option; "--c2=-0.3,0.1" works
    tau, c1, c2 = 0.3 - 1.2j, 0.1 + 0.2j, -0.3 + 0.1j
    assert main(["theta-basis", "--tau", "0.3,-1.2", "--c1", "0.1,0.2",
                 "--c2=-0.3,0.1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    c = (tau * c1 + c2) / (2 * math.pi)
    assert doc["c"] == [c.real, c.imag]
    assert doc["config"]["c2"] == [-0.3, 0.1]
    assert main(["theta-basis", "--c2", "-0.3,0.1"]) == 2


def test_theta_basis_reports_width(capsys):
    assert main(["theta-basis", "--nm", "1,2", "--theta", "0.3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["sigma"] == [1.25, 0.0]
    assert doc["count"] == 2
    assert doc["dbar_residual"] < 1e-12
    assert len(doc["vectors"]) == 2


def test_theta_basis_left_side_is_the_label_at_minus_theta(capsys):
    # --side left reports "left" and builds the basis of the label at -theta
    assert main(["theta-basis", "--side", "left", "--nm", "1,3", "--theta", "0.2"]) == 0
    left = json.loads(capsys.readouterr().out)
    assert main(["theta-basis", "--nm", "1,3", "--theta=-0.2"]) == 0
    mirror = json.loads(capsys.readouterr().out)
    assert left["side"] == "left" and mirror["side"] == "right"
    for key in ("sigma", "c", "curvature", "dbar_residual", "vectors"):
        assert left[key] == mirror[key]
    assert main(["theta-basis", "--side", "left", "--nm", "1,2", "--theta", "0.5"]) == 2
    assert capsys.readouterr().err == "error: denominator vanishes for (1, 2) at theta = -0.5\n"


def test_theta_basis_json_layout(capsys):
    # one vector document per basis vector: its canonical terms, centred, so no x0
    assert main(["theta-basis", "--nm", "1,2", "--theta", "0.3", "--tau", "0.4,-1",
                 "--c2", "0.5,0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    for mu, vec in enumerate(doc["vectors"]):
        assert vec["m"] == 2
        [term] = vec["terms"]
        assert set(term) == {"poly", "sigma", "c", "mu"}
        assert term["sigma"] == [1.25, 0.5]
        assert term["c"] == doc["c"] == [0.5 / (2 * math.pi), 0.0]
        assert term["mu"] == mu
        assert term["poly"] == [[1.0, 0.0]]


def test_unwritable_output_is_usage_error(capsys, tmp_path):
    # a report that cannot be written is an error of the call, not a failed check
    target = tmp_path / "missing" / "x.json"
    assert main(["theta-basis", "--output", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: [Errno 2] No such file or directory: ")
    assert str(target) in captured.err
    assert captured.out == ""
    assert not target.parent.exists()


def test_tensor_command_cross_checks(capsys):
    assert main(["tensor", "--theta", "0.2", "--alpha", "1", "--beta", "2",
                 "--z", "0.3", "--delta", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"]
    assert doc["abs_diff"] <= 1e-9 * (1 + abs(complex(*doc["direct"])))
    assert doc["q0"] is not None


def test_tensor_rejects_out_of_range_indices(capsys):
    assert main(["tensor", "--alpha", "7"]) == 2
    capsys.readouterr()
    assert main(["tensor", "--delta", "-1"]) == 2
    capsys.readouterr()
    # a negative index is rejected, never read from the end of a basis
    assert main(["tensor", "--beta=-1"]) == 2
    assert capsys.readouterr().err == "error: beta = -1 outside range(0, 3)\n"


def test_tensor_unsolvable_pair_reports_zero(capsys):
    # labels (1,2) x (1,2): gcd(m, l) = 2 leaves half the pairs empty
    assert main(["tensor", "--kl", "1,2", "--alpha", "0", "--beta", "1",
                 "--delta", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["q0"] is None
    assert doc["pass"]
    assert abs(complex(*doc["closed_form"])) == 0.0


def test_structure_constants_json(capsys):
    assert main(["structure-constants", "--theta", "0.2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    table = doc["structure_constants"]
    assert table["shape"] == [2, 3, 5]
    assert len(table["entries"]) == 30
    assert doc["pass"]
    assert all(c["pass"] for c in doc["checks"])


def _table_params(capsys, *argv):
    assert main(["structure-constants", *argv]) == 0
    return json.loads(capsys.readouterr().out)["structure_constants"]["params"]


def test_product_params_json_pinned(capsys):
    # the CLI writes a table only on the cone, so every params document has a profile
    assert _table_params(capsys) == {
        "n": 1, "m": 2, "k": 1, "l": 3, "theta": 0.2,
        "a": 1, "b": 0, "c": 1, "d": 0, "M": 5, "r": 1,
        "N_prime": 1, "theta_prime": 0.14285714285714288,
        "profile": {
            "theta_prime": 0.14285714285714288,
            "theta_double_prime": 0.5000000000000001,
            "M": 5, "N_prime": 1, "N_double_prime": -1,
        },
        "tau": [-0.0, -1.0], "c1": [0.0, 0.0], "c2": [0.0, 0.0],
        "sigma_prime": [17.5, 0.0], "c_prime": [0.0, 0.0],
    }


def test_product_params_profile_json_shape(capsys):
    doc = _table_params(capsys, "--theta", "0.2")["profile"]
    assert set(doc) == {"theta_prime", "theta_double_prime", "M",
                        "N_prime", "N_double_prime"}
    assert doc["M"] == 5


def test_structure_constants_json_deterministic(capsys):
    outs = []
    for _ in range(2):
        assert main(["structure-constants", "--theta", "0.2"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    table = json.loads(outs[0])["structure_constants"]
    assert table["shape"] == [2, 3, 5]
    assert len(table["entries"]) == 2 * 3 * 5
    assert not [e for e in table["entries"] if e["q0"] is None]  # r = 1: all compatible


def test_verify_all_green(capsys):
    assert main(["verify-all", "--theta", "0.2", "--seed", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"]
    assert [c["name"] for c in doc["checks"] if not c.get("pass", True)] == []


def test_csv_names_each_failing_check(capsys):
    # the CSV table has no room for its checks, so each failing one is a
    # stderr line with its name, residual and tolerance, as the JSON report has them
    argv = ["structure-constants", "--tau=-1e306,-1"]
    assert main(argv) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert main([*argv, "--format", "csv"]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("alpha,beta,gamma,re,im,q0\n")
    lines = captured.err.splitlines()
    assert [line.split(": ")[1] for line in lines] == [
        "structure_constants_vs_direct", "basis_reconstruction"]
    assert lines == [f"failed: {c['name']}: residual {c['residual']} > tol {c['tol']}"
                     for c in checks]
    assert main(["structure-constants", "--format", "csv"]) == 0
    assert capsys.readouterr().err == ""


def test_verify_all_skips_degenerate_left_label(capsys):
    # k - l*theta = 0 skips the left theta vectors and the table, whose
    # widths divide by it, but must not fail the run
    assert main(["verify-all", "--theta", "1/2", "--nm", "1,1",
                 "--kl", "1,2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"]
    assert [c for c in doc["checks"] if c.get("skipped")]


# ------------------------------------------------------------ file output

def test_output_file_and_determinism(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["structure-constants", "--theta", "0.2", "--seed", "3"]
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_csv_layout(tmp_path):
    out = tmp_path / "table.csv"
    assert main(["structure-constants", "--format", "csv",
                 "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "alpha,beta,gamma,re,im,q0"
    assert len(lines) == 1 + 30


def test_failed_table_leaves_no_output_file(capsys, tmp_path):
    # the handle opens only once every number is computed
    out = tmp_path / "table.json"
    assert main(["structure-constants", "--c1=0,400", "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ProductClosedForm.row:")
    assert not out.exists()


@pytest.mark.parametrize("fmt,bound", [("json", 1100), ("csv", 450)])
def test_table_report_memory_per_entry(tmp_path, fmt, bound):
    # The report streams to its file, and CSV rows come straight from the
    # table.  Traced peak per entry at (1, 2) x (299, 1), 1,198 entries:
    # about 520-670 B (JSON) and 310 B (CSV); writing one whole-document string,
    # with CSV read back from the JSON entries, took 1.6-1.7 KB and 580 B.
    argv = ["structure-constants", "--nm", "1,2", "--kl", "299,1", "--format", fmt,
            "--output", str(tmp_path / "table")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (2 * 1 * 599) < bound


def test_verify_all_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify-all", "--theta", "sqrt2-1", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["pass"]
    assert doc["config"]["theta"] == math.sqrt(2) - 1
