"""Command-line front end.

Subcommands
    algebra-check        torus-algebra and module-action invariants at one theta
    theta-basis          holomorphic Gaussian basis data for one module label
    tensor               one product value, direct q-sum against closed form
    structure-constants  full coefficient table with series-oracle cross-check
    verify-all           every identity suite at the given parameters

Exit codes: 0 when every computed residual is within tolerance, 1 when a
residual exceeds its tolerance, 2 on invalid arguments, violated
preconditions, an arithmetic error such as a floating-point overflow, or
an --output file that cannot be written.

theta accepts a tiny expression grammar over integers, decimals and
sqrt<N>: for example "0.2", "sqrt2-1", "(1+sqrt5)/2".  Complex flags are
passed as "re,im" (a bare real is also accepted).  Reports, built here
alone, stream to their handle as JSON with schema version 1; the table
also as CSV (--format), which names each failing check on stderr.
Identical inputs produce byte-identical output.

The --tol flag (finite, >= 0, default 1e-9) governs the algebraic identity
residuals and tensor's closed form against direct summation, abs_diff <= tol*(1 + |direct|).
Other checks pin theirs: 1e-10 for the series oracles of verify-all and
structure-constants, 1e-8 for holomorphic closure and basis reconstruction.
"""

from __future__ import annotations

import argparse
import ast
import cmath
import contextlib
import csv
import functools
import itertools
import json
import math
import operator
import random
import re
import sys
from collections.abc import Callable, Sequence

from . import gaussians as gs
from .algebra import (
    TWO_PI_I,
    add,
    derivation,
    element,
    involution,
    monomial,
    mul,
    norm_max,
    scale,
    sub,
    trace,
)
from .connections import (
    ComplexStructure,
    curvature_constant,
    curvature_defect,
    dbar_residual,
    holomorphic_basis,
    leibniz_defect,
)
from .errors import NCTorusError, NonFiniteParameter, SeriesOverflow
from .modules import ModuleTag, act_element, act_U1, act_U2, act_Z1, act_Z2, module_tag
from .tensor import (
    DEFAULT_QMAX,
    DirectSeries,
    PROBE_ZS,
    ProductParams,
    StructureConstants,
    holomorphic_factors,
    product_basis,
    product_params,
    structure_constants,
    tensor_direct,
    tensor_gaussian_closed,
    verify_identities,
)

ORACLE_TOL = 1e-10
BASIS_TOL = 1e-8

_NUMBER_RE = re.compile(r"\d+\.\d*|\.\d+|\d+", re.ASCII)
_SQRT_RE = re.compile(r"sqrt(\d+)", re.ASCII)
_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv}


def parse_theta(text: str) -> float:
    """Evaluate the theta expression grammar: ints, decimals, sqrt<N>, + - * / ().

    Python's parser builds the tree; only the nodes above are evaluated, each
    literal as float(its source text), so the arithmetic is float by float.
    """
    source = text.strip()

    def value(node: ast.expr) -> float:
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            return _BINOPS[type(node.op)](value(node.left), value(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -value(node.operand)
        segment = ast.get_source_segment(source, node)
        if isinstance(node, ast.Constant) and _NUMBER_RE.fullmatch(segment):
            return float(segment)
        root = _SQRT_RE.fullmatch(segment)
        if isinstance(node, ast.Name) and root:
            return math.sqrt(int(root[1]))
        raise ValueError(f"unexpected {segment!r} in theta expression")

    try:
        result = value(ast.parse(source, mode="eval").body)
    except (SyntaxError, ArithmeticError, RecursionError) as exc:
        raise ValueError(f"invalid theta expression {text!r}: {exc}") from None
    if not math.isfinite(result):
        raise ValueError(f"theta expression {text!r} is not finite")
    return result


def parse_finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def parse_tolerance(text: str) -> float:
    value = parse_finite(text)
    if value < 0:
        raise ValueError(f"{text!r} is negative")
    return value


def parse_positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"{text!r} is not positive")
    return value


def parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) not in (1, 2):
        raise ValueError(f"expected 're,im', got {text!r}")
    return complex(*map(parse_finite, parts))


def parse_int_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'p,q', got {text!r}")
    return int(parts[0]), int(parts[1])


def _random_element(rng: random.Random):
    out = {}
    for _ in range(3):
        idx = (rng.randrange(5) - 2, rng.randrange(5) - 2)
        out[idx] = out.get(idx, 0j) + complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return element(out)


def _random_gaussian(rng: random.Random, m: int, with_poly: bool = False):
    sigma = complex(rng.uniform(0.6, 1.6), rng.uniform(-0.4, 0.4))
    c = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
    mu = rng.randrange(m)
    poly: tuple[complex, ...] = (1.0 + 0j,)
    if with_poly:
        poly = (
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        )
    return gs.gaussian(m, sigma, c, mu, poly)


class CheckList:
    """Accumulates named residuals and their tolerances."""

    def __init__(self) -> None:
        self.entries: list[dict] = []

    def add(self, name: str, residual: float, tol: float) -> None:
        self.entries.append(
            {"name": name, "residual": residual, "tol": tol, "pass": residual <= tol}
        )

    def skip(self, name: str, reason: str) -> None:
        self.entries.append({"name": name, "skipped": True, "reason": reason})

    @property
    def ok(self) -> bool:
        return all(e.get("pass", True) for e in self.entries)


def _algebra_checks(args: argparse.Namespace, checks: CheckList) -> None:
    rng = random.Random(args.seed)
    th = args.theta
    worst = dict.fromkeys(
        ("associativity", "involution", "trace_cyclic", "trace_positive",
         "leibniz", "derivations_commute", "star_derivation"),
        0.0,
    )

    def note(name: str, residual: float) -> None:
        worst[name] = max(worst[name], residual)

    for _ in range(10):
        f, g, h = (_random_element(rng) for _ in range(3))
        fg, f_star = mul(f, g, th), involution(f)
        df = {axis: derivation(f, axis) for axis in (1, 2)}
        note("associativity", norm_max(sub(mul(fg, h, th), mul(f, mul(g, h, th), th))))
        note("involution", norm_max(sub(involution(fg), mul(involution(g), f_star, th))))
        note("trace_cyclic", abs(trace(fg) - trace(mul(g, f, th))))
        gram = sum(abs(v) ** 2 for v in f.coeffs.values())
        note("trace_positive", abs(trace(mul(f, f_star, th)) - gram))
        for axis in (1, 2):
            lhs = derivation(fg, axis)
            rhs = add(mul(df[axis], g, th), mul(f, derivation(g, axis), th))
            note("leibniz", norm_max(sub(lhs, rhs)))
            note("star_derivation", norm_max(sub(derivation(f_star, axis), involution(df[axis]))))
        note("derivations_commute", norm_max(sub(derivation(df[1], 2), derivation(df[2], 1))))
    u1u2 = mul(monomial(1, 0), monomial(0, 1), th)
    u2u1 = mul(monomial(0, 1), monomial(1, 0), th)
    weyl = norm_max(sub(u1u2, scale(cmath.exp(TWO_PI_I * th), u2u1)))
    for name, residual in worst.items():
        checks.add(name, residual, args.tol)
    checks.add("weyl_relation", weyl, args.tol)

    n, m = args.nm
    tag = module_tag(n, m, th)
    tp = tag.theta_prime
    v = _random_gaussian(rng, m, with_poly=True)
    scale_v = 1.0 + gs.grid_abs_max(v)

    def rel(a: gs.PolyGaussVector, b: gs.PolyGaussVector) -> float:
        return gs.grid_abs_max(gs.sub(a, b)) / scale_v

    u1v, u2v, z1v, z2v = (act(v, tag) for act in (act_U1, act_U2, act_Z1, act_Z2))
    checks.add(
        "module_u1u2_phase",
        rel(act_U2(u1v, tag), gs.scale(cmath.exp(TWO_PI_I * th), act_U1(u2v, tag))),
        args.tol,
    )
    checks.add(
        "endo_z1z2_phase",
        rel(act_Z2(z1v, tag), gs.scale(cmath.exp(-TWO_PI_I * tp), act_Z1(z2v, tag))),
        args.tol,
    )
    commute = 0.0
    for zgen, zv in ((act_Z1, z1v), (act_Z2, z2v)):
        for ugen, uv in ((act_U1, u1v), (act_U2, u2v)):
            commute = max(commute, rel(zgen(uv, tag), ugen(zv, tag)))
    checks.add("endo_commutes_with_action", commute, args.tol)
    f, g = _random_element(rng), _random_element(rng)
    checks.add(
        "module_axiom",
        rel(act_element(g, act_element(f, v, tag), tag), act_element(mul(f, g, th), v, tag)),
        args.tol,
    )
    k, l = args.kl
    mirror = module_tag(k, l, -th)
    w = _random_gaussian(rng, l)
    # The left module (k, l) is the module at -theta: U1 (U2 w) = exp(2*pi*i*theta) U2 (U1 w).
    u1u2 = act_U1(act_U2(w, mirror), mirror)
    u2u1 = act_U2(act_U1(w, mirror), mirror)
    left_weyl = gs.grid_abs_max(gs.sub(u1u2, gs.scale(cmath.exp(TWO_PI_I * th), u2u1)))
    checks.add("left_equals_mirrored_right", left_weyl / (1.0 + gs.grid_abs_max(w)), args.tol)


def _connection_checks(args: argparse.Namespace, checks: CheckList) -> None:
    rng = random.Random(args.seed + 1)
    n, m = args.nm
    tag = module_tag(n, m, args.theta)
    v = _random_gaussian(rng, m, with_poly=True)
    scale_v = 1.0 + gs.grid_abs_max(v)
    kappa = curvature_constant(tag)
    checks.add("curvature_constant", curvature_defect(v, tag) / (scale_v * abs(kappa)), args.tol)
    f = _random_element(rng)
    for axis in (1, 2):
        checks.add(
            f"leibniz_axis{axis}",
            leibniz_defect(v, f, tag, axis) / scale_v,
            args.tol,
        )


def _closure(tag: ModuleTag, cs: ComplexStructure) -> tuple[list[gs.PolyGaussVector], float]:
    """The holomorphic basis of tag and its worst relative dbar residual."""
    basis = holomorphic_basis(tag, cs)
    return basis, max(dbar_residual(v, tag, cs) / gs.grid_abs_max(v) for v in basis)


def _holomorphic_checks(args: argparse.Namespace, checks: CheckList) -> None:
    cs = ComplexStructure(args.tau, args.c1, args.c2)
    pairs = (
        ("right", module_tag(args.nm[0], args.nm[1], args.theta)),
        ("left_mirror", module_tag(args.kl[0], args.kl[1], -args.theta)),
    )
    for label, tag in pairs:
        checks.add(f"holomorphic_closure_{label}", _closure(tag, cs)[1], BASIS_TOL)


def _identity_checks(args: argparse.Namespace, checks: CheckList) -> None:
    rng = random.Random(args.seed + 2)
    n, m = args.nm
    k, l = args.kl
    p = product_params(n, m, k, l, args.theta)
    f = _random_gaussian(rng, m)
    g = _random_gaussian(rng, l)
    for name, residual in verify_identities(f, g, p, args.qmax).items():
        checks.add(name, residual, args.tol)


def _oracle_checks(args: argparse.Namespace, checks: CheckList) -> None:
    rng = random.Random(args.seed + 3)
    n, m = args.nm
    k, l = args.kl
    p = product_params(n, m, k, l, args.theta)
    worst = 0.0
    for _ in range(2):
        sigma1 = complex(rng.uniform(0.6, 1.6), rng.uniform(-0.4, 0.4))
        sigma2 = complex(rng.uniform(0.6, 1.6), rng.uniform(-0.4, 0.4))
        c1 = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        c2 = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        form = tensor_gaussian_closed(sigma1, c1, sigma2, c2, p)
        for alpha in range(m):
            for beta in range(l):
                series = DirectSeries(gs.gaussian(m, sigma1, c1, alpha),
                                      gs.gaussian(l, sigma2, c2, beta), p, args.qmax)
                for z in PROBE_ZS:
                    # the row's closed values at one radius, summed before its direct sums
                    closed = [0j] * p.M
                    for delta, _, _, _, _, value in form.row(alpha, beta, z, range(p.M))[0]:
                        closed[delta] = value
                    for delta in range(p.M):
                        direct = series.evaluate(z, delta)
                        worst = max(worst, abs(closed[delta] - direct) / (1 + abs(direct)))
    checks.add("closed_form_vs_direct", worst, ORACLE_TOL)


def _structure_constant_checks(
    args: argparse.Namespace, checks: CheckList
) -> tuple[StructureConstants, ProductParams, ComplexStructure, gs.PolyGaussTerm]:
    n, m = args.nm
    k, l = args.kl
    p = product_params(n, m, k, l, args.theta)
    cs = ComplexStructure(args.tau, args.c1, args.c2)
    sc = structure_constants(p, cs)
    basis = product_basis(p, cs)
    basis_f = holomorphic_basis(p.right, cs)
    basis_g = holomorphic_basis(p.left, cs)
    cmax = max(
        abs(sc.values[a][b][gmm]) for a in range(m) for b in range(l) for gmm in range(p.M)
    )
    oracle = 0.0
    recon = 0.0
    zs = (0.3, -0.5)
    # every phi_gamma is the one Gaussian placed on component gamma
    phis = [gs.evaluate(basis[0], z, 0) for z in zs]
    for alpha in range(m):
        for beta in range(l):
            series = DirectSeries(basis_f[alpha], basis_g[beta], p, args.qmax)
            for gamma in range(p.M):
                val = sc.values[alpha][beta][gamma]
                d0 = series.evaluate(0.0, gamma)
                # phi_gamma(0) = 1, so the coefficient itself is the value at z = 0.
                oracle = max(oracle, abs(val - d0) / (1 + abs(d0)))
                for z, phi in zip(zs, phis):
                    dz = series.evaluate(z, gamma)
                    recon = max(recon, abs(dz - val * phi))
    checks.add("structure_constants_vs_direct", oracle, ORACLE_TOL)
    checks.add("basis_reconstruction", recon / (1 + cmax), BASIS_TOL)
    return sc, p, cs, basis[0].terms[0]


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _vector_doc(v: gs.PolyGaussVector) -> dict:
    """A vector's terms in canonical order, so equal vectors give equal JSON."""
    return {"m": v.m, "terms": [
        {"poly": [_pair(z) for z in t.poly], "sigma": _pair(t.sigma), "c": _pair(t.c),
         "mu": t.mu, **({"x0": t.x0} if t.x0 else {})}
        for t in v.terms
    ]}


def _params_doc(p: ProductParams, cs: ComplexStructure, phi: gs.PolyGaussTerm) -> dict:
    """Labels, invariants and complex structure of a table; phi is a product basis term.

    The profile presumes A > 0 and B > 0, which hold wherever
    structure_constants returns.
    """
    return {
        "n": p.n, "m": p.m, "k": p.k, "l": p.l, "theta": p.theta,
        "a": p.right.a, "b": p.right.b, "c": p.left.a, "d": p.left.b,
        "M": p.M, "r": p.r, "N_prime": p.N_prime, "theta_prime": p.theta_prime,
        "profile": {"theta_prime": p.theta_prime, "theta_double_prime": p.theta_double_prime,
                    "M": p.M, "N_prime": p.N_prime, "N_double_prime": p.N_double_prime},
        "tau": _pair(cs.tau), "c1": _pair(cs.c1), "c2": _pair(cs.c2),
        "sigma_prime": _pair(phi.sigma), "c_prime": _pair(phi.c),
    }


def _table_rows(sc: StructureConstants):
    """(alpha, beta, gamma, value, q0) per table entry, q0 None where incompatible."""
    for (alpha, beta), (_, row) in sc.rows.items():
        q0s = {gamma: q0 for gamma, q0, *_ in row}
        for gamma, val in enumerate(sc.values[alpha][beta]):
            yield alpha, beta, gamma, val, q0s.get(gamma)


def _open_output(args: argparse.Namespace):
    """The --output file, else stdout; open it once every number is computed."""
    if args.output:
        return open(args.output, "w", newline="")
    return contextlib.nullcontext(sys.stdout)


def _report(args: argparse.Namespace, command: str, ok: bool, **fields) -> int:
    """Write the schema-1 JSON report of command; the exit code is 0 iff ok."""
    config = {"theta": args.theta, "nm": list(args.nm), "kl": list(args.kl),
              "tau": _pair(args.tau), "c1": _pair(args.c1), "c2": _pair(args.c2),
              "tol": args.tol, "qmax": args.qmax, "seed": args.seed}
    doc = {"schema": 1, "command": command, "config": config, **fields, "pass": ok}
    # the indented, key-sorted text, written a block of chunks at a time: on a
    # piped stdout one write per chunk costs about as much as encoding it
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(doc)
    with _open_output(args) as handle:
        while block := "".join(itertools.islice(chunks, 4096)):
            handle.write(block)
        handle.write("\n")
    return 0 if ok else 1


def cmd_algebra_check(args: argparse.Namespace) -> int:
    checks = CheckList()
    _algebra_checks(args, checks)
    _connection_checks(args, checks)
    return _report(args, "algebra-check", checks.ok, checks=checks.entries)


def cmd_theta_basis(args: argparse.Namespace) -> int:
    n, m = args.nm
    tag = module_tag(n, m, -args.theta if args.side == "left" else args.theta)
    basis, worst = _closure(tag, ComplexStructure(args.tau, args.c1, args.c2))
    first = basis[0].terms[0]
    return _report(
        args, "theta-basis", worst <= BASIS_TOL,
        side=args.side, sigma=_pair(first.sigma), c=_pair(first.c), count=len(basis),
        curvature=_pair(curvature_constant(tag)), dbar_residual=worst, tol=BASIS_TOL,
        vectors=[_vector_doc(v) for v in basis],
    )


def cmd_tensor(args: argparse.Namespace) -> int:
    n, m = args.nm
    k, l = args.kl
    p = product_params(n, m, k, l, args.theta)
    sigma1, sigma2, c = holomorphic_factors(p, ComplexStructure(args.tau, args.c1, args.c2))
    # q0 checks alpha, beta, delta before any sum
    form = tensor_gaussian_closed(sigma1, c, sigma2, c, p)
    q0 = form.q0(args.alpha, args.beta, args.delta)
    f, g = gs.gaussian(m, sigma1, c, args.alpha), gs.gaussian(l, sigma2, c, args.beta)
    direct = tensor_direct(f, g, p, args.z, args.delta, args.qmax)
    closed = form.evaluate(args.alpha, args.beta, args.z, args.delta)
    diff = abs(closed - direct)
    return _report(
        args, "tensor", diff <= args.tol * (1 + abs(direct)),
        alpha=args.alpha, beta=args.beta, z=args.z, delta=args.delta, q0=q0,
        direct=_pair(direct), closed_form=_pair(closed), abs_diff=diff,
    )


def cmd_structure_constants(args: argparse.Namespace) -> int:
    checks = CheckList()
    sc, p, cs, phi = _structure_constant_checks(args, checks)
    if args.fmt == "csv":
        with _open_output(args) as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["alpha", "beta", "gamma", "re", "im", "q0"])
            # csv writes a float as its repr and None as an empty cell
            writer.writerows((alpha, beta, gamma, val.real, val.imag, q0)
                             for alpha, beta, gamma, val, q0 in _table_rows(sc))
        # the table has no room for the checks: name each failing one on stderr
        for check in checks.entries:
            if not check["pass"]:
                print(f"failed: {check['name']}: residual {check['residual']} > "
                      f"tol {check['tol']}", file=sys.stderr)
        return 0 if checks.ok else 1
    table = {"shape": list(sc.shape), "params": _params_doc(p, cs, phi), "entries": [
        {"alpha": alpha, "beta": beta, "gamma": gamma, "re": val.real, "im": val.imag, "q0": q0}
        for alpha, beta, gamma, val, q0 in _table_rows(sc)
    ]}
    del sc  # the table is freed before the report's text is encoded
    return _report(args, "structure-constants", checks.ok,
                   structure_constants=table, checks=checks.entries)


def cmd_verify_all(args: argparse.Namespace) -> int:
    checks = CheckList()
    _algebra_checks(args, checks)
    _connection_checks(args, checks)
    _identity_checks(args, checks)
    _oracle_checks(args, checks)
    for stage, name in ((_holomorphic_checks, "holomorphic_closure"),
                        (_structure_constant_checks, "structure_constants")):
        try:
            stage(args, checks)
        except (SeriesOverflow, NonFiniteParameter):
            raise  # a failed evaluation, not an inapplicable stage
        except NCTorusError as exc:
            checks.skip(name, str(exc))
    return _report(args, "verify-all", checks.ok, checks=checks.entries)


COMMANDS: dict[str, Callable[[argparse.Namespace], int]] = {
    "algebra-check": cmd_algebra_check,
    "theta-basis": cmd_theta_basis,
    "tensor": cmd_tensor,
    "structure-constants": cmd_structure_constants,
    "verify-all": cmd_verify_all,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process on main's first call.

    Sharing it is safe: parse_args keeps no state in the parser.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--theta", type=parse_theta, default=0.2,
                        help="rotation parameter; expression over ints, decimals, sqrt<N>")
    common.add_argument("--nm", type=parse_int_pair, default=(1, 2), metavar="N,M",
                        help="right module label (default 1,2)")
    common.add_argument("--kl", type=parse_int_pair, default=(1, 3), metavar="K,L",
                        help="left module label (default 1,3)")
    common.add_argument("--tau", type=parse_complex, default=-1j, metavar="RE,IM",
                        help="complex structure parameter (default 0,-1)")
    common.add_argument("--c1", type=parse_complex, default=0j, metavar="RE,IM",
                        help="first connection offset")
    common.add_argument("--c2", type=parse_complex, default=0j, metavar="RE,IM",
                        help="second connection offset")
    common.add_argument("--tol", type=parse_tolerance, default=1e-9,
                        help="tolerance for identity residuals (default 1e-9)")
    common.add_argument("--qmax", type=parse_positive_int, default=DEFAULT_QMAX,
                        help="series truncation cap (default %(default)s)")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for randomized instances (default 0)")
    common.add_argument("--output", default=None, help="write the report here instead of stdout")

    parser = argparse.ArgumentParser(
        prog="nctorus",
        description="Closed-form module, connection, and tensor-product "
                    "computations over two-dimensional noncommutative tori.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("algebra-check", parents=[common],
                   help="run torus-algebra and module invariant checks")
    p_basis = sub.add_parser("theta-basis", parents=[common],
                             help="emit the holomorphic Gaussian basis for --nm")
    p_basis.add_argument("--side", choices=("right", "left"), default="right")
    p_tensor = sub.add_parser("tensor", parents=[common],
                              help="evaluate one product value two ways")
    p_tensor.add_argument("--alpha", type=int, default=0)
    p_tensor.add_argument("--beta", type=int, default=0)
    p_tensor.add_argument("--z", type=parse_finite, default=0.0)
    p_tensor.add_argument("--delta", type=int, default=0)
    p_table = sub.add_parser("structure-constants", parents=[common],
                             help="compute the coefficient table with cross-checks")
    p_table.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json",
                         help="output format; csv applies to structure-constants")
    sub.add_parser("verify-all", parents=[common],
                   help="run every identity suite at the given parameters")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits on usage errors; keep main() returning a code
        return int(exc.code or 0)
    try:
        return COMMANDS[args.command](args)
    except (NCTorusError, ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
