"""Outside-in layer tracing: wrappers around nctorus's public functions.

Each layer is one nctorus module.  ``install`` replaces every public
function and public method of each layer module with a wrapper that
records a span (layer, function, start, end, parent, job).  Modules are
looked up in ``sys.modules``: ``nctorus.theta`` as an attribute is the
function ``theta``, not the module.  Every binding of an original function
is replaced, so names bound by ``from .x import y`` (and by dispatch
tables such as ``cli.COMMANDS``) are traced too.

Spans are folded as they close into call counts per (parent layer,
layer, function) and self time per (job, layer), so a verify pass with
millions of ``evaluate`` calls stays small in memory.  A layer's self
time is span time minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("algebra", "gaussians", "modules", "connections", "theta", "tensor", "cli")


class Tracer:
    def __init__(self) -> None:
        self.job = None
        # open spans: [layer, child seconds]
        self.stack: list[list] = []
        self.calls: dict[tuple, int] = defaultdict(int)  # (parent layer, layer, function)
        self.self_s: dict[tuple, float] = defaultdict(float)  # (job, layer)
        self.evaluate_zero = 0
        self.theta_terms = 0
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.evaluate_zero = 0
        self.theta_terms = 0

    def exclude(self, seconds: float) -> None:
        """Count ``seconds`` spent outside nctorus as child time of the open span."""
        if self.stack:
            self.stack[-1][1] += seconds

    def wrap(self, fn, layer: str, name: str):
        stack = self.stack
        calls = self.calls
        self_s = self.self_s
        clock = time.perf_counter
        observe = None
        if (layer, name) == ("gaussians", "evaluate"):
            def observe(args, kwargs, result):
                if result == 0:
                    self.evaluate_zero += 1
        elif (layer, name) == ("theta", "theta_truncated"):
            def observe(args, kwargs, result):
                radius = args[2] if len(args) > 2 else kwargs["radius"]
                self.theta_terms += 2 * radius + 1

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            calls[(parent, layer, name)] += 1
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[(self.job, layer)] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = {layer: sys.modules[f"nctorus.{layer}"] for layer in LAYERS}
        replace: dict[int, object] = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replace[id(obj)] = self.wrap(obj, layer, name)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._patch(obj, meth, self.wrap(fn, layer, f"{name}.{meth}"))
        targets = [m for n, m in sys.modules.items() if n == "nctorus" or n.startswith("nctorus.")]
        for mod in targets:
            for name, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    self._patch(mod, name, replace[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in replace:
                            self._patch(obj, key, replace[id(val)])

    def _patch(self, owner, name, new) -> None:
        if isinstance(owner, dict):
            self._restore.append((owner, name, owner[name]))
            owner[name] = new
        else:
            self._restore.append((owner, name, vars(owner)[name]))
            setattr(owner, name, new)

    def uninstall(self) -> None:
        for owner, name, old in reversed(self._restore):
            if isinstance(owner, dict):
                owner[name] = old
            else:
                setattr(owner, name, old)
        self._restore.clear()

    def counts(self) -> dict[str, float]:
        """Per-layer counts of the calls recorded since the last reset."""
        out: dict[str, int] = {f"{layer}.calls": 0 for layer in LAYERS}
        by_fn: dict[tuple[str, str], int] = defaultdict(int)
        tensor_evaluate = 0
        for (parent, layer, name), n in self.calls.items():
            out[f"{layer}.calls"] += n
            by_fn[(layer, name)] += n
            if (layer, name) == ("gaussians", "evaluate") and parent == "tensor":
                tensor_evaluate += n
        out["tensor.evaluate_calls"] = tensor_evaluate
        out["gaussians.evaluate_calls"] = by_fn[("gaussians", "evaluate")]
        out["gaussians.vector_calls"] = by_fn[("gaussians", "vector")]
        out["algebra.mul_calls"] = by_fn[("algebra", "mul")]
        out["theta.terms"] = self.theta_terms
        evaluate_calls = out["gaussians.evaluate_calls"]
        out["gaussians.evaluate_zero_frac"] = (
            self.evaluate_zero / evaluate_calls if evaluate_calls else 0.0)
        return out
