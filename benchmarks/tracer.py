"""Outside-in span tracer for the fluctuator modules.

`Tracer.install()` replaces every public function of the nine modules (and
the public methods of `walk.LatticeLaw`) by a wrapper that records a span:
name, layer, start, end and parent span.  The wrappers are written into the
module namespaces, so calls between modules (`oracle.delta_table(...)`) and
calls inside a module (`tau_tail(...)` from `spitzer_check`) both resolve
to them.  Spans stay in memory until `write` at the end of the run.

A span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans.  The oracle module
is split into four layers by function and mode:

  oracle.exact    rational DP tables and exact identity checks
  oracle.sweep    float convolve-then-kill sweeps
  oracle.closure  series_tail_sum, the a-basis tail closures
  oracle.other    float identity checks, ladder renewal, Monte Carlo
"""

from __future__ import annotations

import inspect
from bisect import bisect_right
from fractions import Fraction
from time import perf_counter

MODULES = (
    "walk", "basis", "oracle", "edgeworth", "halfpow", "tau0",
    "conditioned", "polyharmonic", "cli",
)
LAYERS = (
    "oracle.exact", "oracle.sweep", "oracle.closure", "oracle.other",
    "basis", "edgeworth", "halfpow", "tau0", "conditioned", "polyharmonic",
    "walk", "cli",
)

# Which end-to-end metric each layer should move, on which workload.
MOVES = {
    "oracle.exact": "wall_s on exact-verify; nothing on sweep-taux, law-batch",
    "oracle.sweep": "wall_s, peak_rss_mb on sweep-taux; op_p50_s on law-batch",
    "oracle.closure": "wall_s on law-batch and sweep-taux",
    "oracle.other": "wall_s on exact-verify (float identity checks)",
    "basis": "op_p50_s, wall_s on law-batch; about 0 on exact-verify",
    "edgeworth": "op_p50_s, wall_s on law-batch; about 0 on exact-verify",
    "halfpow": "wall_s on law-batch and sweep-taux",
    "tau0": "wall_s on law-batch and sweep-taux",
    "conditioned": "wall_s on law-batch and sweep-taux",
    "polyharmonic": "wall_s on law-batch and sweep-taux",
    "walk": "op_p50_s on law-batch",
    "cli": "op_p50_s on law-batch (orchestration, formatting, artifact writes)",
}

_EXACT = {"pmf", "conditioned_pmf", "recurrence_gap", "leftcont_check"}
_BY_MODE = {"tau_tail", "spitzer_check", "duality_check"}
_SWEEP_KERNELS = {"delta_table", "conditioned_table", "survivor_tail", "ladder_height_dist"}
_SWEEP = _SWEEP_KERNELS | {"renewal_V"}
_CONVERSIONS = {"power_to_basis", "power_to_shifted_basis"}


class Tracer:
    def __init__(self):
        # span: [name, layer, start, end, parent index, info]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.exact_results: list = []
        self.pass_starts: list[int] = []  # first span index of each pass

    # -- installation -------------------------------------------------------

    def install(self, package) -> None:
        mods = {name: getattr(package, name) for name in MODULES}
        for name, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                wrapped = self._wrap(name, attr, obj)
                # rebind in every module that holds the function, including
                # `from .walk import law_from_json` style imports
                for other in mods.values():
                    for key, val in list(vars(other).items()):
                        if val is obj:
                            setattr(other, key, wrapped)
                builtins = mods["cli"]._BUILTIN_MODELS
                for key, val in list(builtins.items()):
                    if val is obj:
                        builtins[key] = wrapped
        law_cls = mods["walk"].LatticeLaw
        for attr in ("raw_moment", "cumulants", "reverse", "require_expansion_ready"):
            setattr(law_cls, attr, self._wrap("walk", f"LatticeLaw.{attr}", getattr(law_cls, attr)))

    def _wrap(self, module: str, name: str, fn):
        spans, stack = self.spans, self._stack
        classify = _classifier(module, name, fn)
        keep = self.exact_results

        def wrapper(*args, **kwargs):
            layer, info = classify(args, kwargs)
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, info]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if layer == "oracle.exact":
                keep.append(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def start_pass(self) -> None:
        """Mark a pass boundary: distinct ratios count repeats within a pass."""
        self.pass_starts.append(len(self.spans))

    # -- aggregation --------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, layer, t0, t1, parent, info in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s = {layer: 0.0 for layer in LAYERS}
        counts = {
            "oracle.exact.calls": 0, "oracle.exact.steps": 0,
            "oracle.sweep.calls": 0, "oracle.sweep.steps": 0, "oracle.sweep.cells": 0,
            "oracle.closure.calls": 0, "basis.conversions": 0,
            "edgeworth.theta_calls": 0, "conditioned.psi_calls": 0,
        }
        sweep_keys, conversion_keys = set(), set()
        for i, (name, layer, t0, t1, parent, info) in enumerate(self.spans):
            self_s[layer] += (t1 - t0) - child[i]
            pass_index = bisect_right(self.pass_starts, i)
            if layer == "oracle.exact":
                counts["oracle.exact.calls"] += 1
                counts["oracle.exact.steps"] += info
            elif name in _SWEEP_KERNELS:
                key, horizon, width = info
                counts["oracle.sweep.calls"] += 1
                counts["oracle.sweep.steps"] += horizon
                # computed, not measured: free-walk DP width 1 + n*width at step n
                counts["oracle.sweep.cells"] += horizon + width * horizon * (horizon + 1) // 2
                sweep_keys.add((pass_index, key))
            elif name == "series_tail_sum":
                counts["oracle.closure.calls"] += 1
            elif name in _CONVERSIONS:
                counts["basis.conversions"] += 1
                conversion_keys.add((pass_index, info))
            elif name == "theta_polys":
                counts["edgeworth.theta_calls"] += 1
            elif name == "psi_x":
                counts["conditioned.psi_calls"] += 1
        out = {f"{layer}.self_s": v for layer, v in self_s.items()}
        out.update({k: float(v) for k, v in counts.items()})
        out["oracle.sweep.distinct_ratio"] = _ratio(len(sweep_keys), counts["oracle.sweep.calls"])
        out["basis.conversion_distinct_ratio"] = _ratio(
            len(conversion_keys), counts["basis.conversions"]
        )
        out["oracle.exact.max_den_bits"] = float(
            max((f.denominator.bit_length() for f in _fractions(self.exact_results)), default=0)
        )
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,layer,name,start_s,end_s\n")
            base = self.spans[0][2] if self.spans else 0.0
            for i, (name, layer, t0, t1, parent, _) in enumerate(self.spans):
                fh.write(f"{i},{parent},{layer},{name},{t0 - base:.9f},{t1 - base:.9f}\n")


def _ratio(num: int, den: int) -> float:
    return num / den if den else 1.0


def _classifier(module: str, name: str, fn):
    """(args, kwargs) -> (layer, info) for one wrapped function."""
    if module != "oracle":
        if name in _CONVERSIONS:
            sig = inspect.signature(fn)

            def conversion(args, kwargs):
                b = sig.bind(*args, **kwargs)
                b.apply_defaults()
                return module, (name, b.arguments["j"], b.arguments["m"], b.arguments["N_fit"])

            return conversion
        return lambda args, kwargs: (module, None)

    sig = inspect.signature(fn)
    horizon_arg = "N" if "N" in sig.parameters else "n"

    def bound(args, kwargs):
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        return b.arguments

    if name in _EXACT or name in _BY_MODE:
        def exact_or_float(args, kwargs):
            a = bound(args, kwargs)
            if name in _BY_MODE and a.get("mode") == "float":
                return ("oracle.sweep" if name == "tau_tail" else "oracle.other"), None
            return "oracle.exact", int(a[horizon_arg])

        return exact_or_float
    if name in _SWEEP_KERNELS:
        def kernel(args, kwargs):
            a = bound(args, kwargs)
            law, horizon = a["law"], int(a[horizon_arg])
            if name == "delta_table":
                floor = "free"
            elif name == "ladder_height_dist":
                floor = "ladder"
            else:
                floor = 0 if a["strict"] else 1
            width = max(law.support) - min(law.support)
            return "oracle.sweep", ((law, horizon, floor), horizon, width)

        return kernel
    if name in _SWEEP:
        return lambda args, kwargs: ("oracle.sweep", None)
    if name == "series_tail_sum":
        return lambda args, kwargs: ("oracle.closure", None)
    return lambda args, kwargs: ("oracle.other", None)


def _fractions(obj):
    """Every Fraction inside an exact-layer return value."""
    if isinstance(obj, Fraction):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _fractions(item)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _fractions(item)
    elif hasattr(obj, "mass"):
        yield from _fractions(obj.mass)
        if hasattr(obj, "killed_to_date"):
            yield obj.killed_to_date
