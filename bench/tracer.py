"""Span tracing of vsbdf3 from outside the package.

Tracer.install wraps the public functions of the six modules, plus
TimeGrid.step/ratio/from_json and numpy.linalg.solve, and rebinds every
reference to them inside the package, so calls between modules and within
a module go through the wrappers.  Nothing under src/ is edited.

A span is (name, start, end, parent index); spans stay in memory and are
written once by write().  A layer's self time is its spans' time minus
their child spans.  Per-level leaf functions (grid accessors, kernel-weight
formulas, coupling envelopes) are only counted: a span per call would cost
more than the calls themselves and would fill memory on certify-mix, so
their time stays in their caller's self time.

allen_cahn.step is split into the dense linear solve and the rest by the
numpy.linalg.solve span, the only numpy.linalg call the solver makes.
cProfile would give the same split but charges every Python call inside
step, which inflates the rest.

Layer metrics are reported per round, so a run's length does not change
them: counts repeat exactly from run to run.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import time
from collections import Counter

MODULES = ("time_grid", "bdf_kernels", "ratio_analysis", "spectral", "allen_cahn", "cli")

# Called once per level or per pivot: counted, not spanned.
COUNTED = {
    "time_grid.TimeGrid.step": "time_grid.accessor_calls",
    "time_grid.TimeGrid.ratio": "time_grid.accessor_calls",
    "bdf_kernels.bdf1_weight": "bdf_kernels.weight_calls",
    "bdf_kernels.bdf2_weights": "bdf_kernels.weight_calls",
    "bdf_kernels.bdf3_weights": "bdf_kernels.weight_calls",
    "bdf_kernels.scaled_bdf2_weights": "bdf_kernels.weight_calls",
    "bdf_kernels.scaled_bdf3_weights": "bdf_kernels.weight_calls",
    "ratio_analysis.subdiagonal_envelopes": "ratio_analysis.envelope_calls",
}

LINSOLVE = "numpy.linalg.solve"

BUILDERS = tuple(f"time_grid.{f}" for f in (
    "build_uniform", "build_alternating", "build_random", "build_from_steps",
    "build_from_ratios", "random_bounded_grid"))

# Per-layer metric units; times and counts are per round.
PER_LAYER = {
    "time_grid.parse_s": "s",
    "time_grid.build_s": "s",
    "time_grid.accessor_calls": "count",
    "bdf_kernels.coeff_calls": "count",
    "bdf_kernels.coeff_s": "s",
    "bdf_kernels.weight_calls": "count",
    "ratio_analysis.certify_s": "s",
    "ratio_analysis.trace_a_s": "s",
    "ratio_analysis.grids": "count",
    "ratio_analysis.pivots": "count",
    "ratio_analysis.early_stops": "count",
    "ratio_analysis.pivot_yield": "ratio",
    "ratio_analysis.envelope_calls": "count",
    "spectral.build_s": "s",
    "spectral.op_bytes": "bytes",
    "spectral.energy_calls": "count",
    "spectral.energy_s": "s",
    "spectral.l2_norm_s": "s",
    "allen_cahn.levels": "count",
    "allen_cahn.newton_iters": "count",
    "allen_cahn.step_s": "s",
    "allen_cahn.linsolve_calls": "count",
    "allen_cahn.linsolve_s": "s",
    "allen_cahn.assembly_s": "s",
    "allen_cahn.jacobian_bytes": "bytes",
    "cli.main_s": "s",
    "cli.emit_s": "s",
    "cli.out_bytes": "bytes",
    **{f"{m}.self_s": "s" for m in MODULES + ("linsolve",)},
    "traced.wall_s": "s",
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.jacobian_bytes = 0
        self._ticks: dict = {}
        self._stack: list[int] = []
        self._restore: list = []

    # -- wrappers --------------------------------------------------------

    def span(self, name: str, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counted(self, key: str, fn):
        tick = self._ticks.setdefault(key, itertools.count()).__next__

        def wrapper(*args):
            tick()
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- result hooks that turn return values into counts ----------------

    def _pivot_trace(self, levels_of):
        def hook(args, trace):
            self.counts["ratio_analysis.grids"] += 1
            self.counts["ratio_analysis.pivots"] += len(trace.p)
            self.counts["ratio_analysis.levels"] += levels_of(args[0])
            self.counts["ratio_analysis.early_stops"] += trace.first_negative is not None
        return hook

    def _operator(self, args, op):
        self.counts["spectral.op_bytes"] += op.L.nbytes + op.Gx.nbytes + op.Gy.nbytes + op.w.nbytes

    def _step(self, args, result):
        self.counts["allen_cahn.newton_iters"] += result[1].newton_iterations
        # the dense Newton matrix of float64 entries, n_unknowns x n_unknowns
        self.jacobian_bytes = max(self.jacobian_bytes, args[0].operator.n_unknowns ** 2 * 8)

    # -- installation ----------------------------------------------------

    def install(self, package):
        """Wrap the package's public functions; undo with uninstall()."""
        import numpy

        modules = [package] + [importlib.import_module(f"{package.__name__}.{m}")
                               for m in MODULES]
        hooks = {
            "ratio_analysis.sylvester_trace_shifted": self._pivot_trace(lambda g: g.n_steps),
            "ratio_analysis.sylvester_trace_A_from_ratios":
                self._pivot_trace(lambda r: len(r) + 1),
            "spectral.chebyshev_operator": self._operator,
            "spectral.fourier_operator": self._operator,
            "allen_cahn.step": self._step,
        }
        replaced = {}
        for short, mod in zip(MODULES, modules[1:]):
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    name = f"{short}.{attr}"
                    replaced[fn] = self._wrap(name, fn, hooks.get(name))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replaced:
                    self._set(mod, attr, replaced[value])

        grid_cls = modules[1].TimeGrid
        for attr in ("step", "ratio"):
            self._set(grid_cls, attr, self._wrap(f"time_grid.TimeGrid.{attr}",
                                                 getattr(grid_cls, attr)))
        self._set(grid_cls, "from_json", staticmethod(
            self.span("time_grid.TimeGrid.from_json", grid_cls.from_json)))
        self._set(numpy.linalg, "solve", self.span(LINSOLVE, numpy.linalg.solve))
        return self

    def _wrap(self, name, fn, hook=None):
        if name in COUNTED:
            return self.counted(COUNTED[name], fn)
        return self.span(name, fn, hook)

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        """Restore the package and move the call counters into counts."""
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()
        for key, tick in self._ticks.items():
            self.counts[key] += next(tick)
        self._ticks.clear()

    # -- output ----------------------------------------------------------

    def write(self, path):
        """Write every span as one JSON array per line: name, start, end, parent."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")

    def layer_metrics(self, rounds: int, traced_wall_s: float, out_bytes: int) -> dict:
        """Per-round layer metrics, keyed as in PER_LAYER; call after uninstall()."""
        spans = self.spans
        child = [0.0] * len(spans)
        calls = Counter()
        self_time = Counter()
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            calls[name] += 1
            self_time[name] += end - start - child[i]
        module_self = Counter()
        for name, t in self_time.items():
            module_self["linsolve" if name == LINSOLVE else name.split(".")[0]] += t

        def outer(*names) -> float:
            return _outermost(spans, set(names))

        c = self.counts
        levels = c["ratio_analysis.levels"]
        values = {
            "time_grid.parse_s": outer("time_grid.TimeGrid.from_json"),
            "time_grid.build_s": outer(*BUILDERS),
            "time_grid.accessor_calls": c["time_grid.accessor_calls"],
            "bdf_kernels.coeff_calls": calls["bdf_kernels.bdf_coefficients"],
            "bdf_kernels.coeff_s": outer("bdf_kernels.bdf_coefficients"),
            "bdf_kernels.weight_calls": c["bdf_kernels.weight_calls"],
            "ratio_analysis.certify_s": outer("ratio_analysis.certify_positive_definite"),
            "ratio_analysis.trace_a_s": outer("ratio_analysis.sylvester_trace_A",
                                              "ratio_analysis.sylvester_trace_A_from_ratios"),
            "ratio_analysis.grids": c["ratio_analysis.grids"],
            "ratio_analysis.pivots": c["ratio_analysis.pivots"],
            "ratio_analysis.early_stops": c["ratio_analysis.early_stops"],
            "ratio_analysis.envelope_calls": c["ratio_analysis.envelope_calls"],
            "spectral.build_s": outer("spectral.chebyshev_operator", "spectral.fourier_operator"),
            "spectral.op_bytes": c["spectral.op_bytes"],
            "spectral.energy_calls": calls["spectral.energy"],
            "spectral.energy_s": outer("spectral.energy"),
            "spectral.l2_norm_s": outer("spectral.l2_norm"),
            "allen_cahn.levels": calls["allen_cahn.step"],
            "allen_cahn.newton_iters": c["allen_cahn.newton_iters"],
            "allen_cahn.step_s": outer("allen_cahn.step"),
            "allen_cahn.linsolve_calls": calls[LINSOLVE],
            "allen_cahn.linsolve_s": outer(LINSOLVE),
            "allen_cahn.assembly_s": self_time["allen_cahn.step"],
            "cli.main_s": outer("cli.main"),
            "cli.emit_s": outer("cli.emit"),
            "cli.out_bytes": out_bytes,
        }
        values.update({f"{m}.self_s": module_self[m] for m in MODULES + ("linsolve",)})
        values = {k: v / rounds for k, v in values.items()}
        values["ratio_analysis.pivot_yield"] = (c["ratio_analysis.pivots"] / levels
                                                if levels else 0.0)
        values["allen_cahn.jacobian_bytes"] = self.jacobian_bytes
        values["traced.wall_s"] = traced_wall_s
        return {k: values[k] for k in PER_LAYER}


def _outermost(spans, names) -> float:
    """Total time of spans named in names that no other such span encloses.

    Parents precede their children in the list, so one forward pass can
    carry "inside a span of this group" down the tree.
    """
    inside = [False] * len(spans)
    total = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        enclosed = parent >= 0 and inside[parent]
        hit = name in names
        inside[i] = enclosed or hit
        if hit and not enclosed:
            total += end - start
    return total
