"""In-memory span tracer for traced benchmark runs.

``Tracer.install`` wraps the public functions of every dbar_fiber layer
module (plus the transform core ``cauchy._refined_polar``, which ``solver``
imports) in each module namespace that binds them, and the public methods
of ``RunConfig``, ``VerificationReport`` and ``CheckRecord``.  Calls between
layers therefore open a span at the call boundary; a call to an unwrapped
helper is charged to the layer that made it.  Coefficient callables of the
forms the package builds are wrapped as ``fields.eval`` spans.  Nothing on
disk changes, and ``uninstall`` restores every attribute.

Spans stay in memory as ``[layer, name, t0, t1, parent]`` lists until the
run ends.  A layer's self time is the duration of its spans minus the part
covered by their direct children, so the self times of all layers (the
benchmark's own ``bench`` layer included) add up to the root spans' wall
time with nothing counted twice.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import math
import os
import time
from collections import Counter

LAYERS = ("fields", "quadrature", "cauchy", "solver", "bundle", "config", "report", "cli")

# Classes whose public methods are layer entry points.
_CLASSES = {"config": ("RunConfig",), "report": ("VerificationReport", "CheckRecord")}

# Bytes per polar sample that ``_polar_sum`` writes: the node grid ``zeta``
# and the sample matrix (complex128 each), plus the phased copy of the
# samples when the kernel phase applies.  Computed from the counts, not
# measured: cache misses and the fields' own temporaries are not included.
_BYTES_PER_SAMPLE = {True: 48, False: 32}

# Busy metrics: total duration of the outermost spans whose label or layer
# is in the set.  ``_glue`` marks solves made inside the overlap check.
_GROUPS = {
    "fields.busy_s": {"fields.eval"},
    "quadrature.mesh_busy_s": {"quadrature.radial_simpson_mesh"},
    "quadrature.tail_busy_s": {"quadrature.decay_tail_integral", "quadrature.half_line_decay_mass"},
    "cauchy.radius_busy_s": {"cauchy.resolve_truncation_radius"},
    "solver.residual_busy_s": {"solver.residual"},
    "bundle.busy_s": {"bundle"},
    "config.busy_s": {"config"},
    "report.busy_s": {"report"},
    "_glue": {"bundle.chart_consistency"},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._polar = []
        self._patched = []
        self._pkg = importlib.import_module("dbar_fiber")

    # -- recording -------------------------------------------------------

    def _wrap(self, layer, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        label = f"{layer}.{name}"

        def traced(*args, **kwargs):
            rec = [layer, label, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def begin_round(self) -> int:
        """Open the root span of one traced round and reset the counters."""
        self.counts = Counter()
        index = len(self.spans)
        self.spans.append(["bench", "bench.round", time.perf_counter(), 0.0, -1])
        self._stack.append(index)
        return index

    def end_round(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    # -- per-call counters -------------------------------------------------

    def _count_eval(self, args, kwargs, result):
        w = args[1] if len(args) > 1 else kwargs["w"]
        self.counts["fields.samples"] += math.prod(getattr(w, "shape", ())[:-1])

    def _polar_core(self, fn):
        """``_refined_polar`` with its n_theta and bytes per sample made
        visible to the mesh counter, and its convergence counted."""

        def polar(fn_, center, r_end, r_core, spec, with_kernel_phase, prefactor):
            self._polar.append((spec.n_theta, _BYTES_PER_SAMPLE[bool(with_kernel_phase)]))
            try:
                result = fn(fn_, center, r_end, r_core, spec, with_kernel_phase, prefactor)
            finally:
                self._polar.pop()
            self.counts["cauchy.transforms"] += 1
            self.counts["cauchy.converged"] += result[1] <= spec.tol_abs
            return result

        return polar

    def _count_mesh(self, args, kwargs, result):
        level = args[3] if len(args) > 3 else kwargs.get("level", 0)
        nodes = len(result[0])
        self.counts["quadrature.mesh_nodes"] += nodes
        if self._polar:
            n_theta, per_sample = self._polar[-1]
            samples = nodes * n_theta * 2 ** level
            self.counts["cauchy.levels"] += 1
            self.counts["cauchy.samples"] += samples
            self.counts["cauchy.bytes_computed"] += samples * per_sample

    def _count_report(self, args, kwargs, result):
        self.counts["report.bytes_written"] += len(result.encode())

    def _count_csv(self, args, kwargs, result):
        self.counts["report.bytes_written"] += os.path.getsize(args[0])

    # -- installation ----------------------------------------------------

    def wrap_form(self, form):
        """Copy of ``form`` whose coefficient callables record fields spans."""
        def ev(fn):
            if fn is None:
                return None
            return self._wrap("fields", "eval", fn, after=self._count_eval)

        def field(f):
            wirt = None if f.wirtinger is None else {k: ev(fn) for k, fn in f.wirtinger.items()}
            return dataclasses.replace(f, evaluate=ev(f.evaluate), wirtinger=wirt, primitive=ev(f.primitive))

        return dataclasses.replace(
            form,
            a_coeffs=tuple(field(f) for f in form.a_coeffs),
            b_coeffs=tuple(field(f) for f in form.b_coeffs),
        )

    def _wrapper_for(self, layer, name, fn):
        if (layer, name) == ("fields", "builtin_form"):
            return self._wrap(layer, name, lambda *a, **k: self.wrap_form(fn(*a, **k)))
        if (layer, name) == ("cauchy", "_refined_polar"):
            return self._wrap(layer, name, self._polar_core(fn))
        hooks = {
            ("quadrature", "radial_simpson_mesh"): self._count_mesh,
            ("report", "to_json"): self._count_report,
            ("report", "write_csv"): self._count_csv,
        }
        return self._wrap(layer, name, fn, after=hooks.get((layer, name)))

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [self._pkg] + [importlib.import_module(f"dbar_fiber.{m}") for m in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules[1:]):
            for name, obj in vars(mod).items():
                public = not name.startswith("_") or (layer, name) == ("cauchy", "_refined_polar")
                if public and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrapper_for(layer, name, obj)
            for cls_name in _CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name)
                for name, obj in list(vars(cls).items()):
                    if not name.startswith("_") and inspect.isfunction(obj):
                        self._patched.append((cls, name, obj))
                        setattr(cls, name, self._wrapper_for(layer, name, obj))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched = []

    # -- metrics ---------------------------------------------------------

    def round_metrics(self, index: int) -> dict:
        """Per-layer metrics of the round whose root span is ``index``."""
        spans = self.spans
        groups = list(_GROUPS.items())
        glue_bit = 1 << len(groups) - 1
        self_s = Counter({layer: 0.0 for layer in LAYERS + ("bench",)})
        busy = Counter({metric: 0.0 for metric in _GROUPS})
        outer_calls = Counter()
        solves = overlap_solves = eval_calls = 0
        masks = {}  # span index -> groups open at or above that span
        for i in range(index, len(spans)):
            layer, label, t0, t1, parent = spans[i]
            d = t1 - t0
            self_s[layer] += d
            above = 0
            if parent >= index:
                self_s[spans[parent][0]] -= d
                above = masks[parent]
            own = 0
            for bit, (metric, members) in enumerate(groups):
                if label in members or layer in members:
                    own |= 1 << bit
                    if not above & (1 << bit):
                        busy[metric] += d
                        outer_calls[metric] += 1
            masks[i] = above | own
            if label == "solver.solve_point":
                solves += 1
                overlap_solves += bool(above & glue_bit)
            elif label == "fields.eval":
                eval_calls += 1

        c = self.counts
        transforms = c["cauchy.transforms"]
        return {
            "fields.eval_calls": eval_calls,
            "fields.samples": c["fields.samples"],
            "fields.busy_s": busy["fields.busy_s"],
            "fields.self_s": self_s["fields"],
            "quadrature.mesh_nodes": c["quadrature.mesh_nodes"],
            "quadrature.mesh_busy_s": busy["quadrature.mesh_busy_s"],
            "quadrature.tail_calls": outer_calls["quadrature.tail_busy_s"],
            "quadrature.tail_busy_s": busy["quadrature.tail_busy_s"],
            "quadrature.self_s": self_s["quadrature"],
            "cauchy.transforms": transforms,
            "cauchy.levels": c["cauchy.levels"],
            "cauchy.samples": c["cauchy.samples"],
            "cauchy.bytes_computed": c["cauchy.bytes_computed"],
            "cauchy.converged_ratio": c["cauchy.converged"] / transforms if transforms else 1.0,
            "cauchy.radius_busy_s": busy["cauchy.radius_busy_s"],
            "cauchy.self_s": self_s["cauchy"],
            "solver.solves": solves,
            "solver.residual_busy_s": busy["solver.residual_busy_s"],
            "solver.self_s": self_s["solver"],
            "bundle.overlap_solves": overlap_solves,
            "bundle.busy_s": busy["bundle.busy_s"],
            "bundle.self_s": self_s["bundle"],
            "config.busy_s": busy["config.busy_s"],
            "config.self_s": self_s["config"],
            "report.busy_s": busy["report.busy_s"],
            "report.bytes_written": c["report.bytes_written"],
            "report.self_s": self_s["report"],
            "cli.self_s": self_s["cli"],
            "bench.self_s": self_s["bench"],
            "trace.wall_s": spans[index][3] - spans[index][2],
        }
