"""Span tracing of minkruled from outside, for the traced benchmark run.

The tracer wraps public functions of the library and rebinds every module
attribute that refers to them, so ``from .curves import frenet_apparatus``
in ``involute``, ``surfaces`` and ``report`` is traced as well as the
definition in ``curves``. Each call records a span (name, start, end,
parent, operation) into flat in-memory arrays; the arrays are written out
once, when the run ends. Nothing is recorded while ``active`` is false, so
the correctness gates, which call the library too, stay out of the trace.

A span's self time is its duration minus the durations of its children.
Spans nest strictly (one thread, synchronous calls), so the self times of
all spans of an operation add up to the operation's traced duration.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

OP_SPAN = "op"

# module -> public functions wrapped in a span named "<module>.<function>",
# unless SPAN_NAMES gives the span another name
TARGETS = {
    "config": ["load_config", "build_curve"],
    "report": ["run_report"],
    "verify": ["run_trials", "random_direction"],
    "mesh": ["sample_grid", "export_mesh"],
    "surfaces": [
        "surface_point",
        "ruling_vector",
        "ruling_derivative",
        "drall_closed",
        "drall_numeric",
        "striction_point",
        "classify_developability",
        "developable_prescription",
    ],
    "involute": ["involute_frame", "involute_point"],
    "curves": ["frenet_apparatus", "darboux_data", "curve_from_curvature"],
    "numdiff": ["derivative"],
}
SPAN_NAMES = {("mesh", "export_mesh"): "mesh.export"}
# spans with a name of their own: the CLI entry point, every public Lorentz
# function (one layer), and curve evaluation (Curve.point / Curve.derivative)
CLI_SPAN = "cli"
LORENTZ_SPAN = "lorentz"
CURVE_EVAL_SPAN = "curves.curve_eval"
PRESCRIBED_SPAN = "surfaces.prescribed"


class Tracer:
    def __init__(self):
        self.active = False
        self.current = -1
        self.op_index = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    # --- recording --------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn, after=None, traced_fn=None):
        """Wrap fn so each call made while active records a span.

        While active, traced_fn (default fn) is called in its place.
        after(args, kwargs, result) runs on return, for counters that need
        the arguments or the result.
        """
        nid = self._intern(name)
        tr = self
        clock = time.perf_counter
        call = fn if traced_fn is None else traced_fn

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            idx = len(tr.start)
            parent = tr.current
            tr.name_id.append(nid)
            tr.parent.append(parent)
            tr.op.append(tr.op_index)
            tr.end.append(0.0)
            tr.current = idx
            tr.start.append(clock())
            try:
                result = call(*args, **kwargs)
            finally:
                tr.end[idx] = clock()
                tr.current = parent
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def run_op(self, index: int, fn):
        """Run one operation under a root span and return its result."""
        self.op_index = index
        root = self.span(OP_SPAN, fn)
        self.active = True
        try:
            return root()
        finally:
            self.active = False

    # --- installing ---------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the TARGETS of ``package`` and rebind them in every submodule."""
        mods = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == package.__name__ or name.startswith(package.__name__ + "."))
        }
        prefix = package.__name__ + "."
        wrappers: dict[int, object] = {}

        def wrap(module_name, attr, span_name):
            mod = mods.get(prefix + module_name)
            fn = getattr(mod, attr, None) if mod is not None else None
            if callable(fn) and id(fn) not in wrappers:
                after, traced_fn = self._hooks(fn, module_name, attr)
                wrappers[id(fn)] = self.span(span_name, fn, after, traced_fn)

        for module_name, attrs in TARGETS.items():
            for attr in attrs:
                name = SPAN_NAMES.get((module_name, attr), f"{module_name}.{attr}")
                wrap(module_name, attr, name)
        wrap("cli", "main", CLI_SPAN)
        lorentz = mods.get(prefix + "lorentz")
        for attr in getattr(lorentz, "__all__", []):
            if inspect.isfunction(getattr(lorentz, attr)):
                wrap("lorentz", attr, LORENTZ_SPAN)
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])
        curve_cls = getattr(mods.get(prefix + "curves"), "Curve", None)
        for attr in ("point", "derivative"):
            fn = getattr(curve_cls, attr, None) if curve_cls is not None else None
            if fn is not None:
                self._patched.append((curve_cls, attr, fn))
                setattr(curve_cls, attr, self.span(CURVE_EVAL_SPAN, fn))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def _hooks(self, fn, module_name: str, attr: str):
        """(after, traced_fn) for the spans that also feed counters."""
        counters = self.counters
        key = (module_name, attr)
        if key == ("mesh", "sample_grid"):
            def after(args, kwargs, mesh):
                counters["mesh.vertices"] += int(mesh.vertex_count)
            return after, None
        if key == ("mesh", "export_mesh"):
            sig = inspect.signature(fn)

            def after(args, kwargs, result):
                path = sig.bind(*args, **kwargs).arguments["path"]
                counters["mesh.export.bytes"] += os.path.getsize(path)
            return after, None
        if key == ("curves", "curve_from_curvature"):
            # step count of the fixed-step integrator, from the arguments
            sig = inspect.signature(fn)
            max_step = getattr(sys.modules[fn.__module__], "ODE_STEP", math.inf)

            def after(args, kwargs, result):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                lo, hi = bound.arguments["domain"]
                step = min(bound.arguments["step"], max_step)
                counters["curves.synthesis_steps"] += max(1, math.ceil((hi - lo) / step))
            return after, None
        if key == ("numdiff", "derivative"):
            def counted_derivative(f, *args, **kwargs):
                def counted(u):
                    counters["numdiff.fevals"] += 1
                    return f(u)

                return fn(counted, *args, **kwargs)
            return None, counted_derivative
        return None, None

    # --- analysis ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def span_count(self) -> int:
        return len(self.start)

    def summarize(self, count_cut: int, count_ops: int) -> dict:
        """Per-name calls (over the first count_cut spans, per op of the
        first count_ops ops) and self seconds per op over all ops.

        Checks that spans nest and that self times add up to op time.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        parent = a["parent"]
        has_parent = parent >= 0
        pidx = parent[has_parent]
        op_id = self._intern(OP_SPAN)
        roots = a["name_id"] == op_id
        if np.any(~has_parent & ~roots) or np.any(has_parent & roots):
            raise RuntimeError("trace: span outside an operation")
        if np.any(a["start"][has_parent] < a["start"][pidx]) or np.any(
            a["end"][has_parent] > a["end"][pidx]
        ):
            raise RuntimeError("trace: child span leaves its parent's interval")
        self_s = dur.copy()
        np.subtract.at(self_s, pidx, dur[has_parent])
        op_total = float(dur[roots].sum())
        gap = abs(float(self_s.sum()) - op_total)
        if gap > 1e-9 * max(op_total, 1e-9) + 1e-12:
            raise RuntimeError(f"trace: self times miss op time by {gap} s")
        n_names = len(self.names)
        n_ops = int(roots.sum())
        calls = np.bincount(a["name_id"][:count_cut], minlength=n_names)
        self_total = np.bincount(a["name_id"], weights=self_s, minlength=n_names)
        return {
            "ops": n_ops,
            "op_seconds": op_total,
            "self_sum_gap_s": gap,
            "calls_per_op": {
                name: float(calls[i]) / count_ops for i, name in enumerate(self.names)
            },
            "self_s_per_op": {
                name: float(self_total[i]) / n_ops for i, name in enumerate(self.names)
            },
            "self_share": {
                name: float(self_total[i]) / op_total for i, name in enumerate(self.names)
            },
        }

    def write(self, path: str, ops: int) -> None:
        """Write the spans of operations 0 .. ops-1, compressed."""
        a = self.arrays()
        keep = a["op"] < ops
        np.savez_compressed(path, names=np.array(self.names), **{k: v[keep] for k, v in a.items()})
