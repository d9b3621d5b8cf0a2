"""Spans and counters recorded around calls into adaptrack's layers.

The tracer never edits the package.  `install` replaces each traced function
with a wrapper in every adaptrack module namespace that binds it (so
`from .linsys import rk4_step` copies are covered too); `uninstall` puts the
original objects back.  Spans are kept in memory and summarised per layer
after the pass; a layer's self time is its span minus the child spans that
ran inside it.
"""

from __future__ import annotations

import importlib
import inspect
import time

MODULES = ("cli", "harness", "benchmarks", "engine", "linsys", "siso", "mimo",
           "feedback_lin", "signals")

# layer name -> functions (module, attribute) whose calls open a span of it
LAYERS = {
    "harness.load": [("harness", "load_scenario"), ("harness", "scenario_from_dict"),
                     ("benchmarks", "build")],
    "harness.run_experiment": [("harness", "run_experiment")],
    "oracle": [("siso", "nominal_params"), ("mimo", "nominal_params"),
               ("feedback_lin", "benchmark_theta_star")],
    "linsys.ref_input_from_io": [("linsys", "ref_input_from_io")],
    "engine.loop": [("engine", "run_closed_loop")],
    "feedback_lin.loop": [("feedback_lin", "run")],
    "probes": [("feedback_lin", "certificate")],
    "harness.metrics": [("harness", "compute_metrics")],
    "harness.emit": [("harness", "emit_outputs")],
}


class _Frame:
    __slots__ = ("layer", "start", "child", "counts")

    def __init__(self, layer):
        self.layer = layer
        self.start = time.perf_counter()
        self.child = 0.0
        self.counts = {}


class Tracer:
    """Installs span wrappers on adaptrack module attributes."""

    def __init__(self):
        self.spans = []  # (layer, duration_s, self_s, counts)
        self._stack = []
        self._saved = []  # (module, attribute, original)

    # -- spans -------------------------------------------------------------

    def _open(self, layer):
        frame = _Frame(layer)
        self._stack.append(frame)
        return frame

    def _close(self, frame):
        dur = time.perf_counter() - frame.start
        self._stack.pop()
        if self._stack:
            self._stack[-1].child += dur
        self.spans.append((frame.layer, dur, dur - frame.child, frame.counts))

    def _span_wrapper(self, layer, fn, after=None):
        def wrapper(*args, **kwargs):
            # a layer calling into itself (load_scenario -> scenario_from_dict)
            # stays one span
            if self._stack and self._stack[-1].layer == layer:
                return fn(*args, **kwargs)
            frame = self._open(layer)
            try:
                out = fn(*args, **kwargs)
                if after is not None:
                    after(frame.counts, args, kwargs, out)
                return out
            finally:
                self._close(frame)

        return wrapper

    def _engine_loop(self, fn):
        sig = inspect.signature(fn)
        loop = self._span_wrapper("engine.loop", fn, after=_count_steps)

        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            arg = bound.arguments
            if arg.get("vprobe") is not None:
                arg["vprobe"] = self._span_wrapper("probes", arg["vprobe"])
            if arg.get("probes"):
                arg["probes"] = {k: self._span_wrapper("probes", p)
                                 for k, p in arg["probes"].items()}
            return loop(*bound.args, **bound.kwargs)

        return wrapper

    def _rk4(self, fn):
        def wrapper(f, *args, **kwargs):
            calls = 0

            def counted(*a):
                nonlocal calls
                calls += 1
                return f(*a)

            out = fn(counted, *args, **kwargs)
            for frame in self._stack:
                c = frame.counts
                c["rk4_steps"] = c.get("rk4_steps", 0) + 1
                c["rhs"] = c.get("rhs", 0) + calls
            return out

        return wrapper

    # -- installation --------------------------------------------------------

    def _targets(self):
        for layer, funcs in LAYERS.items():
            for mod, attr in funcs:
                original = getattr(_module(mod), attr)
                if layer == "engine.loop":
                    yield original, self._engine_loop(original)
                else:
                    after = {"feedback_lin.loop": _count_steps,
                             "harness.emit": _count_emit}.get(layer)
                    yield original, self._span_wrapper(layer, original, after)
        rk4 = _module("linsys").rk4_step
        yield rk4, self._rk4(rk4)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        namespaces = [_module(m) for m in MODULES]
        for original, wrapper in self._targets():
            for mod in namespaces:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- summary -------------------------------------------------------------

    def layer_metrics(self):
        """Per-layer totals of the recorded spans (see README for the map)."""
        tot = {}
        for layer, dur, self_s, counts in self.spans:
            t = tot.setdefault(layer, {"s": 0.0, "self_s": 0.0, "calls": 0})
            t["s"] += dur
            t["self_s"] += self_s
            t["calls"] += 1
            for k, v in counts.items():
                t[k] = t.get(k, 0) + v

        def get(layer, key):
            return tot.get(layer, {}).get(key, 0)

        def per(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        eng_steps = get("engine.loop", "steps")
        fl_steps = get("feedback_lin.loop", "steps")
        return {
            "harness.load.s": get("harness.load", "s"),
            "harness.load.calls": get("harness.load", "calls"),
            "oracle.s": get("oracle", "s"),
            "oracle.calls": get("oracle", "calls"),
            "linsys.ref_input_from_io.s": get("linsys.ref_input_from_io", "s"),
            "linsys.ref_input_from_io.calls": get("linsys.ref_input_from_io", "calls"),
            "linsys.ref_input_from_io.rk4_steps": get("linsys.ref_input_from_io", "rk4_steps"),
            "engine.loop.s": get("engine.loop", "s"),
            "engine.loop.self_s": get("engine.loop", "self_s"),
            "engine.steps": eng_steps,
            "engine.us_per_step": per(get("engine.loop", "self_s"), eng_steps, 1e6),
            "engine.rhs_per_step": per(get("engine.loop", "rhs"), eng_steps),
            "probes.s": get("probes", "s"),
            "probes.calls": get("probes", "calls"),
            "feedback_lin.loop.s": get("feedback_lin.loop", "s"),
            "feedback_lin.steps": fl_steps,
            "feedback_lin.us_per_step": per(get("feedback_lin.loop", "self_s"), fl_steps, 1e6),
            "feedback_lin.rhs_per_step": per(get("feedback_lin.loop", "rhs"), fl_steps),
            "feedback_lin.guard_events": get("feedback_lin.loop", "guard_events"),
            "harness.run_experiment.self_s": get("harness.run_experiment", "self_s"),
            "harness.metrics.s": get("harness.metrics", "s"),
            "harness.emit.s": get("harness.emit", "s"),
            "harness.emit.bytes": get("harness.emit", "bytes"),
            "harness.emit.us_per_row": per(get("harness.emit", "s"),
                                           get("harness.emit", "rows"), 1e6),
        }


def _module(name):
    return importlib.import_module(f"adaptrack.{name}")


def _count_steps(counts, args, kwargs, trace):
    counts["steps"] = trace.n_samples
    counts["guard_events"] = len(trace.guard_events)


def _count_emit(counts, args, kwargs, paths):
    trace = args[0] if args else kwargs["trace"]
    counts["rows"] = trace.n_samples
    counts["bytes"] = sum(p.stat().st_size for p in paths.values())
