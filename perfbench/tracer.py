"""Outside-in tracer for phaselab's layer modules.

The tracer never edits the package.  `Tracer.install()` replaces, from the
outside, every public function of each layer module and every public method
and dataclass `__post_init__` validator of the classes those modules define
with a wrapper that records a span.  Functions copied into another module by
`from .x import y` (for example `phaselab.cli.propagate`, or
`phaselab.evolution.mat_exp`) are rebound too, so a call is attributed to the
layer that defines the code no matter which module calls it.
`Tracer.uninstall()` puts every original back.

A span is `(name, start, end, parent, call)`: `parent` is the index of the
enclosing span (-1 for a root), `call` the index of the CLI call the span
belongs to.  Spans stay in memory until `write()` dumps them as JSON lines.
Self time of a span is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

LAYERS = ("linalg", "evolution", "phases", "gauge", "mixed", "numerics", "spin_model", "cli")

# Span groups the per-layer metrics single out (BENCHMARK.json `per_layer`).
GROUPS = {
    "evolution.propagate": ("evolution.propagate",),
    "evolution.sample": ("evolution.HamiltonianTrajectory.sample",),
    "evolution.validate": (
        "evolution.PropagatorPath.__post_init__",
        "evolution.AmplitudePath.__post_init__",
    ),
    "gauge.gauge_function": ("gauge.GaugeFunction.value", "gauge.GaugeFunction.derivative"),
    "gauge.apply_gauge": ("gauge.apply_gauge",),
    "gauge.frame_trace": ("gauge.frame_trace",),
    "mixed.transform_evolution": ("mixed.transform_evolution",),
    "mixed.transport_conditions": ("mixed.transport_conditions",),
    "mixed.purification": ("mixed.purify", "mixed.reduce", "mixed.hidden_gauge_transform"),
    "cli.build_parser": ("cli.build_parser",),
    "cli.build_scenario": ("cli.build_scenario",),
    "cli.load_sampled_hamiltonian": ("cli.load_sampled_hamiltonian",),
    "cli.serialize": ("cli.write_records", "cli.write_table"),
}

COMPLEX_BYTES = 16


def _propagate_counts(path):
    return {"steps": path.grid.steps, "propagator_bytes": path.matrices.size * COMPLEX_BYTES}


def _sample_counts(samples):
    return {"nodes_sampled": samples.shape[0]}


def _scenario_counts(scenario):
    return {"scenario_nodes": scenario.grid.steps + 1}


# Counters recorded from a span's return value: name -> f(result) -> {counter: amount}.
METERS = {
    "evolution.propagate": _propagate_counts,
    "evolution.HamiltonianTrajectory.sample": _sample_counts,
    "cli.build_scenario": _scenario_counts,
}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = {layer: getattr(package, layer) for layer in LAYERS}
        self.spans: list[tuple] = []
        self.counters: dict[str, list] = defaultdict(list)  # counter -> per-span amounts
        self.call = 0
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- installation -------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, meter = self.spans, self._stack, METERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.call)
            if meter is not None:
                for counter, amount in meter(result).items():
                    self.counters[counter].append(amount)
            return result

        return functools.wraps(fn)(traced)

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrapped = {}  # id(original function) -> wrapper
        for layer, module in self.modules.items():
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(layer, obj)
                elif callable(obj) and not attr.startswith("_"):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        # Rebind the original and every `from .x import y` copy of it.
        for module in (self.package, *self.modules.values()):
            for attr, obj in list(vars(module).items()):
                if callable(obj) and not isinstance(obj, type) and id(obj) in wrapped:
                    self._set(module, attr, wrapped[id(obj)])
        return self

    def _wrap_class(self, layer, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__post_init__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(obj, (classmethod, staticmethod)):
                self._set(cls, attr, type(obj)(self._wrap(name, obj.__func__)))
            elif callable(obj) and not isinstance(obj, type):
                self._set(cls, attr, self._wrap(name, obj))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_metrics(self, traced_wall: float, untraced_wall: float) -> dict:
        """Per-layer metrics (BENCHMARK.json `per_layer`) from the recorded spans."""
        own = self.self_times()
        self_s = defaultdict(float)
        calls = defaultdict(int)
        inclusive = defaultdict(float)
        for (name, start, end, _, _), t in zip(self.spans, own):
            layer = name.split(".", 1)[0]
            self_s[layer] += t
            calls[layer] += 1
            self_s[name] += t
            calls[name] += 1
            inclusive[name] += end - start
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.calls"] = calls[layer]
        for group, names in GROUPS.items():
            out[f"{group}.self_s"] = sum(self_s[n] for n in names)
            out[f"{group}.calls"] = sum(calls[n] for n in names)
        count = {key: sum(values) for key, values in self.counters.items()}
        steps = count.get("steps", 0)
        out["evolution.steps"] = steps
        out["evolution.ns_per_step"] = 1e9 * inclusive["evolution.propagate"] / steps if steps else 0.0
        out["evolution.nodes_sampled"] = count.get("nodes_sampled", 0)
        scenario_nodes = count.get("scenario_nodes", 0)
        out["evolution.samples_per_scenario"] = (
            count.get("nodes_sampled", 0) / scenario_nodes if scenario_nodes else 0.0
        )
        out["evolution.propagator_mb"] = max(self.counters.get("propagator_bytes", [0])) / 1e6
        attributed = sum(self_s[layer] for layer in LAYERS)
        out["trace.overhead_ratio"] = traced_wall / untraced_wall if untraced_wall else 0.0
        out["trace.unattributed_ratio"] = (traced_wall - attributed) / traced_wall if traced_wall else 0.0
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, call in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "call": call}) + "\n")
