"""Per-layer tracing from outside the program.

`Tracer.install` wraps every public function of the layer modules (and
`__post_init__`, which builds an `HPolytope`) and puts the wrapper at every
module attribute that binds the function, so a `from .x import f` binding
is traced as well.  `kernel.dot` is left alone: it is called millions of
times and its cost belongs to its callers.

Each wrapper opens a span whose parent is the innermost open span.  Spans
are folded into aggregates as they close instead of being kept, so memory
stays flat however many calls an operation makes:

* calls per (function, parent function), for the work counts;
* layer self time: span duration minus the durations of its child spans;
* stage time: a few functions mark a stage (building the polytope, each
  classification route, ...); a stage's time is its span's duration minus
  the nested stage spans, so the stages partition the operation's time.

`layer_metrics` turns the aggregates of one round into the per-layer
metrics listed in README.md.
"""

from __future__ import annotations

import inspect
import sys
import time
import types
from collections import defaultdict

LAYERS = ("polytope", "formats", "classify", "fan", "skeleton", "illuminate",
          "oracle", "position", "lp", "kernel", "cli")
UNTRACED = {"kernel.dot"}
PARSE = {"parse_polytope", "parse_directions", "doc_to_polytope", "strings_to_vector"}
STAGES = {
    "cli.run_command": "cli",
    "polytope.HPolytope.__post_init__": "polytope.build",
    "classify.validate_normal_set": "classify.validate",
    "classify.check_strong_monotypy": "classify.strong",
    "classify.check_monotypy": "classify.conical",
    "classify.check_monotypy_mss": "classify.mss",
    "fan.enumerate_primitive_bases": "fan.bases",
    "fan.verify_fan_uniqueness": "fan.overlap",
    "skeleton.extract_skeleton": "skeleton.extract",
    "illuminate.build_illumination_set": "illuminate.build",
    "illuminate.verify_illumination": "illuminate.verify",
    "illuminate.verify_directions": "illuminate.verify",
    "oracle.enumerate_direction_classes": "oracle.classes",
    "oracle.min_illumination_number": "oracle.cover",
}


def _stage(fid: str):
    layer, _, name = fid.partition(".")
    if layer == "formats":
        return "formats.parse" if name in PARSE else "formats.dump"
    return STAGES.get(fid)


def _traceable(value, module_name: str) -> bool:
    is_function = isinstance(value, types.FunctionType) or hasattr(value, "cache_info")
    return is_function and getattr(value, "__module__", None) == module_name


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)        # "fid<parent" -> count
        self.layer_ns = defaultdict(int)
        self.stage_ns = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack = []                     # (fid, [child_ns])
        self._stages = []                    # [nested_stage_ns] of open stage spans
        self._hooks = {
            "lp.solve_eq_nonneg": self._lp_result,
            "polytope.HPolytope.__post_init__": self._built,
            "oracle.enumerate_direction_classes": self._cells,
            "illuminate.build_illumination_set": self._directions,
        }

    # -- result hooks: outcome counts read from public return values ---------

    def _lp_result(self, result, args):
        self.counts["lp.feasible_results"] += result is not None

    def _built(self, result, args):
        self.counts["polytope.vertices"] += len(args[0].vertices)

    def _cells(self, result, args):
        self.counts["oracle.cells"] += len(result)

    def _directions(self, result, args):
        self.counts["illuminate.directions"] += len(result.directions)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, fid: str):
        layer = fid.partition(".")[0]
        stage = _stage(fid)
        hook = self._hooks.get(fid)
        stack, stages, calls = self._stack, self._stages, self.calls
        layer_ns, stage_ns = self.layer_ns, self.stage_ns
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else ""
            frame = [0]
            stack.append((fid, frame))
            if stage:
                nested = [0]
                stages.append(nested)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                layer_ns[layer] += duration - frame[0]
                if stack:
                    stack[-1][1][0] += duration
                if stage:
                    stages.pop()
                    stage_ns[stage] += duration - nested[0]
                    if stages:
                        stages[-1][0] += duration
                calls[f"{fid}<{parent}"] += 1
            if hook:
                hook(result, args)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", fid)
        return traced

    def install(self, package: str = "polyillum") -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for name, value in vars(module).items():
                if not name.startswith("_") and _traceable(value, module.__name__):
                    fid = f"{layer}.{value.__qualname__}"
                    if fid not in UNTRACED:
                        wrappers[id(value)] = self._wrap(value, fid)
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    self._wrap_methods(value, layer)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == package or name.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])

    def _wrap_methods(self, cls, layer: str) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name != "__post_init__":
                continue
            fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
            if not isinstance(fn, types.FunctionType):
                continue
            wrapped = self._wrap(fn, f"{layer}.{fn.__qualname__}")
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(wrapped)
            elif isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            setattr(cls, name, wrapped)

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "layer_ns": dict(self.layer_ns),
                "stage_ns": dict(self.stage_ns), "counts": dict(self.counts)}


def merge(snapshots) -> dict:
    """Sum the aggregates of several operations."""
    total = {"calls": defaultdict(int), "layer_ns": defaultdict(int),
             "stage_ns": defaultdict(int), "counts": defaultdict(int)}
    for snap in snapshots:
        for part, values in snap.items():
            for key, value in values.items():
                total[part][key] += value
    return total


# (name, unit) of every per-layer metric, in output order.
METRICS = [
    ("polytope.build_ms", "ms"), ("polytope.vertex_candidates", "count"),
    ("polytope.vertices", "count"), ("polytope.vertex_yield", "ratio"),
    ("classify.validate_ms", "ms"), ("classify.strong_ms", "ms"),
    ("classify.conical_ms", "ms"), ("classify.subsets_tested", "count"),
    ("classify.mss_ms", "ms"), ("classify.primitive_tests", "count"),
    ("classify.pair_lps", "count"),
    ("fan.bases_ms", "ms"), ("fan.overlap_ms", "ms"), ("fan.overlap_lps", "count"),
    ("skeleton.extract_ms", "ms"), ("skeleton.sign_classifications", "count"),
    ("skeleton.capture_lps", "count"),
    ("illuminate.build_ms", "ms"), ("illuminate.assign_lps", "count"),
    ("illuminate.directions", "count"), ("illuminate.verify_ms", "ms"),
    ("oracle.classes_ms", "ms"), ("oracle.sign_vectors", "count"),
    ("oracle.cells", "count"), ("oracle.cell_yield", "ratio"), ("oracle.cover_ms", "ms"),
    ("position.ms", "ms"), ("position.cone_membership_calls", "count"),
    ("position.conical_calls", "count"), ("position.primitive_calls", "count"),
    ("lp.ms", "ms"), ("lp.solves", "count"), ("lp.feasible_calls", "count"),
    ("lp.feasible_ratio", "ratio"),
    ("kernel.ms", "ms"), ("kernel.linear_solves", "count"), ("kernel.rank_calls", "count"),
    ("formats.parse_ms", "ms"), ("formats.dump_ms", "ms"), ("cli.ms", "ms"),
]


def layer_metrics(agg: dict) -> dict:
    """Per-layer metric values of one round's merged aggregates."""
    calls, counts = agg["calls"], agg["counts"]

    def n(fid, parent=None):
        return sum(c for key, c in calls.items()
                   if key.partition("<")[0] == fid
                   and (parent is None or key.partition("<")[2].startswith(parent)))

    def stage(name):
        return agg["stage_ns"].get(name, 0) / 1e6

    def layer(name):
        return agg["layer_ns"].get(name, 0) / 1e6

    def ratio(a, b):
        return a / b if b else 0.0

    candidates = n("kernel.solve_rows", "polytope.HPolytope.__post_init__")
    sign_vectors = n("lp.feasible", "oracle.enumerate_direction_classes")
    solves = n("lp.solve_eq_nonneg")
    values = {
        "polytope.build_ms": stage("polytope.build"),
        "polytope.vertex_candidates": candidates,
        "polytope.vertices": counts.get("polytope.vertices", 0),
        "polytope.vertex_yield": ratio(counts.get("polytope.vertices", 0), candidates),
        "classify.validate_ms": stage("classify.validate"),
        "classify.strong_ms": stage("classify.strong"),
        "classify.conical_ms": stage("classify.conical"),
        "classify.subsets_tested": n("position.is_conical_position", "classify."),
        "classify.mss_ms": stage("classify.mss"),
        "classify.primitive_tests": n("position.is_primitive", "classify.check_monotypy_mss"),
        "classify.pair_lps": n("lp.solve_eq_nonneg", "classify.check_monotypy_mss"),
        "fan.bases_ms": stage("fan.bases"),
        "fan.overlap_ms": stage("fan.overlap"),
        "fan.overlap_lps": n("lp.solve_eq_nonneg", "fan.verify_fan_uniqueness"),
        "skeleton.extract_ms": stage("skeleton.extract"),
        "skeleton.sign_classifications": n("position.classify_signs", "skeleton."),
        "skeleton.capture_lps": n("position.cone_membership", "skeleton."),
        "illuminate.build_ms": stage("illuminate.build"),
        "illuminate.assign_lps": n("position.cone_membership",
                                   "illuminate.build_illumination_set"),
        "illuminate.directions": counts.get("illuminate.directions", 0),
        "illuminate.verify_ms": stage("illuminate.verify"),
        "oracle.classes_ms": stage("oracle.classes"),
        "oracle.sign_vectors": sign_vectors,
        "oracle.cells": counts.get("oracle.cells", 0),
        "oracle.cell_yield": ratio(counts.get("oracle.cells", 0), sign_vectors),
        "oracle.cover_ms": stage("oracle.cover"),
        "position.ms": layer("position"),
        "position.cone_membership_calls": n("position.cone_membership"),
        "position.conical_calls": n("position.is_conical_position"),
        "position.primitive_calls": n("position.is_primitive"),
        "lp.ms": layer("lp"),
        "lp.solves": solves,
        "lp.feasible_calls": n("lp.feasible"),
        "lp.feasible_ratio": ratio(counts.get("lp.feasible_results", 0), solves),
        "kernel.ms": layer("kernel"),
        "kernel.linear_solves": n("kernel.solve_linear") + n("kernel.solve_rows"),
        "kernel.rank_calls": n("kernel.rank"),
        "formats.parse_ms": stage("formats.parse"),
        "formats.dump_ms": stage("formats.dump"),
        "cli.ms": stage("cli"),
    }
    return {name: values[name] for name, _ in METRICS}
