"""Span recorder for the traced benchmark run.

`install` wraps the public entry points of each joubert2 layer from outside
the package: every wrapped call becomes a span (id, parent, name, start,
end) kept in memory until the run ends.  Per-element scalar arithmetic
(`mul_val`, `add_val`, `FElt` operators) stays unwrapped on purpose: a
wrapper costs about as much as such a call, so its time shows as self time
of the calling layer and the micro-benchmarks measure it instead.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
import types
from collections import Counter, defaultdict

# layer module -> traced names; "Class.method" names a method
TRACED = {
    "cli": ["main"],
    "checks": ["verify_all_checks"],  # plus every check_* function
    "report": ["emit_json"],
    "jsearch": ["find_joubert_generator", "count_joubert_generators",
                "enumerate_joubert_polys", "hermite_search",
                "explore_trace_conditions"],
    "ascurve": ["curve_census", "trace_identity_check",
                "good_fiber_witness"],
    "cubic": ["surface_census", "build_frame", "cubic_form",
              "smoothness_scan"],
    "obstruct": ["build_group", "choose_char_field", "eigen_decomposition",
                 "block_indicators", "invariant_planes", "no_plane_in_x",
                 "brute_force_oracle"],
    "fpoly": ["is_irreducible", "min_poly", "char_poly", "char_poly_det",
              "compress_poly", "format_poly", "parse_poly"],
    "sigma": ["sigma_profile", "is_generator", "is_joubert", "power_traces",
              "trace_conditions"],
    "fastscan": ["run_chunked", "span_vals", "Gf2Scan.mul",
                 "Gf2Scan.square", "Gf2Scan.cube", "Gf2Scan.reduce_wide",
                 "ExtScan.frob", "ExtScan.trace", "ExtScan.power"],
}

# modules whose self time the summary reports
LAYERS = ["jsearch", "cubic", "ascurve", "obstruct", "fpoly", "sigma",
          "fastscan", "checks", "report", "cli"]


def _layer_of(fn) -> str:
    return getattr(fn, "__module__", "").rsplit(".", 1)[-1]


class Tracer:
    """Spans of one process.  `list.append` and `next` on a counter are
    single calls under the interpreter lock, so worker threads may record
    spans without a lock of their own."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.chunked: list[tuple[int, int]] = []  # run_chunked span, threads
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, parent: int | None = None):
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else 0
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    def wrap_run_chunked(self, run_chunked):
        """run_chunked whose chunk callables become child spans, also when
        they run on worker threads."""
        sig = inspect.signature(run_chunked)

        @functools.wraps(run_chunked)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            inner = bound.arguments["fn"]
            name = _layer_of(inner) + ".chunk"

            def body():
                parent = self._stack()[-1]
                self.chunked.append((parent, bound.arguments["threads"]))
                bound.arguments["fn"] = lambda lo, hi: self.call(
                    name, inner, (lo, hi), {}, parent)
                return run_chunked(*bound.args, **bound.kwargs)

            return self.call("fastscan.run_chunked", body, (), {})
        return traced

    def summary(self) -> dict[str, float]:
        """Self time per layer, calls per traced name, run_chunked load."""
        by_id = {s[0]: s for s in self.spans}
        children = defaultdict(list)
        for sid, parent, _, start, end in self.spans:
            children[parent].append((start, end))
        self_s = Counter({layer: 0.0 for layer in LAYERS})
        calls = Counter()
        for sid, _, name, start, end in self.spans:
            calls[name] += 1
            self_s[name.split(".")[0]] += (
                end - start - _covered(start, end, children[sid]))
        out = {f"{layer}.self_s": v for layer, v in self_s.items()}
        out.update({f"{name}.calls": n for name, n in sorted(calls.items())})
        wall = busy = capacity = 0.0
        chunks = 0
        for sid, threads in self.chunked:
            _, _, _, start, end = by_id[sid]
            wall += end - start
            capacity += (end - start) * threads
            busy += sum(e - s for s, e in children[sid])
            chunks += len(children[sid])
        out["trace.fastscan.run_chunked.busy_s"] = busy
        out["trace.fastscan.run_chunked.chunks"] = chunks
        out["trace.fastscan.run_chunked.parallel_eff"] = (
            busy / capacity if capacity else 0.0)
        out["trace.spans"] = len(self.spans)
        return out


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the intervals, so that
    child spans running in parallel are not counted twice."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def install(tracer: Tracer) -> list[str]:
    """Replace each traced function by its wrapper wherever a joubert2
    module binds it: its own module, modules that imported it by name, and
    dicts such as `report.EMITTERS`.  Returns the traced names the program
    no longer defines.  The child process that installs it exits after one
    run, so nothing is ever unwrapped."""
    swaps = {}
    missing = []
    for mod_name, names in TRACED.items():
        mod = sys.modules.get(f"joubert2.{mod_name}")
        if mod is None:
            missing.append(mod_name)
            continue
        if mod_name == "checks":
            names = names + [n for n in vars(mod) if n.startswith("check_")]
        for name in names:
            owner, attr = mod, name
            if "." in name:
                cls, attr = name.split(".")
                owner = getattr(mod, cls, None)
            fn = vars(owner).get(attr) if owner is not None else None
            if not isinstance(fn, types.FunctionType):
                missing.append(f"{mod_name}.{name}")
                continue
            label = f"{mod_name}.{name}"
            if label == "fastscan.run_chunked":
                wrapped = tracer.wrap_run_chunked(fn)
            else:
                wrapped = tracer.wrap(label, fn)
            setattr(owner, attr, wrapped)
            swaps[fn] = wrapped
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "joubert2" and not mod_name.startswith("joubert2."):
            continue
        for attr, val in list(vars(mod).items()):
            if isinstance(val, types.FunctionType) and val in swaps:
                setattr(mod, attr, swaps[val])
            elif isinstance(val, dict):
                for key, item in list(val.items()):
                    if isinstance(item, types.FunctionType) and item in swaps:
                        val[key] = swaps[item]
    return missing
