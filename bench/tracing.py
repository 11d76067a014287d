"""Timing wrappers installed on toricstab's public functions from outside.

The tracer replaces each target function in every toricstab module that
holds it (so names imported directly, such as polytopes.det_int or
workbench.beta_invariant, are wrapped too) and each target method on its
class.  Every call becomes a span: name, start, end and parent span, kept
in flat in-memory arrays and written out once the run ends.  Self time is a
span's duration minus the durations of its child spans; the inclusive time
of a name counts only its outermost spans, so recursion is not counted twice.
"""

from __future__ import annotations

import gzip
import json
import math
import sys
import time
from array import array
from collections import defaultdict
from functools import wraps

# (module, attribute) pairs; "Class" wraps the constructor, "Class.method" a method
TARGETS = (
    ("lattice", "det_int"),
    ("lattice", "det"),
    ("lattice", "matrix_rank"),
    ("lattice", "matrix_inverse"),
    ("lattice", "solve_linear"),
    ("polytopes", "enumerate_vertices"),
    ("polytopes", "triangulate"),
    ("polytopes", "RationalPolytope"),
    ("polytopes", "RationalPolytope.sliced"),
    ("polytopes", "RationalPolytope.volume"),
    ("polytopes", "RationalPolytope.barycenter"),
    ("piecewise", "lagrange_interpolate"),
    ("piecewise", "midpoint_root_concave"),
    ("piecewise", "nth_root_bounds"),
    ("fans", "Fan"),
    ("fans", "Fan.anticanonical_polytope"),
    ("fans", "Fan.star_subdivision"),
    ("valuations", "volume_function"),
    ("valuations", "nef_threshold"),
    ("valuations", "log_discrepancy"),
    ("valuations", "pseff_threshold"),
    ("valuations", "beta_invariant"),
    ("valuations", "valuation_profile"),
    ("valuations", "certify_extremal_volume"),
    ("valuations", "certify_equality_case"),
    ("alpha", "alpha_invariant"),
    ("workbench", "parse_fan_spec"),
    ("workbench", "valuation_battery"),
    ("workbench", "analyze"),
    ("workbench", "report_json"),
    ("workbench", "screen_projective_space"),
)

JOB = "job"
PACKAGE = "toricstab"


def layer_name(module: str, attr: str) -> str:
    """'fans.Fan' for a constructor, 'polytopes.sliced' for a method."""
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    """Spans and per-name aggregates for calls into toricstab."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = [JOB] + [layer_name(m, a) for m, a in TARGETS]
        self._ids = {name: i for i, name in enumerate(self.names)}
        k = len(self.names)
        self.calls = [0] * k
        self.self_s = [0.0] * k
        self.inclusive_s = [0.0] * k
        self._active = [0] * k
        self.counters: dict[str, int] = defaultdict(int)
        self.caches: dict[str, object] = {}  # lru_cache'd targets by span name
        self.cache_start: dict[str, tuple[int, int]] = {}
        # span columns
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, time covered by children]
        self._restore: list[tuple[object, str, object]] = []
        self._hooks = self._work_counters()
        self.run_job = self._wrap(0, lambda fn, *args: fn(*args))

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; uninstall() puts the originals back."""
        prefix = PACKAGE + "."
        modules = {
            name: mod for name, mod in list(sys.modules.items())
            if name == PACKAGE or name.startswith(prefix)
        }
        for module_name, attr in TARGETS:
            name = layer_name(module_name, attr)
            owner_name, _, method = attr.partition(".")
            owner = getattr(modules[prefix + module_name], owner_name)
            if method:
                self._patch(owner, method, self._wrap(self._ids[name], vars(owner)[method]))
            elif isinstance(owner, type):
                self._patch(owner, "__init__", self._wrap(self._ids[name], vars(owner)["__init__"]))
            else:
                wrapper = self._wrap(self._ids[name], owner)
                for mod in modules.values():
                    for key, value in list(vars(mod).items()):
                        if value is owner:
                            self._patch(mod, key, wrapper)
                if hasattr(owner, "cache_info"):
                    info = owner.cache_info()
                    self.caches[name] = owner
                    self.cache_start[name] = (info.hits, info.misses)

    def _patch(self, target, attr: str, value) -> None:
        self._restore.append((target, attr, vars(target)[attr]))
        setattr(target, attr, value)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    # -- spans -----------------------------------------------------------------

    def _wrap(self, name_id: int, fn):
        stack = self._stack
        active = self._active
        calls, self_s, inclusive = self.calls, self.self_s, self.inclusive_s
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        hook = self._hooks.get(self.names[name_id])
        clock = self.clock

        @wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1][0] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            active[name_id] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[name_id] -= 1
                duration = t1 - t0
                starts[index] = t0
                ends[index] = t1
                calls[name_id] += 1
                self_s[name_id] += duration - frame[1]
                if not active[name_id]:
                    inclusive[name_id] += duration
                if stack:
                    stack[-1][1] += duration
            if hook is not None:
                hook(args, result, not active[name_id])
            return result

        return wrapper

    # -- work counters -----------------------------------------------------------

    def _in_screen(self) -> bool:
        screen = self._ids["workbench.screen_projective_space"]
        return any(self.span_name[index] == screen for index, _ in self._stack)

    def _work_counters(self) -> dict:
        """Hooks run after a successful call: (args, result, outermost) -> None."""
        counters = self.counters

        def vertex_subsets(args, result, outermost):
            counters["polytopes.vertex_subsets"] += math.comb(len(args[0]), args[1])

        def simplices(args, result, outermost):
            if outermost:
                counters["polytopes.simplices"] += len(result)

        def battery(args, result, outermost):
            counters["workbench.valuation_battery.size"] += len(result)
            if self._in_screen():
                counters["screen.valuations"] += len(result)

        def beta(args, result, outermost):
            if self._in_screen():
                counters["screen.betas"] += 1

        return {
            "polytopes.enumerate_vertices": vertex_subsets,
            "polytopes.triangulate": simplices,
            "workbench.valuation_battery": battery,
            "valuations.beta_invariant": beta,
        }

    # -- results -----------------------------------------------------------------

    def layer_table(self) -> dict[str, dict]:
        """calls, self_s and inclusive_s for every traced name."""
        return {
            name: {"calls": self.calls[i], "self_s": self.self_s[i],
                   "inclusive_s": self.inclusive_s[i]}
            for i, name in enumerate(self.names)
        }

    def cache_stats(self, name: str) -> tuple[float, int]:
        """(hit ratio since install, current size) of an lru_cache'd target."""
        info = self.caches[name].cache_info()
        hits0, misses0 = self.cache_start[name]
        lookups = info.hits - hits0 + info.misses - misses0
        return ((info.hits - hits0) / lookups if lookups else 0.0), info.currsize

    def write(self, path, header: dict) -> int:
        """Write every span as gzip JSON lines; returns the span count."""
        origin = self.span_start[0] if len(self.span_start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({**header, "names": self.names,
                                 "fields": ["span", "name", "parent", "start_s", "end_s"]}) + "\n")
            fh.writelines(
                f"[{i},{name},{parent},{start - origin:.7f},{end - origin:.7f}]\n"
                for i, (name, parent, start, end) in enumerate(zip(
                    self.span_name, self.span_parent, self.span_start, self.span_end))
            )
        return len(self.span_start)
