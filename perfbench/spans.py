"""In-memory span recorder for the traced run.

Wraps public functions of the persuade modules by rebinding module
attributes.  Every module of the package that holds the same function
object under any name is rebound too, so calls made inside a module by
bare name (``expand_typed`` inside ``model.is_symmetric``) and names
imported with ``from .model import ensure_valid`` are caught as well.
Spans stay in memory until the run ends; per-layer totals are computed
from them, and they are written out as JSON lines.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, function, span name).  Several functions may share one span
# name; a layer's self time is the sum over its spans.
TRACED = (
    ("lp", "solve", "lp.solve"),
    ("lp", "certify_report", "lp.certify_report"),
    ("model", "expand_typed", "model.expand_typed"),
    ("model", "is_symmetric", "model.is_symmetric"),
    ("model", "ensure_valid", "model.ensure_valid"),
    ("single", "build_lp", "single.build_lp"),
    ("single", "find_lambda_star", "single.fast_paths"),
    ("single", "canonical_symmetric_scheme", "single.fast_paths"),
    ("single", "canonical_two_action_scheme", "single.fast_paths"),
    ("single", "nonnegative_dichotomy", "single.fast_paths"),
    ("multi", "build_lp_binary", "multi.build_lp_binary"),
    ("multi", "solve_budget_balanced", "multi.fast_paths"),
    ("multi", "solve_arbitrary", "multi.fast_paths"),
    ("multi", "recover_payments", "multi.fast_paths"),
    ("reduction", "cutting_plane_solve", "reduction.cutting_plane_solve"),
    ("jsonio", "load_instance", "jsonio.load_instance"),
    ("jsonio", "save_json", "jsonio.save_json"),
    ("cli", "main", "cli.main"),
)

SELF_TIME_LAYERS = tuple(dict.fromkeys(name for _, _, name in TRACED))


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "child", "info")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.child = 0  # ns covered by direct children
        self.info = None

    def as_dict(self, index):
        return {
            "id": index,
            "name": self.name,
            "start_ns": self.start,
            "end_ns": self.end,
            "parent": self.parent,
            "op": self.op,
            "info": self.info,
        }


def _lp_info(args, kwargs, result):
    problem = args[0] if args else kwargs["problem"]
    return {"pivots": result.iterations, "rows": len(problem.constraints)}


def _cutting_plane_info(args, kwargs, result):
    return {"rounds": result.rounds}


INFO = {
    "lp.solve": _lp_info,
    "reduction.cutting_plane_solve": _cutting_plane_info,
}


class Recorder:
    """Spans of one traced run; install() wraps, uninstall() restores."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op = None
        self._undo: list = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        info = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(name, time.perf_counter_ns(), parent, self.op)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = time.perf_counter_ns()
                if parent is not None:
                    spans[parent].child += span.end - span.start
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        package = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == "persuade" or key.startswith("persuade."))
        ]
        for module_name, func_name, span_name in TRACED:
            module = sys.modules.get(f"persuade.{module_name}")
            if module is None:
                continue
            original = getattr(module, func_name)
            wrapper = self._wrap(span_name, original)
            for mod in package:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def metrics(self) -> dict:
        """Per-layer totals of this run, keyed by metric name."""
        self_ns = {name: 0 for name in SELF_TIME_LAYERS}
        calls = {"lp.solve": 0, "model.expand_typed": 0}
        pivots = rows_max = cp_rounds = 0
        for span in self.spans:
            self_ns[span.name] += span.end - span.start - span.child
            if span.name in calls:
                calls[span.name] += 1
            if span.name == "lp.solve" and span.info:
                pivots += span.info["pivots"]
                rows_max = max(rows_max, span.info["rows"])
            elif span.name == "reduction.cutting_plane_solve" and span.info:
                cp_rounds += span.info["rounds"]
        out = {
            "lp.solve.calls": (calls["lp.solve"], "count"),
            "lp.solve.pivots": (pivots, "count"),
            "lp.solve.rows_max": (rows_max, "count"),
        }
        for name in SELF_TIME_LAYERS:
            out[f"{name}.self_s"] = (self_ns[name] / 1e9, "s")
        out["lp.solve.us_per_pivot"] = (
            self_ns["lp.solve"] / 1e3 / pivots if pivots else 0.0,
            "us",
        )
        out["model.expand_typed.calls"] = (calls["model.expand_typed"], "count")
        out["reduction.cutting_plane_solve.rounds"] = (cp_rounds, "count")
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps(span.as_dict(index)) + "\n")
