"""Span tracer that times calls into modirect's layers from outside.

Each traced layer is a module or class attribute that is swapped for a
timing wrapper while a traced operation runs and restored afterwards, so
the package source is never edited.  Spans are aggregated in memory per
layer and per (parent, child) pair: calls, total seconds and the seconds
covered by child spans, which gives each layer's self time.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

# metric prefix, module, attribute path, metric kinds, result counter
# The moo sort helpers are wrapped where the engine module references them,
# so calls from the trisection step are counted as well as calls from the
# selection functions.
LAYERS = (
    ("objectives.Evaluator", "modirect.objectives", "Evaluator.__call__",
     ("calls", "s", "us_per_call", "self_s"), None),
    ("beam.solve_modal", "modirect.beam", "solve_modal",
     ("calls", "s", "us_per_call"), None),
    ("objectives.mdlac", "modirect.objectives", "mdlac", ("s",), None),
    ("engine.select_pareto_front", "modirect.engine", "select_pareto_front",
     ("calls", "s", "ms_per_call", "selected_per_call"), len),
    ("engine.select_ns", "modirect.engine", "select_ns",
     ("calls", "s", "ms_per_call", "selected_per_call"), len),
    ("engine.select_mo", "modirect.engine", "select_mo",
     ("calls", "s", "ms_per_call", "selected_per_call"), len),
    ("engine.select_mo_hv", "modirect.engine", "select_mo_hv",
     ("calls", "s", "ms_per_call", "selected_per_call"), len),
    ("moo.fast_nondominated_sort", "modirect.engine", "fast_nondominated_sort",
     ("calls", "s"), None),
    ("moo.nondominated_mask", "modirect.engine", "nondominated_mask",
     ("calls", "s"), None),
    ("moo.exclusive_contributions", "modirect.engine", "exclusive_contributions",
     ("calls", "s"), None),
    ("moo.ParetoArchive.insert", "modirect.moo", "ParetoArchive.insert",
     ("calls", "s", "us_per_call", "accept_ratio"), bool),
    ("posterior.sparse_select", "modirect.cases", "sparse_select", ("s",), None),
    ("posterior.archive_stats", "modirect.cases", "archive_stats", ("s",), None),
    ("cases.simulate_measurement", "modirect.cases", "simulate_measurement",
     ("s",), None),
    ("engine", "modirect.engine", "run", ("self_s",), None),
)

SELECTION_LAYERS = ("engine.select_pareto_front", "engine.select_ns",
                    "engine.select_mo", "engine.select_mo_hv")
SORT_LAYERS = ("moo.fast_nondominated_sort", "moo.nondominated_mask",
               "moo.exclusive_contributions")

_MISSING = object()


class Tracer:
    """Aggregated spans of the traced operations of one benchmark run."""

    def __init__(self):
        # layer -> [calls, total_s, child_s, result count]
        self.stats = {layer[0]: [0, 0.0, 0.0, 0] for layer in LAYERS}
        # (parent, child) -> [calls, total_s]
        self.edges: dict[tuple[str, str], list] = {}
        self.absent: list[str] = []
        self._stack: list[list] = []

    def _enter(self, name: str) -> list:
        frame = [name, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, seconds: float, count: int) -> None:
        self._stack.pop()
        name = frame[0]
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stats[0] += 1
        stats[1] += seconds
        stats[2] += frame[1]
        stats[3] += count
        if self._stack:
            parent = self._stack[-1]
            parent[1] += seconds
            edge = self.edges.setdefault((parent[0], name), [0, 0.0])
            edge[0] += 1
            edge[1] += seconds

    def _wrap(self, name: str, fn, counter):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(name)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                count = 0 if counter is None or result is None else int(counter(result))
                self._exit(frame, clock() - start, count)

        return traced

    @contextmanager
    def traced(self, root: str):
        """Wrap every layer that exists, run the body as span ``root``, then
        restore the original attributes."""
        restore = []
        try:
            for name, module, path, _, counter in LAYERS:
                owner = importlib.import_module(module)
                *parents, attr = path.split(".")
                try:
                    for part in parents:
                        owner = getattr(owner, part)
                    original = getattr(owner, attr)
                except AttributeError:
                    if name not in self.absent:
                        self.absent.append(name)
                    continue
                restore.append((owner, attr, vars(owner).get(attr, _MISSING)))
                setattr(owner, attr, self._wrap(name, original, counter))
            frame = self._enter(root)
            start = time.perf_counter()
            try:
                yield
            finally:
                self._exit(frame, time.perf_counter() - start, 0)
        finally:
            for owner, attr, saved in reversed(restore):
                if saved is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, saved)

    def layer_metrics(self, n_ops: int) -> dict[str, dict]:
        """Per-operation metrics of every layer in ``LAYERS``; an absent
        layer reports zeros."""
        out = {}
        for name, _, _, kinds, _ in LAYERS:
            calls, total, child, count = self.stats[name]
            per_call = total / calls if calls else 0.0
            values = {
                "calls": (calls / n_ops, "count"),
                "s": (total / n_ops, "s"),
                "self_s": ((total - child) / n_ops, "s"),
                "us_per_call": (per_call * 1e6, "us"),
                "ms_per_call": (per_call * 1e3, "ms"),
                "selected_per_call": (count / calls if calls else 0.0, "count"),
                "accept_ratio": (count / calls if calls else 0.0, "ratio"),
            }
            for kind in kinds:
                value, unit = values[kind]
                out[f"{name}.{kind}"] = {"value": value, "unit": unit}
        return out

    def selection_seconds(self) -> float:
        """Selection plus sorting: the selection layers and the sort helpers
        called from anywhere but inside a selection layer."""
        total = sum(self.stats[name][1] for name in SELECTION_LAYERS)
        for (parent, child), (_, seconds) in self.edges.items():
            if child in SORT_LAYERS and parent not in SELECTION_LAYERS + SORT_LAYERS:
                total += seconds
        return total

    def edge_table(self) -> list[list]:
        return [[parent, child, calls, seconds]
                for (parent, child), (calls, seconds) in sorted(self.edges.items())]
