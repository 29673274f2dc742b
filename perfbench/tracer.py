"""Spans around calls into adimlab's public functions, recorded from outside.

``Tracer.install`` replaces each listed function, in every adimlab module
that holds it, by a wrapper that times the call and charges its duration to
the enclosing span, so both inclusive and self time are known per layer.
Spans are aggregated in memory (calls, inclusive seconds, seconds spent in
child spans); ``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# (module, function, span name, counter fed from the return value)
LAYERS = (
    ("kernel", "solve_min_multicover", "kernel.solve_min_multicover",
     ("kernel.solve_nodes", 2)),
    ("kernel", "enumerate_min_covers", "kernel.enumerate_min_covers",
     ("kernel.enumerate_nodes", 1)),
    ("kernel", "greedy_cover", "kernel.greedy_cover", None),
    ("kernel", "cover_ladder", "kernel.cover_ladder", None),
    ("solver", "solve_table", "solver.solve_table", None),
    ("solver", "enumerate_bases", "solver.enumerate_bases", None),
    ("solver", "adim_ladder", "solver.adim_ladder", None),
    ("metric", "build_table", "metric.build_table", None),
    ("metric", "forced_set", "metric.forced_set", None),
    ("graph", "from_pair_mask", "graph.from_pair_mask", None),
    ("graph", "join", "graph.join", None),
    ("graph", "from_graph6", "graph.from_graph6", None),
    ("formulas", "join_bounds", "formulas.join_bounds", None),
    ("formulas", "join_equality_criterion", "formulas.join_equality_criterion",
     None),
    ("verify", "check_cone_slack", "verify.checker", None),
)

# spans whose self time is reported next to their inclusive time
SELF_TIMED = ("solver.solve_table", "verify.checker")


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.child_seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter):
        stack = self._stack

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self.calls[name] += 1
                self.seconds[name] += elapsed
                self.child_seconds[name] += children[0]
                if stack:
                    stack[-1][0] += elapsed
            if counter is not None:
                self.counts[counter[0]] += result[counter[1]]
            return result

        return traced

    def install(self) -> None:
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "adimlab" or name.startswith("adimlab."))
        ]
        for module_name, fn_name, span, counter in LAYERS:
            home = sys.modules.get(f"adimlab.{module_name}")
            if home is None:  # a module the workload never imports is never called
                continue
            original = getattr(home, fn_name)
            wrapped = self._wrap(span, original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer totals for every span, so that each workload reports the
        same names; a span that was never entered reports 0 calls in 0 s."""
        out: dict[str, tuple[float, str]] = {}
        for _, _, span, counter in LAYERS:
            out[f"{span}_s"] = (self.seconds[span], "s")
            out[f"{span}_calls"] = (self.calls[span], "count")
            if span in SELF_TIMED:
                out[f"{span}_self_s"] = (self.seconds[span] - self.child_seconds[span], "s")
            if counter is not None:
                out[counter[0]] = (self.counts[counter[0]], "count")
        return out
