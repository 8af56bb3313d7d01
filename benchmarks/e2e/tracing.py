"""Spans timed from outside the program, exported as Chrome trace-event JSON.

The benchmark records a span around every call it makes into a layer
(graph build, Ideal baseline, verification, the top-level ``compile``), and
while a traced round runs it also wraps the public entry points of each
layer that ``repro.compile`` calls on its way down — planner, partition
search, interval analysis, runtime lowering, program cache and simulator —
so one compile yields a nested span tree without any change to the
program.  :data:`LAYER_ENTRY_POINTS` is that list; its span names are the
names in-program tracing should reuse.

A span records its name, start, end, parent and a few counts measured at
the same boundary (strategies discovered, op groups, cache hit or miss).
Spans stay in memory and are written once, by :meth:`Tracer.write`.
"""

from __future__ import annotations

import importlib
import json
import time
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["LAYER_ENTRY_POINTS", "Span", "Tracer"]


class Span:
    """One timed call: ``[start_ns, end_ns)`` on the perf-counter clock."""

    __slots__ = ("id", "name", "parent", "start_ns", "end_ns", "args")

    def __init__(self, span_id: int, name: str, parent: Optional[int], args: dict):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.start_ns = time.perf_counter_ns()
        self.end_ns = self.start_ns
        self.args = args


def _hit(result) -> dict:
    return {"hit": result is not None}


def _count(result) -> dict:
    return {"n": len(result)}


def _op_groups(result) -> dict:
    return {"n": result.num_op_groups()}


#: ``(module, attribute path, span name, counts-from-result)`` for every
#: layer entry point a traced round wraps.  Functions are patched in the
#: module that *calls* them (``repro.partition.recursive.coarsen`` is the
#: name the recursive search looks up), methods on their class.  The cost
#: model's profile build is wrapped at ``_build_profile``, the miss path of
#: ``node_profile``: the public method is a dict lookup called ~10^5 times
#: per compile, where a span would cost more than the work it times.
LAYER_ENTRY_POINTS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.compiler", "lower_strategy", "strategy.lower", None),
    ("repro.planner.core", "Planner.plan", "planner.plan", None),
    ("repro.planner.core", "plan_cache_key", "planner.cache_key", None),
    ("repro.planner.cache", "PlanCache.get", "planner.cache_get", _hit),
    ("repro.planner.cache", "PlanCache.put", "planner.cache_put", None),
    ("repro.planner.backends", "BackendSpec.search", "planner.search", None),
    ("repro.planner.core", "search_candidates", "planner.search", None),
    ("repro.partition.recursive", "coarsen", "partition.coarsen", _op_groups),
    ("repro.partition.recursive", "dp_partition_step", "partition.dp_step", None),
    (
        "repro.partition.cost",
        "CommunicationCostModel._build_profile",
        "partition.profile",
        None,
    ),
    ("repro.partition.cost", "discover_strategies", "interval.discover", _count),
    ("repro.runtime.core", "Executor.lower", "runtime.lower", None),
    ("repro.runtime.core", "lowered_cache_key", "runtime.cache_key", None),
    ("repro.runtime.cache", "ProgramCache.get", "runtime.cache_get", _hit),
    ("repro.runtime.cache", "ProgramCache.put", "runtime.cache_put", None),
    ("repro.runtime.core", "Executor.simulate", "runtime.simulate", None),
    ("repro.sim.engine", "task_graph_fingerprint", "sim.fingerprint", None),
    ("repro.sim.engine", "compile_task_graph", "sim.compile", None),
    ("repro.sim.engine", "TaskGraphSimulator.run_compiled", "sim.run", None),
    ("repro.tuner.core", "Tuner.tune", "tuner.tune", None),
    ("repro.tuner.core", "evaluate_candidate", "tuner.candidate", None),
)


class Tracer:
    """Records nested spans on one thread and exports them."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        self.origin_ns = time.perf_counter_ns()

    # ------------------------------------------------------------- spans
    def begin(self, name: str, **args) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, parent, args)
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def end(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != span.id:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span named ``name``."""
        span = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(span)

    # ---------------------------------------------------------- wrapping
    def install(self) -> List[str]:
        """Wrap every entry point in :data:`LAYER_ENTRY_POINTS`.

        Returns the entry points that could not be found, so a renamed
        function shows up as missing instead of silently untimed.
        """
        missing = []
        for module_name, path, name, counts in LAYER_ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                missing.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self._wrapper(original, name, counts))
            self._patches.append((owner, attr, original))
        return missing

    def uninstall(self) -> None:
        """Restore every wrapped entry point."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrapper(self, original: Callable, name: str, counts: Optional[Callable]):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
                if counts is not None:
                    span.args.update(counts(result))
                return result
            finally:
                tracer.end(span)

        traced.__wrapped__ = original
        return traced

    # ------------------------------------------------------------ export
    def children(self) -> Dict[int, List[Span]]:
        out: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                out.setdefault(span.parent, []).append(span)
        return out

    def to_chrome(self, process_name: str, metadata: Optional[dict] = None) -> dict:
        """The spans as a Chrome trace-event document (Perfetto opens it)."""
        events: List[dict] = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": process_name}},
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": "benchmark"}},
        ]
        selfs = _self_times(self.spans)
        for span in self.spans:
            args = {"id": span.id, "parent": span.parent,
                    "self_us": selfs[span.id] / 1e3}
            args.update(span.args)
            events.append({
                "name": span.name,
                "cat": span.name.split(".")[0],
                "ph": "X",
                "ts": (span.start_ns - self.origin_ns) / 1e3,
                "dur": (span.end_ns - span.start_ns) / 1e3,
                "pid": 1,
                "tid": 1,
                "args": args,
            })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": dict(metadata or {}),
        }

    def write(self, path: str, process_name: str, metadata: Optional[dict] = None) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome(process_name, metadata), handle)


def _self_times(spans: List[Span]) -> Dict[int, int]:
    """Span id -> nanoseconds of its duration no child span covers."""
    out = {span.id: span.end_ns - span.start_ns for span in spans}
    for span in spans:
        if span.parent is not None:
            out[span.parent] -= span.end_ns - span.start_ns
    return out
