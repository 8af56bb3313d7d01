"""Static memory planning with buffer reuse.

MXNet and TensorFlow statically allocate and reuse memory buffers according to
operator dependencies (Sec 6).  The planner here mirrors that behaviour:

* persistent tensors (weights, optimiser state) each get a dedicated buffer;
* transient tensors (activations, gradients) draw buffers from a shared pool;
  a freed buffer can be reused by any later tensor that fits into it;
* operators may declare in-place updates (``attrs["inplace"] = <input pos>``),
  in which case the output aliases the input's buffer — this is how frameworks
  implement in-place gradient aggregation and parameter updates, which the
  paper identifies as crucial for large-RNN performance (Sec 7.2).

The planner is what the partitioned-graph generator's control-dependency
optimisation exists to serve: without the extra dependencies the per-worker
graphs would lose reuse opportunities and blow up per-GPU memory.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.graph.graph import Graph
from repro.graph.memo import memoized
from repro.graph.scheduler import liveness, topo_schedule


@dataclass
class MemoryPlan:
    """Result of static memory planning for one device's graph."""

    peak_bytes: int
    persistent_bytes: int
    pool_bytes: int
    num_buffers: int
    buffer_of: Dict[str, int] = field(default_factory=dict)
    buffer_sizes: Dict[int, int] = field(default_factory=dict)

    def summary(self) -> str:
        gib = 1 << 30
        return (
            f"peak={self.peak_bytes / gib:.2f}GiB "
            f"(persistent={self.persistent_bytes / gib:.2f}GiB, "
            f"pool={self.pool_bytes / gib:.2f}GiB, buffers={self.num_buffers})"
        )


def inplace_aliases(graph: Graph) -> Dict[str, str]:
    """``output -> input`` for every in-place update: the output of a node
    declaring ``attrs["inplace"] = <input pos>`` shares that input's buffer
    when it fits in it."""
    alias_of: Dict[str, str] = {}
    for node in graph.nodes.values():
        pos = node.attrs.get("inplace")
        if pos is None:
            continue
        source = node.inputs[int(pos)]
        for out in node.outputs:
            if graph.tensor(out).size_bytes() <= graph.tensor(source).size_bytes():
                alias_of[out] = source
    return alias_of


def plan_memory(
    graph: Graph,
    schedule: Optional[List[str]] = None,
    *,
    allow_reuse: bool = True,
) -> MemoryPlan:
    """Plan buffers for every tensor in ``graph`` under ``schedule``.

    ``allow_reuse=False`` gives every transient tensor its own buffer: the
    plan a shard graph gets without the partitioned-graph generator's
    control dependencies, and the second memory figure the static verifier
    re-derives.  The default plan (no ``schedule``, reuse allowed) of a
    frozen graph is planned once per compile (:mod:`repro.graph.memo`) and
    shared by its readers, which must not edit it.
    """
    if schedule is None:
        if allow_reuse:
            return memoized(
                graph, "memory_plan",
                lambda: plan_memory(graph, topo_schedule(graph)),
            )
        schedule = topo_schedule(graph)
    intervals = liveness(graph, schedule)
    order = sorted(graph.tensors, key=lambda t: intervals[t][0])

    buffer_of: Dict[str, int] = {}
    buffer_sizes: Dict[int, int] = {}
    next_buffer = 0

    alias_of = inplace_aliases(graph)

    persistent_bytes = 0
    for name, spec in graph.tensors.items():
        if spec.is_persistent() or spec.kind == "data":
            if name in alias_of:
                continue  # aliases reuse their source buffer (in-place update)
            buffer_of[name] = next_buffer
            buffer_sizes[next_buffer] = spec.size_bytes()
            persistent_bytes += spec.size_bytes()
            next_buffer += 1

    # Transient tensors: greedy reuse of freed buffers — the smallest that
    # fits, lowest id on ties.  The free list stays sorted, so a release is
    # an insort and an allocation one bisection.
    free_buffers: List[Tuple[int, int]] = []  # sorted (size, buffer id)
    pool_bytes = 0
    horizon = len(schedule)
    tensors_by_birth: Dict[int, List[str]] = {}
    for name in order:
        tensors_by_birth.setdefault(intervals[name][0], []).append(name)

    freed_at: Dict[int, List[str]] = {}
    for name, (birth, death) in intervals.items():
        freed_at.setdefault(death + 1, []).append(name)

    for step in range(-1, horizon + 1):
        # Release buffers of tensors that died before this step.
        for name in freed_at.get(step, []):
            spec = graph.tensor(name)
            if spec.is_persistent() or spec.kind in ("data", "output"):
                continue
            if name in alias_of:
                continue
            buf = buffer_of.get(name)
            if buf is not None and allow_reuse:
                insort(free_buffers, (buffer_sizes[buf], buf))
        # Allocate buffers for tensors born at this step.
        for name in tensors_by_birth.get(step, []):
            if name in buffer_of:
                continue
            spec = graph.tensor(name)
            if name in alias_of:
                root = alias_of[name]
                while root in alias_of:
                    root = alias_of[root]
                if root in buffer_of:
                    buffer_of[name] = buffer_of[root]
                    continue
            size = spec.size_bytes()
            # Buffer ids are >= 0, so (size, -1) sorts before every free
            # buffer of that size.
            chosen = bisect_left(free_buffers, (size, -1))
            if chosen < len(free_buffers):
                _, buf = free_buffers.pop(chosen)
                buffer_of[name] = buf
            else:
                buffer_of[name] = next_buffer
                buffer_sizes[next_buffer] = size
                pool_bytes += size
                next_buffer += 1

    peak = persistent_bytes + pool_bytes
    return MemoryPlan(
        peak_bytes=peak,
        persistent_bytes=persistent_bytes,
        pool_bytes=pool_bytes,
        num_buffers=next_buffer,
        buffer_of=buffer_of,
        buffer_sizes=buffer_sizes,
    )
