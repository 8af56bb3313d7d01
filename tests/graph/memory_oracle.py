"""Test oracle: the sort-and-scan transient allocator.

:func:`repro.graph.memory_planner.plan_memory` keeps its free list sorted
and bisects it; this is the allocator it replaced, kept verbatim so the
parity tests can check that both pick the same buffer for every tensor.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.graph.graph import Graph
from repro.graph.memory_planner import MemoryPlan
from repro.graph.scheduler import liveness, topo_schedule


def sort_and_scan_plan_memory(
    graph: Graph,
    schedule: Optional[List[str]] = None,
    *,
    allow_inplace: bool = True,
    allow_reuse: bool = True,
) -> MemoryPlan:
    """The memory planner as it was before its free list was kept sorted:
    every allocation sorts the free list and scans it for the first buffer
    that fits."""
    if schedule is None:
        schedule = topo_schedule(graph)
    intervals = liveness(graph, schedule)
    order = sorted(graph.tensors, key=lambda t: intervals[t][0])

    buffer_of: Dict[str, int] = {}
    buffer_sizes: Dict[int, int] = {}
    next_buffer = 0

    # In-place aliases: output tensor shares the buffer of one input.
    alias_of: Dict[str, str] = {}
    if allow_inplace:
        for node in graph.nodes.values():
            pos = node.attrs.get("inplace")
            if pos is None:
                continue
            source = node.inputs[int(pos)]
            for out in node.outputs:
                if graph.tensor(out).size_bytes() <= graph.tensor(source).size_bytes():
                    alias_of[out] = source

    persistent_bytes = 0
    for name, spec in graph.tensors.items():
        if spec.is_persistent() or spec.kind == "data":
            if name in alias_of:
                continue  # aliases reuse their source buffer (in-place update)
            buffer_of[name] = next_buffer
            buffer_sizes[next_buffer] = spec.size_bytes()
            persistent_bytes += spec.size_bytes()
            next_buffer += 1

    # Transient tensors: greedy reuse of freed buffers (largest-fit).
    free_buffers: List[Tuple[int, int]] = []  # (size, buffer id)
    releases: Dict[int, List[str]] = {}
    for name in order:
        death = intervals[name][1]
        releases.setdefault(death, []).append(name)

    pool_bytes = 0
    horizon = len(schedule)
    events = sorted(set(intervals[name][0] for name in order))
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
                free_buffers.append((buffer_sizes[buf], buf))
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
            chosen = None
            if allow_reuse and free_buffers:
                free_buffers.sort()
                for i, (fsize, fbuf) in enumerate(free_buffers):
                    if fsize >= size:
                        chosen = i
                        break
            if chosen is not None:
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
