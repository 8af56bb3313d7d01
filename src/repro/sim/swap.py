"""Swapping baseline: single-GPU execution with CPU-memory swapping.

This models the strongest swapping design the paper compares against
(Sec 7.1): an LRU eviction policy over arbitrary memory blocks, a prefetching
unit that overlaps host transfers with computation, read-only blocks that are
dropped instead of copied back, and liveness analysis that releases dead
blocks immediately.  All eight GPUs share the machine's aggregate CPU link, so
the per-GPU effective bandwidth shrinks when all of them swap at once — which
is exactly why swapping loses to Tofu for large models.

The module is split into two stages so the runtime subsystem can reuse it:

* :func:`swap_residency_schedule` runs the LRU/prefetch residency state
  machine and records, per executed operator, how many bytes move over the
  host link (a lowering pass — no timing involved);
* :func:`simulate_with_swapping` prices that schedule with the kernel cost
  model and returns a :class:`SwapResult`.  The ``swap`` execution backend
  (:mod:`repro.runtime.backends`) instead lowers the same schedule to
  host-copy simulator tasks on the shared CPU link.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.graph.graph import Graph
from repro.graph.memory_planner import inplace_aliases
from repro.graph.scheduler import liveness, topo_schedule
from repro.sim.costmodel import node_kernel_time
from repro.sim.device import MachineSpec


@dataclass
class SwapResult:
    """Outcome of simulating one training iteration with swapping."""

    iteration_time: float
    compute_time: float
    transfer_time: float
    swapped_in_bytes: float
    swapped_out_bytes: float
    oom: bool = False

    def throughput(self, batch_size: int) -> float:
        if self.oom or self.iteration_time <= 0:
            return 0.0
        return batch_size / self.iteration_time


@dataclass
class SwapStep:
    """One executed operator and its host-link traffic (bytes, not seconds)."""

    node: str
    moved_in_bytes: float
    moved_out_bytes: float


@dataclass
class SwapSchedule:
    """Steady-state swap schedule of one iteration (a lowering artefact).

    ``steps`` covers the operators that actually executed — all of them in the
    normal case, a prefix when the working set of some operator exceeds device
    memory (``oom``).  ``peak_resident_bytes`` is the largest resident set the
    LRU kept on the device; ``oom_required_bytes`` is the working set that did
    not fit when ``oom`` is set.
    """

    steps: List[SwapStep] = field(default_factory=list)
    oom: bool = False
    peak_resident_bytes: int = 0
    oom_required_bytes: int = 0

    @property
    def swapped_in_bytes(self) -> float:
        return sum(step.moved_in_bytes for step in self.steps)

    @property
    def swapped_out_bytes(self) -> float:
        return sum(step.moved_out_bytes for step in self.steps)


def swap_residency_schedule(graph: Graph, machine: MachineSpec) -> SwapSchedule:
    """Run the LRU residency state machine on device 0 and record per-node
    transfers.

    One warm-up iteration runs first so the recorded iteration starts from
    the steady-state resident set (weights already on the device, transients
    from the previous iteration evicted or dead).
    """
    capacity = machine.device(0).memory_bytes

    schedule = topo_schedule(graph)
    intervals = liveness(graph, schedule)

    # In-place updates (optimiser steps, fused gradient accumulation) alias
    # their source buffer; track residency per buffer root so an updated
    # weight does not occupy memory twice.
    alias_of = inplace_aliases(graph)

    def root_of(name: str) -> str:
        seen = set()
        while name in alias_of and name not in seen:
            seen.add(name)
            name = alias_of[name]
        return name

    # A buffer root stays live until the last use of any of its aliases.
    for name in graph.tensors:
        root = root_of(name)
        if root != name:
            birth, death = intervals[root]
            intervals[root] = (birth, max(death, intervals[name][1]))

    sizes = {name: graph.tensor(root_of(name)).size_bytes() for name in graph.tensors}
    persistent = {
        name for name, spec in graph.tensors.items()
        if spec.is_persistent() or spec.kind in ("data", "output")
    }
    persistent |= {name for name in graph.tensors if root_of(name) in persistent}

    resident: Dict[str, int] = {}
    dirty: Set[str] = set()
    last_touch: Dict[str, int] = {}
    clock = 0
    resident_bytes = 0
    peak_resident = 0

    result: Optional[SwapSchedule] = None
    for iteration in range(2):
        steps: List[SwapStep] = []
        oom = False
        oom_required = 0

        for step, node_name in enumerate(schedule):
            node = graph.node(node_name)
            clock += 1
            input_roots = [root_of(t) for t in node.inputs]
            needed = list(dict.fromkeys(input_roots + [root_of(t) for t in node.outputs]))
            working_set = sum(sizes[t] for t in needed)
            if working_set > capacity:
                oom = True
                oom_required = working_set
                break

            moved_in = 0.0
            moved_out = 0.0
            for tensor in needed:
                if tensor in resident:
                    last_touch[tensor] = clock
                    continue
                size = sizes[tensor]
                # Evict LRU blocks until the tensor fits.
                while resident_bytes + size > capacity and resident:
                    victim = min(
                        (t for t in resident if t not in needed),
                        key=lambda t: last_touch.get(t, 0),
                        default=None,
                    )
                    if victim is None:
                        break
                    resident_bytes -= resident.pop(victim)
                    if victim in dirty:
                        moved_out += sizes[victim]
                        dirty.discard(victim)
                if resident_bytes + size > capacity:
                    oom = True
                    oom_required = resident_bytes + size
                    break
                # Outputs are allocated, not fetched; inputs produced earlier
                # (or previously evicted weights) must be swapped back in.
                if tensor in input_roots and (
                    graph.tensor(tensor).producer is not None
                    or tensor in persistent
                    or iteration == 0
                ):
                    moved_in += size
                resident[tensor] = size
                resident_bytes += size
                peak_resident = max(peak_resident, resident_bytes)
                last_touch[tensor] = clock
            if oom:
                break
            for out in node.outputs:
                dirty.add(root_of(out))

            steps.append(SwapStep(node_name, moved_in, moved_out))

            # Drop transient tensors that are now dead (liveness analysis).
            for tensor in needed:
                if tensor in persistent:
                    continue
                if intervals[tensor][1] <= step and tensor in resident:
                    resident_bytes -= resident.pop(tensor)
                    dirty.discard(tensor)

        result = SwapSchedule(
            steps=steps,
            oom=oom,
            peak_resident_bytes=peak_resident,
            oom_required_bytes=oom_required,
        )
        if oom:
            break
    assert result is not None
    return result


def simulate_with_swapping(
    graph: Graph,
    machine: MachineSpec,
    *,
    concurrent_gpus: Optional[int] = None,
) -> SwapResult:
    """Simulate one steady-state training iteration with swapping.

    ``concurrent_gpus`` is how many GPUs share the host link (all of them for
    the data-parallel swapping baseline).  Prefetching overlaps each
    operator's transfer with its computation.
    """
    device = machine.device(0)
    if concurrent_gpus is None:
        concurrent_gpus = machine.num_devices
    cpu_bandwidth = machine.cpu_bandwidth / max(1, concurrent_gpus)

    schedule = swap_residency_schedule(graph, machine)

    compute_time = 0.0
    transfer_time = 0.0
    iteration_time = 0.0
    swapped_in = 0.0
    swapped_out = 0.0
    for step in schedule.steps:
        node_compute = node_kernel_time(graph, step.node, device, machine)
        node_transfer = (step.moved_in_bytes + step.moved_out_bytes) / cpu_bandwidth
        compute_time += node_compute
        transfer_time += node_transfer
        swapped_in += step.moved_in_bytes
        swapped_out += step.moved_out_bytes
        iteration_time += max(node_compute, node_transfer)

    return SwapResult(
        iteration_time=iteration_time,
        compute_time=compute_time,
        transfer_time=transfer_time,
        swapped_in_bytes=swapped_in,
        swapped_out_bytes=swapped_out,
        oom=schedule.oom,
    )
