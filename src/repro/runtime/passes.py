"""Shared lowering passes.

Every execution backend lowers a dataflow graph to simulator tasks through
the same small set of stages; keeping them here (instead of re-implementing
them per backend) makes each stage independently testable and reusable:

* **Topo scheduling** — :func:`scheduled_nodes` fixes the execution order;
  :func:`producer_deps` derives a node's compute dependencies from tensor
  producers (the dependency-driven scheduling of Sec 6).
* **Liveness / memory planning** — :func:`device_memory_report` runs the
  static memory planner (Sec 6, buffer reuse under control dependencies) and
  reports per-device peak bytes.
* **Kernel-time costing** — :func:`make_compute_task` prices a node with the
  roofline cost model (Sec 7.1) and emits its compute task into the
  program's :class:`repro.sim.engine.TaskGraphBuilder`.
* **Comm-task emission** — :func:`make_comm_task` emits a transfer by its
  endpoints; the simulator resolves the :class:`repro.sim.device.Link` it
  crosses (intra-machine PCI-e, shared CPU link, or the inter-machine
  network) via ``link_between`` for whichever machine it simulates on.
* **Stage assignment** — :func:`full_layer_assignment` extends the model
  builders' forward-layer annotation to backward/optimiser nodes, and
  :func:`assign_pipeline_stages` groups contiguous layers into pipeline
  stages balanced by the kernel-cost pass (the critical-path motivation of
  Mayer et al.'s scheduling study).  On a multi-machine topology the stages
  are placed across machines (:func:`pipeline_stage_devices`) and the DP
  additionally scores each candidate cut by the cost of moving the boundary
  tensors over the link it crosses, so cross-machine cuts land on cheap
  edges.
* **Micro-batch scheduling** — :func:`pipeline_schedule` emits the per-stage
  slot order of a GPipe or 1F1B pipeline, and :func:`stage_memory_report`
  prices each stage's peak memory under that schedule's in-flight
  micro-batch count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro import perf
from repro.errors import ExecutionError
from repro.graph.graph import Graph
from repro.graph.memory_planner import MemoryPlan, plan_memory
from repro.graph.node import OpNode
from repro.graph.scheduler import liveness, topo_schedule  # noqa: F401  (re-export)
from repro.sim.costmodel import node_kernel_time
from repro.sim.device import DeviceSpec, MachineSpec, Topology
from repro.sim.engine import TaskGraphBuilder


@perf.timed("pass.scheduled_nodes")
def scheduled_nodes(graph: Graph) -> List[OpNode]:
    """Topo-scheduling pass: the deterministic execution order of ``graph``."""
    return list(graph.topo_order())


def producer_deps(graph: Graph, node: OpNode) -> List[str]:
    """Names of the nodes producing ``node``'s inputs (its compute deps)."""
    deps: List[str] = []
    for tensor in node.inputs:
        producer = graph.tensor(tensor).producer
        if producer is not None:
            deps.append(producer)
    return deps


def make_compute_task(
    builder: TaskGraphBuilder,
    graph: Graph,
    node_name: str,
    device: int,
    device_spec: DeviceSpec,
    machine: MachineSpec,
    *,
    deps: Sequence[str] = (),
    scale: float = 1.0,
    extra_duration: float = 0.0,
    task_name: Optional[str] = None,
) -> None:
    """Kernel-time costing pass: emit one compute task into ``builder``,
    priced by the roofline model.

    ``scale`` shrinks the node's work to its per-device shard (1/k under
    partitioned or data-parallel execution); ``extra_duration`` adds fixed
    overhead such as unfused-fetch launch penalties (Sec 6).
    """
    duration = (
        node_kernel_time(graph, node_name, device_spec, machine, scale=scale)
        + extra_duration
    )
    builder.add(task_name or node_name, device, "compute", duration, deps=deps)


def make_comm_task(
    builder: TaskGraphBuilder,
    name: str,
    device: int,
    comm_bytes: float,
    *,
    src: Optional[int],
    dst: Optional[int] = None,
    deps: Sequence[str] = (),
) -> None:
    """Comm-task emission pass: emit one ``src -> dst`` transfer into
    ``builder``.

    ``src`` is the sending device, ``None`` for a gather from every peer, or
    :data:`repro.sim.device.HOST_DEVICE` for a host copy; ``dst`` defaults
    to ``device``, the device whose communication time the transfer is
    accounted to.  The simulator resolves the link the endpoints cross
    (``link_between``) on the machine it simulates, and prices the transfer
    there.
    """
    builder.add(
        name, device, "comm", comm_bytes=float(comm_bytes), deps=deps,
        src_device=src, dst_device=device if dst is None else dst,
    )


@perf.timed("pass.device_memory_report")
def device_memory_report(
    graph: Graph,
    devices: Sequence[int] = (0,),
    *,
    allow_reuse: bool = True,
) -> Dict[int, int]:
    """Memory-planning pass: planned peak bytes, replicated per device.

    Used by execution styles where every listed device holds the same graph
    (single-device execution, data parallelism, the per-worker shard graph of
    partitioned execution).
    """
    peak = plan_memory(graph, allow_reuse=allow_reuse).peak_bytes
    return {device: peak for device in devices}


@perf.timed("pass.memory_plan_of")
def memory_plan_of(graph: Graph, *, allow_reuse: bool = True) -> MemoryPlan:
    """The full memory plan (buffer assignment included) for one device."""
    return plan_memory(graph, allow_reuse=allow_reuse)


# ---------------------------------------------------------------------------
# Stage assignment (pipeline-parallel execution)
# ---------------------------------------------------------------------------
@perf.timed("pass.full_layer_assignment")
def full_layer_assignment(graph: Graph) -> Dict[str, int]:
    """Layer index of *every* node, derived from the builders' metadata.

    Model builders annotate forward nodes with ``layer_of_node``; backward
    nodes inherit the layer of the forward node that generated them
    (``bwd_nodes_of``) and optimiser nodes follow the layer of their weight's
    first consumer (``optimizer_nodes_of``).  Nodes the metadata does not
    reach default to layer 0.  Graphs without any layer annotation treat
    each forward node as its own layer, in topological order.
    """
    layer_of = dict(graph.metadata.get("layer_of_node", {}))
    if not layer_of:
        forward = graph.metadata.get("forward_nodes", list(graph.nodes))
        layer_of = {name: index for index, name in enumerate(forward)}
    for fwd, bwds in graph.metadata.get("bwd_nodes_of", {}).items():
        layer = layer_of.get(fwd, 0)
        for bwd in bwds:
            layer_of.setdefault(bwd, layer)
    for weight, nodes in graph.metadata.get("optimizer_nodes_of", {}).items():
        layer = 0
        for consumer in graph.consumers_of(weight):
            if consumer.name in layer_of:
                layer = layer_of[consumer.name]
                break
        for node in nodes:
            layer_of.setdefault(node, layer)
    for node in graph.nodes:
        layer_of.setdefault(node, 0)
    return layer_of


@perf.timed("pass.round_robin_layer_placement")
def round_robin_layer_placement(graph: Graph, num_devices: int) -> Dict[str, int]:
    """Round-robin layers across devices; backward/optimiser nodes follow
    their forward layer (the Operator-Placement policy of Sec 7.1).

    The one authority for the policy: the ``placement`` strategy leaf
    (which the Operator-Placement baseline and ``compile --strategy
    placement`` compile) calls it.
    """
    layer_of_node = full_layer_assignment(graph)
    return {
        node: layer_of_node.get(node, 0) % num_devices for node in graph.nodes
    }


@perf.timed("pass.balanced_contiguous_partition")
def balanced_contiguous_partition(
    costs: Sequence[float], num_groups: int
) -> List[Tuple[int, int]]:
    """Split ``costs`` into ``num_groups`` contiguous ``[start, end)`` ranges
    minimising the maximum group cost (the linear-partition DP).

    This is the stage-balance heuristic: stages must stay contiguous in layer
    order so activations flow forward only, and the bottleneck stage sets the
    pipeline's steady-state rate.
    """
    if num_groups <= 0:
        raise ExecutionError("need at least one group")
    return _partition_dp(costs, num_groups, None, None)


@dataclass(frozen=True)
class StageAssignment:
    """Result of the stage-assignment pass: node -> pipeline stage, plus the
    device each stage runs on (``stage_devices[s]`` is a global device index
    of the topology — simply ``s`` on a single machine)."""

    num_stages: int
    stage_of_node: Dict[str, int]
    stage_of_layer: Dict[int, int]
    stage_costs: List[float]
    stage_devices: List[int] = field(default_factory=list)

    def __post_init__(self):
        if not self.stage_devices:
            object.__setattr__(
                self, "stage_devices", list(range(self.num_stages))
            )


def pipeline_stage_devices(topology: Topology, num_stages: int) -> List[int]:
    """Place ``num_stages`` pipeline stages onto the topology's devices.

    Stages are distributed across machines proportionally to their device
    counts (whole stages, largest-remainder rounding), keeping consecutive
    stages on one machine as long as it has devices — so the number of
    cross-machine stage boundaries is minimal and the stage-assignment DP
    can steer the cheap layer cuts onto them.  On a single machine stage
    ``s`` runs on device ``s``, exactly the pre-cluster placement.
    """
    if num_stages > topology.num_devices:
        raise ExecutionError(
            f"pipeline wants {num_stages} stages on a topology with "
            f"{topology.num_devices} device(s)"
        )
    total = topology.num_devices
    sizes = [m.num_devices for m in topology.machines]
    quotas = [num_stages * size // total for size in sizes]
    remainders = [
        (num_stages * size / total - quota, size - quota, index)
        for index, (size, quota) in enumerate(zip(sizes, quotas))
    ]
    # Largest remainder first; machines with more spare devices break ties.
    remainders.sort(key=lambda item: (-item[0], -item[1], item[2]))
    short = num_stages - sum(quotas)
    for fraction, spare, index in remainders:
        if short <= 0:
            break
        if quotas[index] < sizes[index]:
            quotas[index] += 1
            short -= 1
    if short > 0:  # quotas hit machine capacities; fill wherever space is left
        for index, size in enumerate(sizes):
            while short > 0 and quotas[index] < size:
                quotas[index] += 1
                short -= 1
    devices: List[int] = []
    for machine_index, quota in enumerate(quotas):
        devices.extend(topology.devices_of_machine(machine_index)[:quota])
    return devices


def layer_cut_bytes(
    graph: Graph, layer_of: Dict[str, int], layers: Sequence[int]
) -> List[float]:
    """Bytes crossing each candidate stage boundary.

    ``result[i]`` is the total size of tensors alive across the boundary
    before position ``i`` (of the sorted ``layers`` list) — produced on one
    side, consumed on the other, in either direction: activations flow
    forward and gradients flow backward, and a stage cut must move both
    between the two stages' devices.  ``result[0]`` is always 0 (no cut
    before the first layer).
    """
    position = {layer: index for index, layer in enumerate(layers)}
    diff = [0.0] * (len(layers) + 1)
    for tensor_name, spec in graph.tensors.items():
        producer = spec.producer
        if producer is None:
            continue
        start = end = position[layer_of.get(producer, layers[0])]
        for consumer in graph.consumers_of(tensor_name):
            pos = position[layer_of.get(consumer.name, layers[0])]
            start = min(start, pos)
            end = max(end, pos)
        if end > start:
            size = float(spec.size_bytes())
            diff[start + 1] += size
            diff[end + 1] -= size
    cuts = [0.0] * len(layers)
    running = 0.0
    for index in range(1, len(layers)):
        running += diff[index]
        cuts[index] = running
    return cuts


@perf.timed("pass.assign_pipeline_stages")
def assign_pipeline_stages(
    graph: Graph,
    machine: Topology,
    num_stages: int,
    *,
    layer_of: Optional[Dict[str, int]] = None,
) -> StageAssignment:
    """Group the graph's layers into ``num_stages`` contiguous stages.

    Per-layer cost is the summed roofline kernel time of the layer's forward
    and backward nodes on the machine's first device; the contiguous split
    minimises the bottleneck stage.  ``layer_of`` lets callers that already
    ran :func:`full_layer_assignment` skip the second graph traversal.

    On a multi-machine topology the split also charges each candidate cut with the time of moving its
    boundary tensors (:func:`layer_cut_bytes`) over the link between the two
    stages' devices, so the DP steers low-traffic cuts onto the expensive
    cross-machine edges.  On one machine the scoring reduces exactly to the
    flat compute balance.
    """
    if layer_of is None:
        layer_of = full_layer_assignment(graph)
    layers = sorted(set(layer_of.values()))
    if num_stages > len(layers):
        raise ExecutionError(
            f"pipeline wants {num_stages} stages but the graph only has "
            f"{len(layers)} layers"
        )
    stage_devices = pipeline_stage_devices(machine, num_stages)
    device_spec = machine.device(0)
    cost_of_layer = {layer: 0.0 for layer in layers}
    for node in graph.nodes:
        cost_of_layer[layer_of[node]] += node_kernel_time(
            graph, node, device_spec, machine
        )
    costs = [cost_of_layer[layer] for layer in layers]
    if machine.num_machines > 1:
        cuts = layer_cut_bytes(graph, layer_of, layers)
        # Seconds per cut position for the link into each stage > 0.
        cut_cost_of_stage = [
            machine.link_between(stage_devices[s - 1], stage_devices[s])
            for s in range(1, num_stages)
        ]
        bounds = _link_aware_partition(costs, cuts, cut_cost_of_stage)
    else:
        bounds = balanced_contiguous_partition(costs, num_stages)
    stage_of_layer: Dict[int, int] = {}
    stage_costs: List[float] = []
    for stage, (start, end) in enumerate(bounds):
        stage_costs.append(sum(costs[start:end]))
        for index in range(start, end):
            stage_of_layer[layers[index]] = stage
    stage_of_node = {
        node: stage_of_layer[layer_of[node]] for node in graph.nodes
    }
    return StageAssignment(
        num_stages=num_stages,
        stage_of_node=stage_of_node,
        stage_of_layer=stage_of_layer,
        stage_costs=stage_costs,
        stage_devices=stage_devices,
    )


def _link_aware_partition(
    costs: Sequence[float],
    cut_bytes: Sequence[float],
    boundary_links,
) -> List[Tuple[int, int]]:
    """:func:`balanced_contiguous_partition` with each stage additionally
    charged the transfer time of its boundary cuts over ``boundary_links``
    (``boundary_links[s]`` is the link between stage ``s`` and ``s + 1``).

    Both sides of a cut pay its transfer: the sender's link/NIC is occupied
    and the receiver waits, so in steady state the transfer extends both
    stages' periods.  That is what steers the DP towards low-traffic cuts on
    expensive edges even when the compute balance barely moves.
    """
    return _partition_dp(
        costs, len(boundary_links) + 1, cut_bytes, boundary_links
    )


def _partition_dp(
    costs: Sequence[float],
    num_groups: int,
    cut_bytes: Optional[Sequence[float]],
    boundary_links,
) -> List[Tuple[int, int]]:
    """The one min-max linear-partition DP behind both stage-split flavours.

    ``best[k][i]``: minimal bottleneck cost splitting the first ``i`` items
    into ``k`` groups; ``cut[k][i]``: where the last group starts in that
    optimum.  When ``boundary_links`` is given, group ``k``'s cost includes
    the transfer time of its inbound cut (over the link from group ``k-1``)
    and its outbound cut (over the link to group ``k+1``); without it the
    cost is the plain item sum.
    """
    n = len(costs)
    if num_groups > n:
        raise ExecutionError(
            f"cannot split {n} layers into {num_groups} pipeline stages"
        )
    prefix = [0.0]
    for cost in costs:
        prefix.append(prefix[-1] + cost)

    INF = float("inf")
    best = [[INF] * (n + 1) for _ in range(num_groups + 1)]
    cut = [[0] * (n + 1) for _ in range(num_groups + 1)]
    best[0][0] = 0.0
    for k in range(1, num_groups + 1):
        inbound = outbound = None
        if boundary_links is not None:
            inbound = boundary_links[k - 2] if k > 1 else None
            outbound = boundary_links[k - 1] if k < num_groups else None
        for i in range(k, n + 1):
            outbound_cost = (
                outbound.transfer_time(cut_bytes[i])
                if outbound is not None and i < n
                else 0.0
            )
            for j in range(k - 1, i):
                stage_cost = prefix[i] - prefix[j] + outbound_cost
                if inbound is not None:
                    stage_cost += inbound.transfer_time(cut_bytes[j])
                candidate = max(best[k - 1][j], stage_cost)
                if candidate < best[k][i]:
                    best[k][i] = candidate
                    cut[k][i] = j
    bounds: List[Tuple[int, int]] = []
    end = n
    for k in range(num_groups, 0, -1):
        start = cut[k][end]
        bounds.append((start, end))
        end = start
    bounds.reverse()
    return bounds


# ---------------------------------------------------------------------------
# Micro-batch scheduling (GPipe / 1F1B)
# ---------------------------------------------------------------------------
SCHEDULE_STYLES = ("gpipe", "1f1b")


@dataclass(frozen=True)
class PipelineSchedule:
    """Per-stage slot order of a micro-batched pipeline.

    ``slots_of_stage[s]`` is the ordered list of ``(phase, microbatch)``
    slots stage ``s`` executes, where ``phase`` is ``"fwd"`` or ``"bwd"``.
    The order is what the lowering turns into stage-ordering control
    dependencies, so the simulator replays exactly this schedule.
    """

    num_stages: int
    num_microbatches: int
    style: str
    slots_of_stage: List[List[Tuple[str, int]]] = field(default_factory=list)

    def inflight(self, stage: int) -> int:
        """Micro-batches whose activations stage ``stage`` stashes at peak."""
        if self.style == "1f1b":
            return min(self.num_microbatches, self.num_stages - stage)
        return self.num_microbatches


@perf.timed("pass.pipeline_schedule")
def pipeline_schedule(
    num_stages: int, num_microbatches: int, *, style: str = "1f1b"
) -> PipelineSchedule:
    """Emit the slot order of a GPipe (all-forward-then-all-backward) or
    1F1B (one-forward-one-backward, PipeDream-flush style) schedule."""
    if style not in SCHEDULE_STYLES:
        raise ExecutionError(
            f"unknown pipeline schedule {style!r} "
            f"(known: {', '.join(SCHEDULE_STYLES)})"
        )
    slots_of_stage: List[List[Tuple[str, int]]] = []
    for stage in range(num_stages):
        slots: List[Tuple[str, int]] = []
        if style == "gpipe":
            slots.extend(("fwd", m) for m in range(num_microbatches))
            slots.extend(("bwd", m) for m in range(num_microbatches))
        else:
            warmup = min(num_microbatches, num_stages - 1 - stage)
            for m in range(warmup):
                slots.append(("fwd", m))
            for m in range(warmup, num_microbatches):
                slots.append(("fwd", m))
                slots.append(("bwd", m - warmup))
            for m in range(num_microbatches - warmup, num_microbatches):
                slots.append(("bwd", m))
        slots_of_stage.append(slots)
    return PipelineSchedule(
        num_stages=num_stages,
        num_microbatches=num_microbatches,
        style=style,
        slots_of_stage=slots_of_stage,
    )


@perf.timed("pass.stage_memory_report")
def stage_memory_report(
    graph: Graph,
    stage_of_node: Mapping[str, int],
    num_stages: int,
    *,
    num_microbatches: int = 1,
    schedule: Optional[PipelineSchedule] = None,
) -> Dict[int, int]:
    """Per-stage peak bytes under micro-batched pipeline execution.

    Buffers from the global memory plan are charged to the stage of their
    producing node (graph inputs to their first consumer's stage), exactly
    like operator placement.  Persistent buffers (weights, optimiser state)
    are charged once; transient buffers (activations, gradients, data) shrink
    to one micro-batch (``1/M``) but must be stashed for every in-flight
    micro-batch of the stage's schedule, so they scale by ``inflight / M``.
    With one stage and one micro-batch this reduces to the single-device
    memory plan.
    """
    plan = memory_plan_of(graph)
    # A buffer is persistent if any tensor living in it is (in-place updates
    # alias gradients onto weight buffers; the weight's lifetime wins).
    persistent_buffers = {
        buffer_id
        for tensor_name, buffer_id in plan.buffer_of.items()
        if graph.tensor(tensor_name).is_persistent()
    }
    seen_buffers: Dict[int, int] = {}
    persistent = {stage: 0 for stage in range(num_stages)}
    transient = {stage: 0 for stage in range(num_stages)}
    for tensor_name, buffer_id in plan.buffer_of.items():
        if buffer_id in seen_buffers:
            continue
        spec = graph.tensor(tensor_name)
        if spec.producer is not None:
            stage = stage_of_node.get(spec.producer, 0)
        else:
            consumers = graph.consumers_of(tensor_name)
            stage = (
                stage_of_node.get(consumers[0].name, 0) if consumers else 0
            )
        seen_buffers[buffer_id] = stage
        size = plan.buffer_sizes[buffer_id]
        if buffer_id in persistent_buffers:
            persistent[stage] += size
        else:
            transient[stage] += size
    report: Dict[int, int] = {}
    for stage in range(num_stages):
        inflight = schedule.inflight(stage) if schedule is not None else 1
        scale = inflight / num_microbatches if num_microbatches else 1.0
        report[stage] = persistent[stage] + int(transient[stage] * scale)
    return report
