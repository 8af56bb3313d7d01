"""Execution-backend protocol and registry.

An *execution backend* lowers a dataflow graph (plus, for partitioned
execution, a :class:`PartitionPlan`) to a :class:`LoweredProgram` of
device-assigned tasks and a memory report — the execution twin of the
planner's search-backend registry.  The registry maps string keys to
:class:`ExecutionBackendSpec` entries so the :class:`repro.runtime.Executor`
facade, the CLI (``--executor``) and the evaluation harness can select any
registered execution style without hand-wiring imports:

* ``tofu-partitioned`` — Tofu's per-worker sharded execution (Sec 6);
* ``single-device`` — the whole graph on one GPU (Ideal / SmallBatch);
* ``placement`` — whole operators assigned to devices, cross-device
  activations copied over PCI-e (the Operator-Placement baseline);
* ``data-parallel`` — every device runs the full graph on its batch shard and
  gradients are ring-all-reduced;
* ``swap`` — single-GPU execution with LRU swapping over the shared CPU link
  (the swapping baseline of Sec 7.1);
* ``pipeline`` — GPipe/1F1B micro-batch pipelining over contiguous layer
  stages (the pipeline-parallel alternative of the paper's related work);
* ``hybrid`` — data-parallel replica groups, each running an inner
  model-parallel backend (the hybrid strategy RaNNC-style systems compose).

A new execution style is one :func:`register_execution_backend` call with an
:class:`ExecutionBackendSpec`, made in-process like the built-ins below.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ExecutionError
from repro.graph.graph import Graph
from repro.plugins import BackendRegistry
from repro.runtime.passes import (
    assign_pipeline_stages,
    device_memory_report,
    full_layer_assignment,
    make_comm_task,
    make_compute_task,
    memory_plan_of,
    pipeline_schedule,
    producer_deps,
    scheduled_nodes,
    stage_memory_report,
)
from repro.runtime.program import LoweredProgram
from repro.sim.costmodel import node_kernel_time
from repro.sim.device import MachineSpec, Topology, slice_topology_range
from repro.sim.engine import HOST_DEVICE, TaskGraphBuilder
from repro.sim.swap import swap_residency_schedule


class ExecutionBackend:
    """Structural type of a lowering entry point (callable protocol)."""

    def __call__(
        self,
        graph: Graph,
        machine: MachineSpec,
        plan=None,
        **options: object,
    ) -> LoweredProgram: ...


@dataclass(frozen=True)
class ExecutionBackendSpec:
    """One registered execution backend.

    Attributes:
        name: Registry key (what ``--executor`` and ``ExecutorConfig`` select).
        lower: The lowering entry point
            ``(graph, machine, plan=None, **options) -> LoweredProgram``.
        description: One-line summary shown by ``tofu-repro executors``.
        requires_plan: Whether lowering needs a :class:`PartitionPlan`.
        option_names: Keyword options the backend accepts; the executor
            rejects anything else up front with an :class:`ExecutionError`.
    """

    name: str
    lower: Callable[..., LoweredProgram]
    description: str = ""
    requires_plan: bool = False
    option_names: Sequence[str] = ()

    def validate_options(self, options: Mapping[str, object]) -> None:
        """Reject unknown keyword options early (raises ExecutionError)."""
        unknown = sorted(set(options) - set(self.option_names))
        if unknown:
            supported = ", ".join(sorted(self.option_names)) or "none"
            raise ExecutionError(
                f"execution backend {self.name!r} does not accept option(s) "
                f"{unknown} (supported: {supported})"
            )


_REGISTRY = BackendRegistry(kind="execution", error_cls=ExecutionError)


def register_execution_backend(
    spec: ExecutionBackendSpec, *, replace: bool = False
) -> ExecutionBackendSpec:
    """Register a backend; ``replace=True`` allows overriding an entry."""
    return _REGISTRY.register(spec, replace=replace)


def unregister_execution_backend(name: str) -> None:
    """Remove a backend (used by tests registering temporary backends)."""
    _REGISTRY.unregister(name)


def get_execution_backend(name: str) -> ExecutionBackendSpec:
    """Resolve a backend by name; raises :class:`ExecutionError` if unknown."""
    return _REGISTRY.get(name)


def available_execution_backends() -> List[str]:
    """Sorted names of all registered execution backends."""
    return _REGISTRY.available()


# ---------------------------------------------------------------------------
# Built-in backends
# ---------------------------------------------------------------------------
def _ring_reduce_task(
    builder: TaskGraphBuilder,
    name: str,
    topology: Topology,
    device: int,
    neighbour: int,
    reduce_bytes: float,
    *,
    deps: Sequence[str],
) -> None:
    """Emit one device's share of a ring all-reduce.

    In a ring each device sends every step over the same edge — the one
    towards its neighbour — so the whole per-device volume is priced on that
    single link: the device's own PCI-e link when the neighbour shares its
    machine (a gather of every peer's share into the device, the flat
    model's accounting), the destination machine's network NIC when the
    ring wraps across machines.
    """
    if topology.machine_of(device) != topology.machine_of(neighbour):
        src, dst = device, neighbour
    else:
        src, dst = None, device
    make_comm_task(builder, name, device, reduce_bytes, src=src, dst=dst, deps=deps)


def lower_single_device(
    graph: Graph, machine: Topology, plan=None
) -> LoweredProgram:
    """One compute task per node, all on device 0."""
    device_spec = machine.device(0)
    tasks = TaskGraphBuilder()
    for node in scheduled_nodes(graph):
        make_compute_task(
            tasks, graph, node.name, 0, device_spec, machine,
            deps=producer_deps(graph, node),
        )
    return LoweredProgram(
        backend="single-device",
        num_devices=1,
        tasks=tasks,
        per_device_memory=device_memory_report(graph, [0]),
    )


def placement_memory_report(
    graph: Graph,
    device_of_node: Mapping[str, int],
    num_devices: int,
) -> Dict[int, int]:
    """Per-device memory under operator placement.

    Buffers are charged to the device of the producing node (graph inputs are
    charged to the device of their first consumer); transient buffers reuse
    the global memory plan so the estimate stays consistent with the
    single-device accounting.
    """
    plan = memory_plan_of(graph)
    device_of_buffer: Dict[int, int] = {}
    per_device: Dict[int, int] = {d: 0 for d in range(num_devices)}
    for tensor_name, buffer_id in plan.buffer_of.items():
        spec = graph.tensor(tensor_name)
        if spec.producer is not None:
            device = device_of_node.get(spec.producer, 0)
        else:
            consumers = graph.consumers_of(tensor_name)
            device = device_of_node.get(consumers[0].name, 0) if consumers else 0
        if buffer_id in device_of_buffer:
            continue
        device_of_buffer[buffer_id] = device
        per_device[device] = per_device.get(device, 0) + plan.buffer_sizes[buffer_id]
    return per_device


def lower_placement(
    graph: Graph,
    machine: Topology,
    plan=None,
    *,
    device_of_node: Optional[Mapping[str, int]] = None,
) -> LoweredProgram:
    """Operator-placement execution: each node runs on its assigned device and
    tensors crossing devices are copied over the link between them (PCI-e
    within a machine, the network across machines)."""
    if device_of_node is None:
        raise ExecutionError(
            "execution backend 'placement' needs a device_of_node mapping "
            "(node name -> device index)"
        )
    tasks = TaskGraphBuilder()
    total_comm = 0.0
    for node in scheduled_nodes(graph):
        device = device_of_node.get(node.name, 0)
        device_spec = machine.device(device)
        deps = []
        for tensor in node.inputs:
            producer = graph.tensor(tensor).producer
            if producer is None:
                continue
            producer_device = device_of_node.get(producer, 0)
            if producer_device == device:
                deps.append(producer)
            else:
                copy_name = f"{tensor}@copy_to{device}"
                if copy_name not in tasks:
                    copy_bytes = float(graph.tensor(tensor).size_bytes())
                    make_comm_task(
                        tasks, copy_name, device, copy_bytes,
                        src=producer_device, deps=[producer],
                    )
                    total_comm += copy_bytes
                deps.append(copy_name)
        make_compute_task(
            tasks, graph, node.name, device, device_spec, machine, deps=deps
        )
    memory = placement_memory_report(graph, device_of_node, machine.num_devices)
    return LoweredProgram(
        backend="placement",
        num_devices=machine.num_devices,
        tasks=tasks,
        per_device_memory=memory,
        total_comm_bytes=total_comm,
    )


def lower_data_parallel(
    graph: Graph, machine: Topology, plan=None
) -> LoweredProgram:
    """Data-parallel execution: every device runs the full graph on 1/k of the
    batch and gradients are ring-all-reduced — over PCI-e within a machine,
    over the network when a device's ring neighbour sits on another machine."""
    num = machine.num_devices
    weight_bytes = float(graph.weight_bytes())
    tasks = TaskGraphBuilder()
    total_comm = 0.0
    scale = 1.0 / num
    topo = scheduled_nodes(graph)
    for device in range(num):
        device_spec = machine.device(device)
        for node in topo:
            deps = [f"{p}@{device}" for p in producer_deps(graph, node)]
            make_compute_task(
                tasks, graph, node.name, device, device_spec, machine,
                deps=deps, scale=scale, task_name=f"{node.name}@{device}",
            )
        # Ring all-reduce of the gradients: 2 * (k-1)/k of the weight bytes
        # traverse the link towards each device's ring neighbour.
        last_node = list(graph.nodes)[-1]
        reduce_bytes = 2.0 * (num - 1) / num * weight_bytes
        _ring_reduce_task(
            tasks, f"allreduce@{device}", machine, device, (device + 1) % num,
            reduce_bytes, deps=[f"{last_node}@{device}"],
        )
        total_comm += reduce_bytes
    memory = device_memory_report(graph, range(num))
    return LoweredProgram(
        backend="data-parallel",
        num_devices=num,
        tasks=tasks,
        per_device_memory=memory,
        total_comm_bytes=total_comm,
    )


def lower_swap(graph: Graph, machine: Topology, plan=None) -> LoweredProgram:
    """Single-GPU execution with CPU-memory swapping on the shared host link.

    The residency state machine (:func:`repro.sim.swap.swap_residency_schedule`)
    decides what moves; lowering emits those moves as host-copy comm tasks
    (``src=HOST_DEVICE``), priced on the shared host link.
    Every GPU of the machine runs the same schedule at once, so each recorded
    transfer is charged once per GPU over the shared aggregate link — which
    is how the paper's swapping baseline collapses when all eight GPUs swap
    together (Sec 7.2).  The swap runs on device 0, and prefetching overlaps
    an operator's transfer with its computation (the per-step dependency
    barrier joins them).
    """
    concurrent_gpus = machine.num_devices
    schedule = swap_residency_schedule(graph, machine)
    device_spec = machine.device(0)
    capacity = device_spec.memory_bytes

    tasks = TaskGraphBuilder()
    total_comm = 0.0
    prev_compute: Optional[str] = None
    prev_transfer: Optional[str] = None
    for step in schedule.steps:
        barrier = [t for t in (prev_compute, prev_transfer) if t is not None]
        transfer_name = None
        moved = step.moved_in_bytes + step.moved_out_bytes
        if moved > 0:
            transfer_name = f"{step.node}:swap"
            # All concurrent GPUs replay this transfer over the one shared
            # host link, so the aggregate link carries k times the bytes.
            link_bytes = moved * concurrent_gpus
            make_comm_task(
                tasks, transfer_name, 0, link_bytes, src=HOST_DEVICE,
                deps=barrier,
            )
            total_comm += link_bytes
        make_compute_task(
            tasks, graph, step.node, 0, device_spec, machine, deps=list(barrier)
        )
        prev_compute = step.node
        prev_transfer = transfer_name

    # The memory report is the LRU's resident-set peak; on OOM it is the
    # working set that did not fit, so the simulator's capacity check fails.
    required = schedule.oom_required_bytes if schedule.oom else min(
        schedule.peak_resident_bytes, capacity
    )
    return LoweredProgram(
        backend="swap",
        num_devices=1,
        tasks=tasks,
        per_device_memory={0: required},
        total_comm_bytes=total_comm,
        stats={
            "swapped_in_bytes": schedule.swapped_in_bytes,
            "swapped_out_bytes": schedule.swapped_out_bytes,
            "concurrent_gpus": float(concurrent_gpus),
        },
    )


def lower_tofu_partitioned(
    graph: Graph,
    machine: Topology,
    plan=None,
    *,
    fuse_remote_fetch: bool = True,
    add_control_dependencies: bool = True,
    spread_reduction: bool = True,
) -> LoweredProgram:
    """Tofu's partitioned execution (Sec 6): per-worker sharded compute with
    fetch/reduce traffic, through :func:`generate_partitioned_graph`."""
    # Imported lazily: partition.apply builds on the shared lowering passes
    # of this package, so a module-level import would be circular.
    from repro.partition.apply import generate_partitioned_graph

    if plan is None:
        raise ExecutionError(
            "execution backend 'tofu-partitioned' needs a PartitionPlan "
            "(pass plan=... or use Planner.plan first)"
        )
    return generate_partitioned_graph(
        graph,
        plan,
        machine,
        fuse_remote_fetch=fuse_remote_fetch,
        add_control_dependencies=add_control_dependencies,
        spread_reduction=spread_reduction,
    )


def lower_pipeline(
    graph: Graph,
    machine: Topology,
    plan=None,
    *,
    num_stages: Optional[int] = None,
    num_microbatches: int = 4,
    schedule: str = "1f1b",
) -> LoweredProgram:
    """Pipeline-parallel execution: contiguous layer stages, micro-batched.

    The graph's layers are grouped into ``num_stages`` contiguous stages
    (balanced over the kernel-cost pass, one stage per device) and each
    iteration is split into ``num_microbatches`` micro-batches whose compute
    shrinks to ``1/M`` of the full-batch kernels.  Activations and gradients
    crossing a stage boundary travel over the link between the two stages'
    devices (PCI-e within a machine, the network across machines), and the
    chosen ``schedule`` (``"gpipe"`` or ``"1f1b"``) is emitted as
    stage-ordering control dependencies, so the simulator replays exactly
    that slot order and its idle time is the pipeline bubble.

    On a multi-machine topology the stages spread across the machines and
    the stage-assignment DP scores candidate layer cuts against the link
    they cross.  With one stage and one micro-batch this degenerates to
    single-device execution (the parity the tests pin down).
    """
    if num_microbatches < 1:
        raise ExecutionError("pipeline needs at least one micro-batch")
    layer_of = full_layer_assignment(graph)
    num_layers = len(set(layer_of.values()))
    if num_stages is None:
        num_stages = max(1, min(machine.num_devices, num_layers))
    if not 1 <= num_stages <= machine.num_devices:
        raise ExecutionError(
            f"pipeline wants {num_stages} stages on a machine with "
            f"{machine.num_devices} devices"
        )
    stages = assign_pipeline_stages(graph, machine, num_stages, layer_of=layer_of)
    stage_devices = stages.stage_devices
    sched = pipeline_schedule(num_stages, num_microbatches, style=schedule)

    topo = scheduled_nodes(graph)
    forward = graph.metadata.get("forward_nodes")
    fwd_set = set(forward) if forward is not None else {n.name for n in topo}
    optimizer_set = {
        node
        for nodes in graph.metadata.get("optimizer_nodes_of", {}).values()
        for node in nodes
    }
    fwd_of_stage: List[List] = [[] for _ in range(num_stages)]
    bwd_of_stage: List[List] = [[] for _ in range(num_stages)]
    opt_of_stage: List[List] = [[] for _ in range(num_stages)]
    for node in topo:
        stage = stages.stage_of_node[node.name]
        if node.name in optimizer_set:
            opt_of_stage[stage].append(node)
        elif node.name in fwd_set:
            fwd_of_stage[stage].append(node)
        else:
            bwd_of_stage[stage].append(node)

    scale = 1.0 / num_microbatches
    tasks = TaskGraphBuilder()
    comm_total = [0.0]

    # A node's input producers and its kernel price are the same in every
    # micro-batch: derive them once per node, not once per emitted task.
    # Optimiser nodes run once, on the accumulated full-batch gradient.
    producers_of: Dict[str, List[Tuple[str, str]]] = {}
    duration_of: Dict[str, float] = {}
    for node in topo:
        producers_of[node.name] = [
            (tensor, graph.tensor(tensor).producer)
            for tensor in node.inputs
            if graph.tensor(tensor).producer is not None
        ]
        device = stage_devices[stages.stage_of_node[node.name]]
        duration_of[node.name] = node_kernel_time(
            graph, node.name, machine.device(device), machine,
            scale=1.0 if node.name in optimizer_set else scale,
        )

    def task_ref(producer: str, microbatch: int) -> str:
        if producer in optimizer_set:
            return producer
        return f"{producer}#mb{microbatch}"

    def dep_for_input(
        tensor: str, producer: str, stage: int, microbatch: int
    ) -> str:
        ref = task_ref(producer, microbatch)
        producer_stage = stages.stage_of_node[producer]
        if producer_stage == stage:
            return ref
        # Cross-stage tensors are per-micro-batch activations/gradients; the
        # copy is shared by every consumer of (tensor, stage, micro-batch),
        # so a backward task reuses the activation its forward copy stashed.
        copy_name = f"{tensor}@s{stage}#mb{microbatch}"
        if copy_name not in tasks:
            copy_bytes = float(graph.tensor(tensor).size_bytes()) * scale
            make_comm_task(
                tasks, copy_name, stage_devices[stage], copy_bytes,
                src=stage_devices[producer_stage], deps=[ref],
            )
            comm_total[0] += copy_bytes
        return copy_name

    prev_of_stage: List[Optional[str]] = [None] * num_stages

    def emit_compute(node, stage: int, microbatch: int) -> None:
        name = task_ref(node.name, microbatch)
        deps: List[str] = []
        for tensor, producer in producers_of[node.name]:
            if microbatch < 0:
                # Optimiser nodes consume the accumulated gradient: depend on
                # every micro-batch's producer task.
                if producer in optimizer_set:
                    deps.append(producer)
                else:
                    deps.extend(
                        task_ref(producer, m) for m in range(num_microbatches)
                    )
                continue
            deps.append(dep_for_input(tensor, producer, stage, microbatch))
        prev = prev_of_stage[stage]
        tasks.add(
            name, stage_devices[stage], "compute", duration_of[node.name],
            deps=deps, after=() if prev is None else (prev,),
        )
        prev_of_stage[stage] = name

    for stage in range(num_stages):
        for phase, microbatch in sched.slots_of_stage[stage]:
            group = fwd_of_stage if phase == "fwd" else bwd_of_stage
            for node in group[stage]:
                emit_compute(node, stage, microbatch)
        # Weight update runs once per iteration, after the last backward
        # micro-batch of the stage (gradient accumulation rides on the
        # backward kernels' output writes, as the cost model assumes).
        for node in opt_of_stage[stage]:
            emit_compute(node, stage, -1)

    stage_memory = stage_memory_report(
        graph,
        stages.stage_of_node,
        num_stages,
        num_microbatches=num_microbatches,
        schedule=sched,
    )
    # Key the memory report by the device each stage occupies (identical to
    # the stage index on one machine).
    memory = {
        stage_devices[stage]: required
        for stage, required in stage_memory.items()
    }
    cross_machine_cuts = sum(
        1
        for stage in range(1, num_stages)
        if machine.machine_of(stage_devices[stage - 1])
        != machine.machine_of(stage_devices[stage])
    )
    return LoweredProgram(
        backend="pipeline",
        num_devices=num_stages,
        tasks=tasks,
        per_device_memory=memory,
        total_comm_bytes=comm_total[0],
        stats={
            "num_stages": float(num_stages),
            "num_microbatches": float(num_microbatches),
            "bottleneck_stage_cost": max(stages.stage_costs),
            "stage_cost_spread": (
                max(stages.stage_costs) - min(stages.stage_costs)
            ),
            "cross_machine_boundaries": float(cross_machine_cuts),
        },
        num_microbatches=num_microbatches,
        stage_of_node=stages.stage_of_node,
        schedule=sched,
    )


def lower_hybrid(
    graph: Graph,
    machine: Topology,
    plan=None,
    *,
    replica_groups: int = 2,
    inner: str = "tofu-partitioned",
    inner_options: Optional[Mapping[str, object]] = None,
) -> LoweredProgram:
    """Hybrid data+model parallelism: replica groups × an inner backend.

    The topology's devices split into ``replica_groups`` equal groups; each
    group runs the ``inner`` execution backend (Tofu partitioning, pipeline,
    …) on ``1/G`` of the batch, and the gradients are ring-all-reduced across
    groups at the end of the iteration (``2 (G-1)/G`` of each device's weight
    shard traverses the link towards its ring neighbour — its own PCI-e link
    when the neighbour group shares the machine, the network NIC when the
    ring hops across machines, so intra- and inter-machine hops are priced
    separately on a cluster).  On a multi-machine topology each group's
    inner program is lowered on that group's own machine slice, so a group
    straddling a machine boundary prices its internal traffic over the
    boundary it actually crosses.  Per-group compute and communication are
    scaled by ``1/G``, assuming batch-proportional kernels; per-device memory
    keeps the inner report (weights dominate, and activation savings are left
    as headroom).  With one replica group the inner program is returned
    unchanged, which is the parity the tests pin down.

    ``plan``, when the inner backend needs one, must be searched for the
    group's device count (``num_devices / G`` workers), not the whole
    machine.  Callers should pass ``machine`` explicitly: resolving it from
    the plan would size it to one group only.
    """
    groups = int(replica_groups)
    if groups < 1:
        raise ExecutionError("hybrid needs at least one replica group")
    if inner == "hybrid":
        raise ExecutionError("hybrid cannot nest itself as the inner backend")
    if machine.num_devices % groups:
        raise ExecutionError(
            f"hybrid needs the device count ({machine.num_devices}) to be "
            f"divisible by replica_groups ({groups})"
        )
    group_devices = machine.num_devices // groups
    inner_spec = get_execution_backend(inner)
    options = dict(inner_options or {})
    inner_spec.validate_options(options)
    if inner_spec.requires_plan and plan is None:
        raise ExecutionError(
            f"hybrid inner backend {inner!r} requires a partition plan "
            f"searched for {group_devices} workers (one replica group)"
        )
    if plan is not None and getattr(plan, "num_workers", group_devices) != group_devices:
        raise ExecutionError(
            f"hybrid plan was searched for {plan.num_workers} workers but "
            f"each replica group has {group_devices} devices"
        )
    sub_machine = slice_topology_range(machine, 0, group_devices)
    program = inner_spec.lower(graph, sub_machine, plan, **options)
    stats = dict(program.stats)
    stats["replica_groups"] = float(groups)

    if groups == 1:
        return dataclasses.replace(
            program,
            backend="hybrid",
            stats=stats,
            plan=program.plan if program.plan is not None else plan,
        )

    scale = 1.0 / groups
    tasks = TaskGraphBuilder()
    memory: Dict[int, int] = {}
    multi_machine = machine.num_machines > 1
    # On one machine every group runs group 0's program at 1/G, so the
    # aggregate volume is exactly the inner program's (1/G per group × G
    # groups — the pre-cluster accounting, kept bit-identical).
    total_comm = 0.0 if multi_machine else program.total_comm_bytes
    # Ring all-reduce of each device's weight shard across the G groups.
    reduce_bytes = (
        2.0 * (groups - 1) / groups * float(graph.weight_bytes()) / group_devices
    )
    for group in range(groups):
        offset = group * group_devices
        if group == 0 or not multi_machine:
            # One machine: every group slice is structurally identical, so
            # group 0's program clones exactly (the pre-cluster accounting).
            group_program = program
        else:
            # On a cluster a group may straddle a machine boundary group 0
            # does not have (or sit on a different machine entirely), so its
            # transfers cross different links — lower the inner backend on
            # the group's own topology slice instead of cloning group 0's.
            group_machine = slice_topology_range(
                machine, offset, group_devices
            )
            group_program = inner_spec.lower(graph, group_machine, plan, **options)
        if multi_machine:
            total_comm += group_program.total_comm_bytes * scale

        def shifted(device: Optional[int]) -> Optional[int]:
            if device is None or device == HOST_DEVICE:
                return device
            return device + offset

        rows = group_program.task_graph.rows
        referenced = set()
        for row in rows:
            referenced.update(row.deps)
            referenced.update(row.after)
        group_sinks = [
            f"{row.name}@grp{group}" for row in rows if row.name not in referenced
        ]

        for row in rows:
            # The group program numbers devices locally: shift its devices
            # and endpoints onto the group's slice.
            tasks.add(
                f"{row.name}@grp{group}", shifted(row.device), row.kind,
                row.duration * scale, row.comm_bytes * scale,
                tuple(f"{dep}@grp{group}" for dep in row.deps),
                tuple(f"{dep}@grp{group}" for dep in row.after),
                shifted(row.src_device), shifted(row.dst_device),
            )
        neighbour_offset = ((group + 1) % groups) * group_devices
        for local_device in range(group_devices):
            reduce_name = f"allreduce@d{local_device}@grp{group}"
            _ring_reduce_task(
                tasks, reduce_name, machine,
                offset + local_device, neighbour_offset + local_device,
                reduce_bytes, deps=group_sinks,
            )
            total_comm += reduce_bytes
        for device, required in group_program.per_device_memory.items():
            memory[device + offset] = required

    stats["allreduce_bytes"] = reduce_bytes * groups * group_devices
    return LoweredProgram(
        backend="hybrid",
        num_devices=machine.num_devices,
        tasks=tasks,
        per_device_memory=memory,
        total_comm_bytes=total_comm,
        check_memory=program.check_memory,
        stats=stats,
        plan=plan,
        num_microbatches=program.num_microbatches,
        schedule=program.schedule,
    )


register_execution_backend(
    ExecutionBackendSpec(
        name="tofu-partitioned",
        lower=lower_tofu_partitioned,
        description="per-worker sharded execution of a partition plan (Sec 6)",
        requires_plan=True,
        option_names=(
            "fuse_remote_fetch", "add_control_dependencies", "spread_reduction",
        ),
    )
)
register_execution_backend(
    ExecutionBackendSpec(
        name="single-device",
        lower=lower_single_device,
        description="whole graph on one GPU (Ideal / SmallBatch baselines)",
    )
)
register_execution_backend(
    ExecutionBackendSpec(
        name="placement",
        lower=lower_placement,
        description="operator placement with PCI-e activation copies (Sec 7.1)",
        option_names=("device_of_node",),
    )
)
register_execution_backend(
    ExecutionBackendSpec(
        name="data-parallel",
        lower=lower_data_parallel,
        description="full graph per device on a batch shard, ring all-reduce",
    )
)
register_execution_backend(
    ExecutionBackendSpec(
        name="swap",
        lower=lower_swap,
        description="single-GPU LRU swapping over the shared CPU link (Sec 7.1)",
    )
)
register_execution_backend(
    ExecutionBackendSpec(
        name="pipeline",
        lower=lower_pipeline,
        description="GPipe/1F1B micro-batch pipeline over contiguous layer stages",
        option_names=("num_stages", "num_microbatches", "schedule"),
    )
)
register_execution_backend(
    ExecutionBackendSpec(
        name="hybrid",
        lower=lower_hybrid,
        description="data-parallel replica groups x an inner model-parallel backend",
        option_names=("replica_groups", "inner", "inner_options"),
    )
)
