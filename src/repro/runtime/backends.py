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
* ``placement`` — layers dealt round-robin over the devices, cross-device
  activations copied between them (the Operator-Placement baseline);
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
from itertools import chain
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ExecutionError
from repro.graph.graph import Graph
from repro.plugins import BackendRegistry, reject_unknown_options
from repro.runtime.passes import (
    assign_pipeline_stages,
    device_memory_report,
    full_layer_assignment,
    make_comm_task,
    make_compute_task,
    pipeline_schedule,
    producer_deps,
    round_robin_layer_placement,
    scheduled_nodes,
    stage_memory_report,
)
from repro.runtime.program import LoweredProgram
from repro.sim.costmodel import node_kernel_time
from repro.sim.device import MachineSpec, Topology, slice_topology_range
from repro.sim.engine import HOST_DEVICE, TaskGraphBuilder, TaskView
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
        reject_unknown_options(
            options, self.option_names,
            owner=f"execution backend {self.name!r}", error_cls=ExecutionError,
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
def lower_single_device(
    graph: Graph, machine: Topology, plan=None
) -> LoweredProgram:
    """One compute task per node, all on device 0."""
    device_spec = machine.device(0)

    def emit() -> TaskGraphBuilder:
        tasks = TaskGraphBuilder()
        id_of: Dict[str, int] = {}
        for node in scheduled_nodes(graph):
            id_of[node.name] = make_compute_task(
                tasks, graph, node.name, 0, device_spec, machine,
                deps=[id_of[p] for p in producer_deps(graph, node)],
            )
        return tasks

    return LoweredProgram(
        backend="single-device",
        num_devices=1,
        tasks=emit,
        per_device_memory=device_memory_report(graph, [0]),
    )


def lower_placement(
    graph: Graph, machine: Topology, plan=None
) -> LoweredProgram:
    """Operator-placement execution: layers are dealt round-robin over the
    devices (:func:`round_robin_layer_placement`), each node runs on its
    layer's device, and tensors crossing devices are copied over the link
    between them (PCI-e within a machine, the network across machines)."""
    device_of = round_robin_layer_placement(graph, machine.num_devices)
    tasks = TaskGraphBuilder()
    id_of: Dict[str, int] = {}
    total_comm = 0.0
    for node in scheduled_nodes(graph):
        device = device_of[node.name]
        device_spec = machine.device(device)
        deps = []
        for tensor in node.inputs:
            producer = graph.tensor(tensor).producer
            if producer is None:
                continue
            producer_device = device_of[producer]
            if producer_device == device:
                deps.append(id_of[producer])
                continue
            copy_name = f"{tensor}@copy_to{device}"
            copy = id_of.get(copy_name)
            if copy is None:
                copy_bytes = float(graph.tensor(tensor).size_bytes())
                copy = id_of[copy_name] = make_comm_task(
                    tasks, copy_name, device, copy_bytes,
                    src=producer_device, deps=[id_of[producer]],
                )
                total_comm += copy_bytes
            deps.append(copy)
        id_of[node.name] = make_compute_task(
            tasks, graph, node.name, device, device_spec, machine, deps=deps
        )
    # One micro-batch, no schedule: each device is a "stage" holding its
    # placed nodes' buffers.
    memory = stage_memory_report(graph, device_of, machine.num_devices)
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
    batch and gradients are ring-all-reduced — each device gathers from its
    ring neighbour, over whichever link joins the two."""
    num = machine.num_devices
    tasks = TaskGraphBuilder()
    total_comm = 0.0
    scale = 1.0 / num
    topo = scheduled_nodes(graph)
    last_node = list(graph.nodes)[-1]
    # Ring all-reduce of the gradients: 2 * (k-1)/k of the weight bytes
    # traverse the link from each device's ring neighbour.  One device has
    # no ring.
    reduce_bytes = 2.0 * (num - 1) / num * float(graph.weight_bytes())
    for device in range(num):
        device_spec = machine.device(device)
        id_of: Dict[str, int] = {}
        for node in topo:
            id_of[node.name] = make_compute_task(
                tasks, graph, node.name, device, device_spec, machine,
                deps=[id_of[p] for p in producer_deps(graph, node)],
                scale=scale, task_name=f"{node.name}@{device}",
            )
        if num > 1:
            make_comm_task(
                tasks, f"allreduce@{device}", device, reduce_bytes,
                src=(device + 1) % num, deps=[id_of[last_node]],
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
    prev_compute: Optional[int] = None
    prev_transfer: Optional[int] = None
    for step in schedule.steps:
        barrier = [t for t in (prev_compute, prev_transfer) if t is not None]
        prev_transfer = None
        moved = step.moved_in_bytes + step.moved_out_bytes
        if moved > 0:
            # All concurrent GPUs replay this transfer over the one shared
            # host link, so the aggregate link carries k times the bytes.
            link_bytes = moved * concurrent_gpus
            prev_transfer = make_comm_task(
                tasks, f"{step.node}:swap", 0, link_bytes, src=HOST_DEVICE,
                deps=barrier,
            )
            total_comm += link_bytes
        prev_compute = make_compute_task(
            tasks, graph, step.node, 0, device_spec, machine, deps=barrier
        )

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
    stage_devices, stage_of_node = stages.stage_devices, stages.stage_of_node
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
        stage = stage_of_node[node.name]
        if node.name in optimizer_set:
            opt_of_stage[stage].append(node)
        elif node.name in fwd_set:
            fwd_of_stage[stage].append(node)
        else:
            bwd_of_stage[stage].append(node)

    scale = 1.0 / num_microbatches
    # A node's inputs are the same in every micro-batch: resolve them once
    # per node, not once per emitted task, to (tensor, producer, producer's
    # stage, whether the producer is an optimiser node).
    inputs_of: Dict[str, List[Tuple[str, str, int, bool]]] = {
        node.name: [
            (tensor, producer, stage_of_node[producer], producer in optimizer_set)
            for tensor in node.inputs
            if (producer := graph.tensor(tensor).producer) is not None
        ]
        for node in topo
    }

    # Cross-stage tensors are per-micro-batch activations/gradients; one
    # copy serves every consumer of (tensor, stage, micro-batch), so a
    # backward task reuses the activation its forward copy stashed.  The
    # copies are keyed, and their volume summed, in emission order.
    copy_bytes: Dict[Tuple[str, int, int], float] = {
        (tensor, stage, microbatch): float(graph.tensor(tensor).size_bytes()) * scale
        for stage in range(num_stages)
        for phase, microbatch in sched.slots_of_stage[stage]
        for node in (fwd_of_stage if phase == "fwd" else bwd_of_stage)[stage]
        for tensor, _, source_stage, _ in inputs_of[node.name]
        if source_stage != stage
    }
    comm_total = 0.0
    for size in copy_bytes.values():
        comm_total += size

    def emit() -> TaskGraphBuilder:
        # A node's kernel price is the same in every micro-batch; optimiser
        # nodes run once, on the accumulated full-batch gradient.
        duration_of = {
            node.name: node_kernel_time(
                graph, node.name,
                machine.device(stage_devices[stage_of_node[node.name]]), machine,
                scale=1.0 if node.name in optimizer_set else scale,
            )
            for node in topo
        }
        # Row ids (a row's index in ``rows``) of the tasks, one table per
        # micro-batch and one of the optimiser nodes, and of the copies, by
        # the key of ``copy_bytes``.
        rows: List[tuple] = []
        ids_of_mb: List[Dict[str, int]] = [{} for _ in range(num_microbatches)]
        opt_ids: Dict[str, int] = {}
        copies: Dict[Tuple[str, int, int], int] = {}
        # A copy into an earlier stage can wait on a later stage's backward
        # task: (copy id, producer's id table, producer), filled in at the end.
        waiting: List[Tuple[int, Dict[str, int], str]] = []
        for stage in range(num_stages):
            device = stage_devices[stage]
            after: Tuple[int, ...] = ()
            for phase, microbatch in sched.slots_of_stage[stage]:
                ids = ids_of_mb[microbatch]
                tag = f"#mb{microbatch}"
                for node in (fwd_of_stage if phase == "fwd" else bwd_of_stage)[stage]:
                    deps: List[int] = []
                    for tensor, producer, source_stage, is_opt in inputs_of[node.name]:
                        table = opt_ids if is_opt else ids
                        if source_stage == stage:
                            deps.append(table[producer])
                            continue
                        key = (tensor, stage, microbatch)
                        copy = copies.get(key)
                        if copy is None:
                            copy = copies[key] = len(rows)
                            source = table.get(producer)
                            if source is None:
                                waiting.append((copy, table, producer))
                            rows.append((
                                f"{tensor}@s{stage}{tag}", device, "comm", 0.0,
                                copy_bytes[key], () if source is None else (source,),
                                (), stage_devices[source_stage], device,
                            ))
                        deps.append(copy)
                    ids[node.name] = task = len(rows)
                    rows.append((
                        node.name + tag, device, "compute", duration_of[node.name],
                        0.0, tuple(deps), after, None, None,
                    ))
                    after = (task,)
            # Weight update runs once per iteration, after the last backward
            # micro-batch of the stage (gradient accumulation rides on the
            # backward kernels' output writes, as the cost model assumes): it
            # consumes the accumulated gradient, so it depends on every
            # micro-batch's producer task.
            for node in opt_of_stage[stage]:
                deps = []
                for _, producer, _, is_opt in inputs_of[node.name]:
                    if is_opt:
                        deps.append(opt_ids[producer])
                    else:
                        deps.extend([ids[producer] for ids in ids_of_mb])
                opt_ids[node.name] = task = len(rows)
                rows.append((
                    node.name, device, "compute", duration_of[node.name], 0.0,
                    tuple(deps), after, None, None,
                ))
                after = (task,)
        for copy, table, producer in waiting:
            row = rows[copy]
            rows[copy] = row[:5] + ((table[producer],),) + row[6:]
        tasks = TaskGraphBuilder()
        tasks.extend(rows)
        return tasks

    stage_memory = stage_memory_report(
        graph,
        stage_of_node,
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
        machine.link_between(stage_devices[s - 1], stage_devices[s]).kind == "net"
        for s in range(1, num_stages)
    )
    return LoweredProgram(
        backend="pipeline",
        num_devices=num_stages,
        tasks=emit,
        per_device_memory=memory,
        total_comm_bytes=comm_total,
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
        stage_of_node=stage_of_node,
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
    groups at the end of the iteration (each device gathers ``2 (G-1)/G`` of
    its weight shard from the same device of the next group, over whichever
    link joins the two).  On a multi-machine topology each group's
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
    group_programs: List[LoweredProgram] = []
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
        group_programs.append(group_program)
        if multi_machine:
            total_comm += group_program.total_comm_bytes * scale
        for _ in range(group_devices):  # one all-reduce per device
            total_comm += reduce_bytes
        for device, required in group_program.per_device_memory.items():
            memory[device + offset] = required

    def emit(count: int) -> TaskGraphBuilder:  # the first ``count`` groups
        # A group program numbers tasks and devices locally.  Each distinct
        # one (group 0's for every group on one machine) is unzipped into
        # columns once, its durations and bytes scaled by 1/G, and its sinks
        # found: the rows no other row of the group depends on.
        columns: Dict[int, tuple] = {}
        for group_program in group_programs[:count]:
            if id(group_program) not in columns:
                rows = group_program.task_graph.rows
                names, devices, kinds, durations, nbytes, deps, after, srcs, dsts = (
                    zip(*rows) if rows else [()] * 9
                )
                referenced = set(chain.from_iterable(deps + after))
                columns[id(group_program)] = (
                    names, devices, kinds, [value * scale for value in durations],
                    [value * scale for value in nbytes], deps, after, srcs, dsts,
                    [i for i in range(len(rows)) if i not in referenced],
                )
        tasks = TaskGraphBuilder()
        for group, group_program in enumerate(group_programs[:count]):
            names, devices, kinds, durations, nbytes, deps, after, srcs, dsts, sinks = (
                columns[id(group_program)]
            )
            # The rows go after everything emitted so far: dependency ids shift
            # by the group's base, and devices onto the group's slice.
            offset = group * group_devices
            base = len(tasks.rows)
            if base:
                shift_ids = base.__add__
                deps = [tuple(map(shift_ids, ids)) for ids in deps]
                after = [tuple(map(shift_ids, ids)) if ids else () for ids in after]
            shift = {device: device + offset for device in range(group_devices)}
            move = {**shift, None: None, HOST_DEVICE: HOST_DEVICE}.__getitem__
            suffix = f"@grp{group}"
            tasks.extend(list(zip(
                [name + suffix for name in names], map(move, devices), kinds,
                durations, nbytes, deps, after, map(move, srcs), map(move, dsts),
            )))
            group_sinks = [base + i for i in sinks]
            neighbour_offset = ((group + 1) % groups) * group_devices
            for local_device in range(group_devices):
                make_comm_task(
                    tasks, f"allreduce@d{local_device}@grp{group}",
                    offset + local_device, reduce_bytes,
                    src=neighbour_offset + local_device, deps=group_sinks,
                )
        return tasks

    stats["allreduce_bytes"] = reduce_bytes * groups * group_devices
    # One machine: every group runs group 0's program, so may replay as one.
    replica = None if multi_machine else (groups, group_devices, lambda: emit(1))
    return LoweredProgram(
        backend="hybrid",
        num_devices=machine.num_devices,
        tasks=TaskView(lambda: emit(groups), replica),
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
