"""Partitioned-graph generation (Sec 6).

Given a :class:`PartitionPlan`, this module materialises the per-worker
execution: every operator becomes ``k`` sharded compute tasks (one per
device), remote input regions become fetch tasks, and output reductions become
reduce tasks.  The three optimisations of Sec 6 are modelled explicitly:

* **Control dependencies** keep the per-worker memory planner able to reuse
  buffers exactly as in the unpartitioned graph; disabling them makes the
  per-worker transient pool revert to no-reuse allocation.
* **Fused remote fetch (MultiFetch)** assembles remote regions in place with a
  single kernel; disabling it stages the regions through intermediate buffers
  (extra memory) and pays one extra launch per fetched input.
* **Spread-out reduction (all-reduce)** distributes output-reduction traffic
  over all workers; disabling it funnels the reduction through worker 0.

The program is SPMD: devices with the same gather split, reduction share and
kernel prices emit the same rows but for their device id.  Each such lane
class builds one template lane, stamped once per device with its id offset.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict, List, Optional, Tuple

from repro.graph.graph import Graph
from repro.graph.node import OpNode
from repro.graph.tensor import TensorSpec
from repro.partition.cost import CommunicationCostModel
from repro.partition.plan import PartitionPlan
from repro.partition.recursive import _shrink_shapes
from repro.runtime.passes import memory_plan_of, producer_deps, scheduled_nodes
from repro.runtime.program import LoweredProgram
from repro.sim.costmodel import node_kernel_times
from repro.sim.device import Topology, k80_8gpu_machine
from repro.sim.engine import TaskGraphBuilder


#: Comm staging memory, as a multiple of the largest per-device fetch: the
#: fused MultiFetch kernel assembles remote regions in place (one staging
#: buffer); the unfused path splits, copies and concatenates, which needs
#: roughly twice the staging memory and keeps it alive longer (Sec 6).
FUSED_STAGING_FACTOR = 2.0
UNFUSED_STAGING_FACTOR = 5.0


def build_sharded_graph(graph: Graph, plan: PartitionPlan) -> Graph:
    """A copy of ``graph`` whose tensors have per-worker shard shapes.

    This graph is what one worker holds locally; the memory planner runs on it
    to obtain the per-worker footprint (which should be roughly ``1/k`` of the
    original, Sec 5 "Optimization goal").
    """
    sharded = Graph(f"{graph.name}@shard")
    for name, spec in graph.tensors.items():
        sharded.add_tensor(
            TensorSpec(
                name=name,
                shape=plan.shard_shape(name, spec.shape),
                dtype=spec.dtype,
                kind=spec.kind,
            )
        )
    for node in graph.nodes.values():
        sharded.add_node(
            OpNode(
                name=node.name,
                op=node.op,
                inputs=list(node.inputs),
                outputs=list(node.outputs),
                attrs=dict(node.attrs),
            )
        )
    sharded.metadata.update(graph.metadata)
    return sharded


def per_node_communication(
    graph: Graph, plan: PartitionPlan
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Cluster-wide fetch and reduction bytes of every node under ``plan``.

    Prices in the plan's own strategy space: a plan whose search had no
    output-reduction strategies (ICML18) is priced without them too.
    """
    fetch: Dict[str, float] = {name: 0.0 for name in graph.nodes}
    reduce_: Dict[str, float] = {name: 0.0 for name in graph.nodes}
    cost_model = CommunicationCostModel(graph, allow_reduction=plan.allows_reduction)
    shapes = {name: spec.shape for name, spec in graph.tensors.items()}
    group_count = 1
    for step in plan.steps:
        cost_model.set_shapes(shapes)
        for node_name in graph.nodes:
            _, in_bytes, out_bytes = cost_model.node_cost_detail(
                node_name, step.tensor_dims, step.parts
            )
            fetch[node_name] += in_bytes * group_count
            reduce_[node_name] += out_bytes * group_count
        shapes = _shrink_shapes(shapes, step)
        group_count *= step.parts
    return fetch, reduce_


def generate_partitioned_graph(
    graph: Graph,
    plan: PartitionPlan,
    machine: Optional[Topology] = None,
    *,
    fuse_remote_fetch: bool = True,
    add_control_dependencies: bool = True,
    spread_reduction: bool = True,
) -> LoweredProgram:
    """Lower ``plan`` to the ``tofu-partitioned`` program: the per-device
    task graph, the memory report, and the sharded graph plus per-node
    fetch/reduce bytes that report was derived from.

    ``machine`` may be a :class:`MachineSpec` or a multi-machine
    :class:`ClusterSpec`; each device's fetch/reduce traffic is split the
    way the topology's ``gather_split`` says (on a cluster, a local gather
    and a fetch from another machine), since the partition shards tensors
    over *every* worker uniformly.
    """
    if machine is None:
        machine = k80_8gpu_machine(plan.num_workers)
    num_devices = plan.num_workers

    # The search's own per-node prices, shared by reference; a plan without
    # them (decoded from a cache, or from another search) is priced afresh.
    fetch_bytes, reduce_bytes = plan.fetch_bytes_per_node, plan.reduce_bytes_per_node
    if (
        fetch_bytes is None
        or reduce_bytes is None
        or fetch_bytes.keys() != graph.nodes.keys()
    ):
        fetch_bytes, reduce_bytes = per_node_communication(graph, plan)
    total_comm = sum(fetch_bytes.values()) + sum(reduce_bytes.values())

    sharded = build_sharded_graph(graph, plan)
    memory_plan = memory_plan_of(sharded, allow_reuse=add_control_dependencies)

    max_fetch_per_device = max(
        (fetch_bytes[n] + reduce_bytes[n]) / num_devices for n in graph.nodes
    ) if graph.nodes else 0.0
    staging_factor = (
        FUSED_STAGING_FACTOR if fuse_remote_fetch else UNFUSED_STAGING_FACTOR
    )
    comm_buffer_bytes = int(staging_factor * max_fetch_per_device)

    per_device_memory = {
        d: memory_plan.peak_bytes + comm_buffer_bytes for d in range(num_devices)
    }

    scale = 1.0 / num_devices
    launch_penalty = 0.0 if fuse_remote_fetch else 3 * machine.kernel_launch_overhead

    def emit() -> TaskGraphBuilder:
        # A node's producers, as node indices in schedule order.
        order = scheduled_nodes(graph)
        node_index = {node.name: index for index, node in enumerate(order)}
        names = list(node_index)
        producers_of = [
            [node_index[p] for p in producer_deps(graph, node)] for node in order
        ]

        # A gather split is the share of the shards on the device's machine,
        # and a worker on another machine to fetch the rest from (if any).
        splits = [machine.gather_split(d, num_devices) for d in range(num_devices)]
        specs = [machine.device(d) for d in range(num_devices)]
        class_ids: Dict[tuple, int] = {}
        class_of = [
            class_ids.setdefault((
                home_share, away_src is not None, spread_reduction or device == 0,
                specs[device].peak_flops, specs[device].memory_bandwidth,
            ), len(class_ids))
            for device, (home_share, away_src) in enumerate(splits)
        ]
        leads = [class_of.index(cls) for cls in range(len(class_ids))]
        lead_specs = [specs[d] for d in leads]
        durations_of = [
            node_kernel_times(graph, name, lead_specs, machine, scale=scale)
            for name in names
        ]

        # One template lane per class, built for its first device: per node,
        # an optional local fetch, an optional network fetch, then the compute
        # task.  A compute row's dependencies are lane-relative ids; a fetch
        # row holds its node's index until every device's id offset is known.
        lanes: List[List[tuple]] = []
        compute_of: List[List[int]] = []
        for cls, device in enumerate(leads):
            home_share, away_src = splits[device]
            lane: List[tuple] = []
            compute: List[int] = []
            for index, (name, producers, durations) in enumerate(
                zip(names, producers_of, durations_of)
            ):
                if spread_reduction:
                    node_reduce_dev = reduce_bytes[name] / num_devices
                else:
                    node_reduce_dev = reduce_bytes[name] if device == 0 else 0.0
                comm_total = fetch_bytes[name] / num_devices + node_reduce_dev
                deps: List[int] = []
                if comm_total > 0.0 and producers:
                    local_bytes = comm_total * home_share
                    remote_bytes = 0.0 if away_src is None else comm_total - local_bytes
                    for suffix, nbytes, net in (
                        (":fetch", local_bytes, False),
                        (":netfetch", remote_bytes, True),
                    ):
                        if nbytes > 0.0:
                            deps.append(len(lane))
                            lane.append((name, suffix, "comm", nbytes, index, net))
                deps.extend(map(compute.__getitem__, producers))
                compute.append(len(lane))
                lane.append((
                    name, "", "compute", durations[cls] + launch_penalty,
                    tuple(deps), False,
                ))
            lanes.append(lane)
            compute_of.append(compute)

        # Rows are device-major: a device's lane starts where the lanes of the
        # devices before it end.  Remote regions come from every peer: a fetch
        # waits for the producers on all devices (a conservative
        # synchronisation), one id tuple per node shared by its k fetches.
        offsets = list(accumulate([len(lanes[cls]) for cls in class_of], initial=0))
        compute_ids = [
            (offset, compute_of[cls]) for offset, cls in zip(offsets, class_of)
        ]
        fetch_deps = [
            tuple([offset + ids[p] for p in producers for offset, ids in compute_ids])
            for producers in producers_of
        ]

        # Stamp each device's lane with its name tag, device id, id offset and
        # the worker its network fetches come from.
        rows: List[tuple] = []
        for device, (cls, offset, (_, away_src)) in enumerate(
            zip(class_of, offsets, splits)
        ):
            tag = f"@{device}"
            shift = offset.__add__
            rows.extend([
                (
                    name + tag, device, kind, value, 0.0,
                    tuple(map(shift, deps)), (), None, None,
                ) if kind == "compute" else (
                    name + tag + suffix, device, kind, 0.0, value,
                    fetch_deps[deps], (), away_src if net else None, device,
                )
                for name, suffix, kind, value, deps, net in lanes[cls]
            ])
        builder = TaskGraphBuilder()
        builder.extend(rows)
        return builder

    return LoweredProgram(
        backend="tofu-partitioned",
        num_devices=num_devices,
        tasks=emit,
        per_device_memory=per_device_memory,
        total_comm_bytes=total_comm,
        plan=plan,
        sharded_graph=sharded,
        fetch_bytes_per_node=fetch_bytes,
        reduce_bytes_per_node=reduce_bytes,
    )

