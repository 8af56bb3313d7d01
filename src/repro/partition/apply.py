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
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.graph.graph import Graph
from repro.graph.node import OpNode
from repro.graph.tensor import TensorSpec
from repro.partition.cost import CommunicationCostModel
from repro.partition.plan import PartitionPlan
from repro.partition.recursive import _shrink_shapes
from repro.runtime.passes import (
    make_comm_task,
    memory_plan_of,
    producer_deps,
    scheduled_nodes,
)
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
    :class:`ClusterSpec`; on a cluster each device's fetch/reduce traffic is
    split into the share gathered from machine-local peers (the device's
    PCI-e link) and the share crossing machines (the device's machine NIC),
    since the partition shards tensors over *every* worker uniformly.
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

    builder = TaskGraphBuilder()
    scale = 1.0 / num_devices
    launch_penalty = 0.0 if fuse_remote_fetch else 3 * machine.kernel_launch_overhead

    # Everything about a node that does not depend on the device is derived
    # once and shared by its k tasks: the producer list, the fetch
    # dependency tuple, and the node's features (priced on every device).
    device_specs = [machine.device(d) for d in range(num_devices)]
    lowered_nodes = []
    for node in scheduled_nodes(graph):
        name = node.name
        producers = producer_deps(graph, node)
        lowered_nodes.append((
            name,
            producers,
            # Remote regions come from every peer: the fetch waits for the
            # producers on all devices (a conservative synchronisation).
            tuple(f"{p}@{d}" for p in producers for d in range(num_devices)),
            fetch_bytes[name] / num_devices,
            reduce_bytes[name],
            node_kernel_times(graph, name, device_specs, machine, scale=scale),
        ))

    for device in range(num_devices):
        # Shards are spread uniformly over all workers, so the share of a
        # device's traffic staying on its machine is the fraction of workers
        # that are machine-local peers (all of them on one machine).
        machine_index = machine.machine_of(device)
        local_workers = sum(
            1
            for peer in machine.devices_of_machine(machine_index)
            if peer < num_devices
        )
        local_fraction = local_workers / num_devices
        # Any off-machine worker names the inter-machine edge the remote
        # share arrives over (this device's machine NIC); none on one machine.
        remote_peer = next(
            (d for d in range(num_devices) if machine.machine_of(d) != machine_index),
            None,
        )
        for name, producers, fetch_deps, node_fetch, node_reduce, durations in (
            lowered_nodes
        ):
            compute_name = f"{name}@{device}"
            deps: List[str] = []

            if spread_reduction:
                node_reduce_dev = node_reduce / num_devices
            else:
                node_reduce_dev = node_reduce if device == 0 else 0.0

            comm_total = node_fetch + node_reduce_dev
            if comm_total > 0.0 and producers:
                fetch_name = f"{name}@{device}:fetch"
                local_bytes = comm_total * local_fraction
                if local_bytes > 0.0:
                    make_comm_task(
                        builder, fetch_name, device, local_bytes, src=None,
                        deps=fetch_deps,
                    )
                    deps.append(fetch_name)
                remote_bytes = comm_total - local_bytes
                if remote_bytes > 0.0 and remote_peer is not None:
                    net_name = f"{name}@{device}:netfetch"
                    make_comm_task(
                        builder, net_name, device, remote_bytes,
                        src=remote_peer, deps=fetch_deps,
                    )
                    deps.append(net_name)
            deps.extend(f"{p}@{device}" for p in producers)

            builder.add(
                compute_name, device, "compute",
                durations[device] + launch_penalty, deps=deps,
            )

    return LoweredProgram(
        backend="tofu-partitioned",
        num_devices=num_devices,
        tasks=builder,
        per_device_memory=per_device_memory,
        total_comm_bytes=total_comm,
        plan=plan,
        sharded_graph=sharded,
        fetch_bytes_per_node=fetch_bytes,
        reduce_bytes_per_node=reduce_bytes,
    )
