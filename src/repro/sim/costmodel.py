"""Per-operator kernel time model (a GPU roofline with calibration factors).

Kernel time is the maximum of the compute-bound estimate (FLOPs over the
device's achievable throughput for that operator category) and the
memory-bound estimate (bytes touched over memory bandwidth), plus a fixed
launch overhead.  The category efficiencies are calibration constants chosen
so that single-GPU throughputs land in the right regime for the paper's
models; the *relative* behaviour between systems — which is what the
evaluation compares — is driven by communication volume and memory capacity,
not by these constants.

:func:`node_kernel_times` prices one node on several devices, so lowering
computes each node's flops, bytes and output elements once, not once per
task.  Pricing never moves a plan: the partition search minimises
communication bytes, and these times enter only after a plan is chosen.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.graph.graph import Graph
from repro.graph.shape_inference import node_bytes, node_flops
from repro.ops.registry import get_op
from repro.sim.device import DeviceSpec, MachineSpec

#: Fraction of peak FLOPs achievable per operator category on large inputs.
CATEGORY_EFFICIENCY: Dict[str, float] = {
    "matmul": 0.90,
    "conv": 0.55,
    "norm": 0.25,
    "pooling": 0.25,
    "reduce": 0.25,
    "loss": 0.25,
    "elementwise": 0.20,
    "optimizer": 0.20,
    "broadcast": 0.20,
    "data_movement": 0.20,
    "opaque": 0.30,
    "general": 0.30,
}

#: Output elements needed to saturate the device; smaller kernels scale down.
SATURATION_ELEMENTS = 2.0e5


def category_of(op_name: str) -> str:
    return get_op(op_name).category


def kernel_time(
    flops: float,
    mem_bytes: float,
    device: DeviceSpec,
    machine: MachineSpec,
    *,
    category: str = "general",
    parallel_elements: Optional[float] = None,
) -> float:
    """Estimated execution time of one kernel on ``device``."""
    efficiency = CATEGORY_EFFICIENCY.get(category, 0.3)
    if parallel_elements is not None and parallel_elements > 0:
        utilisation = min(1.0, parallel_elements / SATURATION_ELEMENTS)
        # Never let tiny kernels drive efficiency to zero; launch overhead and
        # the memory roofline dominate them anyway.
        efficiency *= max(utilisation, 0.05)
    compute_time = flops / (device.peak_flops * efficiency) if flops else 0.0
    memory_time = mem_bytes / device.memory_bandwidth if mem_bytes else 0.0
    return max(compute_time, memory_time) + machine.kernel_launch_overhead


def node_kernel_times(
    graph: Graph,
    node_name: str,
    devices: Sequence[DeviceSpec],
    machine: MachineSpec,
    *,
    scale: float = 1.0,
) -> List[float]:
    """:func:`node_kernel_time` of one node on each of ``devices``.

    The node's flops, bytes and output elements are computed once and
    priced per device, which is how the lowering passes price a node that
    runs on every worker (or in every micro-batch) without repeating the
    shape arithmetic per emitted task.  The roofline reads only a device's
    peak FLOPs and memory bandwidth, so it prices each distinct pair once
    (eight identical K80s cost one pricing).
    """
    node = graph.node(node_name)
    if node.attrs.get("fused_accumulation"):
        # Gradient accumulation rides on the producing kernel's output write
        # (GEMM with beta=1); only the launch overhead remains.
        return [machine.kernel_launch_overhead] * len(devices)
    category = category_of(node.op)
    flops = node_flops(graph, node_name) * scale
    mem_bytes = node_bytes(graph, node_name) * scale
    out_elements = sum(
        graph.tensor(t).num_elements() for t in node.outputs
    ) * scale
    priced: Dict[Tuple[float, float], float] = {}
    times = []
    for device in devices:
        key = (device.peak_flops, device.memory_bandwidth)
        seconds = priced.get(key)
        if seconds is None:
            seconds = priced[key] = kernel_time(
                flops,
                mem_bytes,
                device,
                machine,
                category=category,
                parallel_elements=out_elements,
            )
        times.append(seconds)
    return times


def node_kernel_time(
    graph: Graph,
    node_name: str,
    device: DeviceSpec,
    machine: MachineSpec,
    *,
    scale: float = 1.0,
) -> float:
    """Kernel time of one graph node, optionally scaled (sharded execution).

    ``scale = 1/k`` models an operator whose tensors have been partitioned
    across ``k`` workers: FLOPs, bytes and output parallelism all shrink by
    the same factor (the paper notes GPU kernels on very large tensors keep
    similar efficiency regardless of which dimension is split, Sec 5).
    """
    return node_kernel_times(graph, node_name, (device,), machine, scale=scale)[0]


def graph_compute_time(
    graph: Graph,
    device: DeviceSpec,
    machine: MachineSpec,
    *,
    scale: float = 1.0,
) -> float:
    """Serial execution time of every node in the graph on one device."""
    return sum(
        node_kernel_time(graph, name, device, machine, scale=scale)
        for name in graph.nodes
    )
