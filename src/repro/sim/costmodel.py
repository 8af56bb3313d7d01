"""Per-operator kernel time model (a GPU roofline with calibration factors).

Kernel time is the maximum of the compute-bound estimate (FLOPs over the
device's achievable throughput for that operator category) and the
memory-bound estimate (bytes touched over memory bandwidth), plus a fixed
launch overhead.  The category efficiencies are calibration constants chosen
so that single-GPU throughputs land in the right regime for the paper's
models; the *relative* behaviour between systems — which is what the
evaluation compares — is driven by communication volume and memory capacity,
not by these constants.

This module is also the seam the pricing scope
(:mod:`repro.costmodel`) hooks into: :func:`node_kernel_time` extracts one
:class:`OpSample` of operator features and, when a cost model is active
(:data:`_ACTIVE_COST_MODEL`, set only via ``repro.costmodel.use_cost_model``),
defers pricing to it.  With no active model the sample is priced by the
roofline :func:`kernel_time` — that default path is the bit-exact behaviour
every cache key and benchmark baseline assumes.  :func:`node_kernel_times` prices one sample on several
devices, so lowering extracts each node's features once, not once per task.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.graph.graph import Graph
from repro.graph.shape_inference import node_bytes, node_flops
from repro.ops.registry import get_op
from repro.sim.device import DeviceSpec, MachineSpec

#: The cost model pricing kernels and transfers in the current context, or
#: ``None`` for the built-in roofline arithmetic.  Lives here (the leaf
#: module both the lowering passes and :mod:`repro.costmodel` import) so
#: neither side needs a lazy import; set it through
#: :func:`repro.costmodel.use_cost_model`, never directly.
_ACTIVE_COST_MODEL: ContextVar[Optional[object]] = ContextVar(
    "repro_active_cost_model", default=None
)


def active_cost_model() -> Optional[object]:
    """The :class:`repro.costmodel.CostModel` active in this context, or
    ``None`` when pricing follows the default roofline path."""
    return _ACTIVE_COST_MODEL.get()


@dataclass(frozen=True)
class OpSample:
    """Features of one kernel launch — the input to ``CostModel.op_time``.

    Attributes:
        op: Registered operator name (``"matmul"``, ``"conv2d"``, ...).
        category: The operator's cost category (a
            :data:`CATEGORY_EFFICIENCY` key).
        flops: Floating-point operations of this launch (already scaled to
            the per-device shard under partitioned execution).
        mem_bytes: Bytes read and written by this launch (scaled likewise).
        out_elements: Output tensor elements (the roofline's proxy for
            available parallelism; scaled likewise).
    """

    op: str
    category: str
    flops: float
    mem_bytes: float
    out_elements: float

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


def node_sample(graph: Graph, node_name: str, *, scale: float = 1.0) -> OpSample:
    """The :class:`OpSample` feature vector of one graph node.

    ``scale = 1/k`` shrinks FLOPs, bytes and output parallelism to the
    per-device shard, exactly as :func:`node_kernel_time` prices them.
    """
    node = graph.node(node_name)
    return OpSample(
        op=node.op,
        category=category_of(node.op),
        flops=node_flops(graph, node_name) * scale,
        mem_bytes=node_bytes(graph, node_name) * scale,
        out_elements=sum(
            graph.tensor(t).num_elements() for t in node.outputs
        ) * scale,
    )


def node_kernel_times(
    graph: Graph,
    node_name: str,
    devices: Sequence[DeviceSpec],
    machine: MachineSpec,
    *,
    scale: float = 1.0,
) -> List[float]:
    """:func:`node_kernel_time` of one node on each of ``devices``.

    The node's :class:`OpSample` is extracted once and priced per device,
    which is how the lowering passes price a node that runs on every
    worker (or in every micro-batch) without repeating the shape
    arithmetic per emitted task.  The roofline reads only a device's peak
    FLOPs and memory bandwidth, so it prices each distinct pair once (eight
    identical K80s cost one pricing); an active cost model may read any
    field and is still called once per device.
    """
    node = graph.node(node_name)
    if node.attrs.get("fused_accumulation"):
        # Gradient accumulation rides on the producing kernel's output write
        # (GEMM with beta=1); only the launch overhead remains.
        return [machine.kernel_launch_overhead] * len(devices)
    sample = node_sample(graph, node_name, scale=scale)
    model = _ACTIVE_COST_MODEL.get()
    if model is not None:
        return [model.op_time(sample, device, machine) for device in devices]
    priced: Dict[Tuple[float, float], float] = {}
    times = []
    for device in devices:
        key = (device.peak_flops, device.memory_bandwidth)
        seconds = priced.get(key)
        if seconds is None:
            seconds = priced[key] = kernel_time(
                sample.flops,
                sample.mem_bytes,
                device,
                machine,
                category=sample.category,
                parallel_elements=sample.out_elements,
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

    The node's :class:`OpSample` (:func:`node_sample`) is priced by the
    active cost model's ``op_time`` (:func:`active_cost_model`) or, with no
    active model, by the roofline :func:`kernel_time`.  The
    fused-accumulation special case applies under both because it is
    structural (the kernel does not launch separately), not a pricing
    decision.
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
