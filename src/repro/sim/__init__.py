"""Multi-GPU machine simulator (the paper's testbed, in software)."""

from repro.sim.costmodel import (
    CATEGORY_EFFICIENCY,
    graph_compute_time,
    kernel_time,
    node_kernel_time,
)
from repro.sim.device import DeviceSpec, GiB, MachineSpec, k80_8gpu_machine, v100_machine
from repro.sim.engine import HOST_DEVICE, SimResult, Task, TaskGraphSimulator
from repro.sim.swap import SwapResult, simulate_with_swapping

__all__ = [
    "CATEGORY_EFFICIENCY",
    "DeviceSpec",
    "GiB",
    "HOST_DEVICE",
    "MachineSpec",
    "SimResult",
    "SwapResult",
    "Task",
    "TaskGraphSimulator",
    "graph_compute_time",
    "k80_8gpu_machine",
    "kernel_time",
    "node_kernel_time",
    "simulate_with_swapping",
    "v100_machine",
]
