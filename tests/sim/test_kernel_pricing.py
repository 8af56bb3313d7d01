"""``node_kernel_times`` prices a node once per distinct device type, and
lowering reuses each node's price for all of its tasks."""

import pytest

from repro.partition.apply import generate_partitioned_graph
from repro.partition.recursive import recursive_partition
from repro.runtime import Executor, ExecutorConfig
from repro.sim import costmodel
from repro.sim.costmodel import node_kernel_time, node_kernel_times
from repro.sim.device import DeviceSpec, MachineSpec, k80_8gpu_machine

V100 = DeviceSpec(name="v100", peak_flops=15.7e12, memory_bandwidth=900e9)


def _mixed_machine():
    base = k80_8gpu_machine(4)
    return MachineSpec(devices=list(base.devices) + [V100] * 4)


def _matmul_node(graph):
    return next(
        name for name, node in graph.nodes.items()
        if node.op == "matmul" and not node.attrs.get("fused_accumulation")
    )


@pytest.fixture
def roofline_calls(monkeypatch):
    calls = []
    priced = costmodel.kernel_time

    def counting(*args, **kwargs):
        calls.append(args[2])
        return priced(*args, **kwargs)

    monkeypatch.setattr(costmodel, "kernel_time", counting)
    return calls


def test_identical_devices_price_once(mlp_bundle, roofline_calls):
    machine = k80_8gpu_machine(8)
    name = _matmul_node(mlp_bundle.graph)
    times = node_kernel_times(mlp_bundle.graph, name, machine.devices, machine)
    assert len(roofline_calls) == 1
    assert times == [times[0]] * 8


def test_mixed_devices_price_once_per_type(mlp_bundle, roofline_calls):
    machine = _mixed_machine()
    graph = mlp_bundle.graph
    name = _matmul_node(graph)
    times = node_kernel_times(graph, name, machine.devices, machine, scale=0.125)
    assert len(roofline_calls) == 2
    roofline_calls.clear()
    expected = [
        node_kernel_time(graph, name, device, machine, scale=0.125)
        for device in machine.devices
    ]
    assert times == expected
    assert times[0] != times[4]


def test_partitioned_lowering_prices_each_device_type(mlp_bundle):
    graph = mlp_bundle.graph
    machine = _mixed_machine()
    lowered = generate_partitioned_graph(graph, recursive_partition(graph, 8), machine)
    name = _matmul_node(graph)
    for device in range(8):
        assert lowered.tasks[f"{name}@{device}"].duration == node_kernel_time(
            graph, name, machine.device(device), machine, scale=1 / 8
        )
    assert lowered.tasks[f"{name}@0"].duration > lowered.tasks[f"{name}@4"].duration


@pytest.mark.parametrize("backend", ["tofu-partitioned", "pipeline"])
def test_per_node_pricing_matches_per_task_pricing(mlp_bundle, backend):
    """Lowering prices each node once and reuses the price for all of its
    tasks (every worker, every micro-batch); that must equal pricing every
    task on its own."""
    graph = mlp_bundle.graph
    machine = k80_8gpu_machine(4)
    if backend == "tofu-partitioned":
        options, plan = {}, recursive_partition(graph, 4)
    else:
        options, plan = {"num_stages": 2, "num_microbatches": 4}, None
    program = Executor(ExecutorConfig(cache_programs=False)).lower(
        graph, plan=plan, machine=machine, backend=backend,
        backend_options=options,
    )
    for name, task in program.tasks.items():
        if task.kind != "compute":
            continue
        if backend == "tofu-partitioned":
            node, scale = name.rsplit("@", 1)[0], 1.0 / plan.num_workers
        elif "#mb" in name:
            node = name.split("#mb")[0]
            scale = 1.0 / options["num_microbatches"]
        else:  # an optimiser node, run once on the full batch
            node, scale = name, 1.0
        assert task.duration == node_kernel_time(
            graph, node, machine.device(task.device), machine, scale=scale
        ), name
