"""Roofline cost-model parity: activating :class:`RooflineCostModel`
explicitly must be bit-exact with the default inline arithmetic across
*every* registered execution backend.

This is the tentpole's safety net: the cost-model seam reroutes every
kernel-time query through ``CostModel.op_time`` when a model is active, and
this suite pins that the reroute changes nothing when the model is the
roofline itself.  Program caching is disabled so the model path is actually
exercised (the roofline's cache token is ``None``, so a cache hit would
trivially equalise the two runs).
"""

from __future__ import annotations

import pytest

from repro.costmodel import (
    RooflineCostModel,
    default_roofline,
    use_cost_model,
)
from repro.partition.recursive import recursive_partition
from repro.runtime import Executor, ExecutorConfig, available_execution_backends
from repro.runtime.passes import round_robin_layer_placement
from repro.sim.costmodel import node_kernel_time
from repro.sim.device import k80_8gpu_machine
from tests.costmodel.fakes import ScaledRoofline

MACHINE = k80_8gpu_machine(4)


def _backend_setup(name, graph):
    """(options, plan) each registered backend needs on the 4-GPU fixture."""
    if name == "placement":
        return {"device_of_node": round_robin_layer_placement(graph, 4)}, None
    if name == "tofu-partitioned":
        return {}, recursive_partition(graph, 4)
    if name == "hybrid":
        return {
            "replica_groups": 2, "inner": "tofu-partitioned",
        }, recursive_partition(graph, 2)
    if name == "pipeline":
        return {"num_stages": 2, "num_microbatches": 4}, None
    return {}, None


@pytest.mark.parametrize("backend", sorted(available_execution_backends()))
def test_explicit_roofline_is_bit_exact(mlp_bundle, backend):
    options, plan = _backend_setup(backend, mlp_bundle.graph)
    executor = Executor(ExecutorConfig(cache_programs=False))

    default_run = executor.run(
        mlp_bundle.graph, plan=plan, machine=MACHINE,
        backend=backend, backend_options=options,
    )
    with use_cost_model(RooflineCostModel()):
        model_run = executor.run(
            mlp_bundle.graph, plan=plan, machine=MACHINE,
            backend=backend, backend_options=options,
        )

    assert set(model_run.program.tasks) == set(default_run.program.tasks)
    for name, task in default_run.program.tasks.items():
        twin = model_run.program.tasks[name]
        assert twin.duration == task.duration, (backend, name)
        assert twin.comm_bytes == task.comm_bytes
        assert twin.comm_time == task.comm_time
    assert (
        model_run.result.iteration_time == default_run.result.iteration_time
    )
    assert (
        model_run.result.per_device_compute_time
        == default_run.result.per_device_compute_time
    )
    assert (
        model_run.result.per_device_comm_time
        == default_run.result.per_device_comm_time
    )


@pytest.mark.parametrize("backend", ["tofu-partitioned", "pipeline"])
def test_per_node_pricing_matches_per_task_pricing(mlp_bundle, backend):
    """Lowering prices each node once and reuses the price for all of its
    tasks (every worker, every micro-batch); under a non-default model
    that must equal pricing every task on its own."""
    graph = mlp_bundle.graph
    model = ScaledRoofline(2.0)
    options, plan = _backend_setup(backend, graph)
    executor = Executor(ExecutorConfig(cache_programs=False))
    with use_cost_model(model):
        program = executor.lower(
            graph, plan=plan, machine=MACHINE, backend=backend,
            backend_options=options,
        )
    default = executor.lower(
        graph, plan=plan, machine=MACHINE, backend=backend,
        backend_options=options,
    )
    compute = {
        name: task for name, task in program.tasks.items()
        if task.kind == "compute"
    }
    with use_cost_model(model):
        for name, task in compute.items():
            if backend == "tofu-partitioned":
                node, scale = name.rsplit("@", 1)[0], 1.0 / plan.num_workers
            elif "#mb" in name:
                node = name.split("#mb")[0]
                scale = 1.0 / options["num_microbatches"]
            else:  # an optimiser node, run once on the full batch
                node, scale = name, 1.0
            assert task.duration == node_kernel_time(
                graph, node, MACHINE.device(task.device), MACHINE, scale=scale
            ), name
    assert any(
        default.tasks[name].duration != task.duration
        for name, task in compute.items()
    )


def test_default_roofline_signature_is_stable():
    """The default model's signature is the anchor every cache token is
    compared against; it must only change with the model's content."""
    assert default_roofline().signature() == RooflineCostModel().signature()
    assert default_roofline().signature().startswith("roofline:")
