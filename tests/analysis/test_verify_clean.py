"""Strict verification is a no-op on healthy lowerings: what every built-in
execution backend lowers, on a flat machine and a 2-machine cluster, gets
zero findings from ``verify_program`` given its graph and plan (acceptance
gate of the verifier: it must never reject what the compiler actually
produces)."""

import pytest

from repro.analysis import verify_program
from repro.models.mlp import build_mlp
from repro.planner import Planner, PlannerConfig
from repro.runtime import (
    Executor,
    ExecutorConfig,
    available_execution_backends,
    get_execution_backend,
)
from repro.sim.device import cluster_of, k80_8gpu_machine, slice_topology_range

MACHINES = {
    "flat": lambda: k80_8gpu_machine(4),
    "cluster": lambda: cluster_of(k80_8gpu_machine(2), 2),
}


@pytest.fixture(scope="module")
def bundle():
    return build_mlp(batch_size=32, input_dim=64, hidden_dim=64,
                     num_layers=2, num_classes=16)


def _backend_inputs(backend, bundle, machine, schedule="1f1b"):
    """(plan, backend_options) for one backend, mirroring the CLI wiring."""
    num_devices = machine.num_devices
    plan = None
    options = {}
    if get_execution_backend(backend).requires_plan:
        plan = Planner(PlannerConfig()).plan(
            bundle.graph, num_devices, machine=machine
        )
    if backend == "pipeline":
        options = {
            "num_stages": 2, "num_microbatches": 4, "schedule": schedule,
        }
    elif backend == "hybrid":
        options = {"replica_groups": 2, "inner": "tofu-partitioned"}
        group_workers = max(1, num_devices // 2)
        plan = Planner(PlannerConfig()).plan(
            bundle.graph, group_workers,
            machine=slice_topology_range(machine, 0, group_workers),
        )
    return plan, options


@pytest.mark.parametrize("machine_kind", sorted(MACHINES))
@pytest.mark.parametrize("backend", sorted(available_execution_backends()))
def test_strict_verify_passes_on_every_backend(backend, machine_kind, bundle):
    machine = MACHINES[machine_kind]()
    plan, options = _backend_inputs(backend, bundle, machine)
    executor = Executor(ExecutorConfig(cache_programs=False))
    program = executor.lower(
        bundle.graph, plan=plan, machine=machine, backend=backend,
        backend_options=options,
    )
    assert program.tasks
    report = verify_program(program, graph=bundle.graph, plan=plan)
    assert report.findings == []


@pytest.mark.parametrize("schedule", ["gpipe", "1f1b"])
def test_strict_verify_passes_on_both_pipeline_schedules(schedule, bundle):
    machine = k80_8gpu_machine(4)
    plan, options = _backend_inputs("pipeline", bundle, machine,
                                    schedule=schedule)
    executor = Executor(ExecutorConfig(cache_programs=False))
    program = executor.lower(
        bundle.graph, plan=plan, machine=machine, backend="pipeline",
        backend_options=options,
    )
    assert program.schedule is not None and program.schedule.style == schedule
    report = verify_program(program, graph=bundle.graph, plan=plan)
    assert report.findings == []


def test_one_device_data_parallel_has_no_ring_to_flag(bundle):
    """A ring hop is a gather from the ring neighbour; on one device that
    neighbour is the device itself, so no hop is emitted (a self-transfer
    would be ``ANA008_SELF_TRANSFER``)."""
    program = Executor(ExecutorConfig(cache_programs=False)).lower(
        bundle.graph, machine=k80_8gpu_machine(1), backend="data-parallel"
    )
    assert program.total_comm_bytes == 0.0
    report = verify_program(program, graph=bundle.graph)
    assert report.findings == []
