"""Degenerate-cluster parity: a ``ClusterSpec`` of one machine must be
indistinguishable from the bare ``MachineSpec`` across *every* registered
execution backend — identical ``LoweredProgram`` metadata and identical
simulated timing.  This is the refactor's safety net: the hierarchical
topology may add levels, but the flat case keeps its exact numbers.
"""

from __future__ import annotations

import pytest

from repro.partition.recursive import recursive_partition
from repro.runtime import Executor, available_execution_backends
from repro.sim.device import ClusterSpec, k80_8gpu_machine

MACHINE = k80_8gpu_machine(4)
CLUSTER = ClusterSpec(machines=[MACHINE])


def _backend_setup(name, graph):
    """(options, plan) each registered backend needs on the 4-GPU fixture."""
    if name == "tofu-partitioned":
        return {}, recursive_partition(graph, 4)
    if name == "hybrid":
        return {
            "replica_groups": 2, "inner": "tofu-partitioned",
        }, recursive_partition(graph, 2)
    if name == "pipeline":
        return {"num_stages": 2, "num_microbatches": 4}, None
    return {}, None


@pytest.fixture(
    scope="module", params=["mlp_bundle", "rnn_bundle"], ids=["mlp", "rnn"]
)
def bundle(request):
    return request.getfixturevalue(request.param)


@pytest.mark.parametrize("backend", sorted(available_execution_backends()))
def test_single_machine_cluster_matches_bare_machine(bundle, backend):
    options, plan = _backend_setup(backend, bundle.graph)
    executor = Executor()

    on_machine = executor.lower(
        bundle.graph, plan=plan, machine=MACHINE,
        backend=backend, backend_options=options,
    )
    on_cluster = executor.lower(
        bundle.graph, plan=plan, machine=CLUSTER,
        backend=backend, backend_options=options,
    )
    result_on_machine = executor.simulate(on_machine)
    result_on_cluster = executor.simulate(on_cluster)

    # Byte-identical LoweredProgram metadata...
    assert on_cluster.backend == on_machine.backend
    assert on_cluster.num_devices == on_machine.num_devices
    assert on_cluster.per_device_memory == on_machine.per_device_memory
    assert on_cluster.total_comm_bytes == on_machine.total_comm_bytes
    assert on_cluster.stats == on_machine.stats
    assert set(on_cluster.tasks) == set(on_machine.tasks)
    for name, task in on_machine.tasks.items():
        twin = on_cluster.tasks[name]
        assert twin.device == task.device
        assert twin.duration == task.duration
        assert twin.comm_bytes == task.comm_bytes

    # ... and identical simulated timing, exactly (not approximately).
    assert result_on_cluster.iteration_time == result_on_machine.iteration_time
    assert (
        result_on_cluster.per_device_compute_time
        == result_on_machine.per_device_compute_time
    )
    assert (
        result_on_cluster.per_device_comm_time
        == result_on_machine.per_device_comm_time
    )
    assert result_on_cluster.oom == result_on_machine.oom
    assert result_on_cluster.network_busy_time() == 0.0


def test_compile_parity_on_degenerate_cluster(mlp_bundle):
    """The full compile path (plan search included) is machine/cluster
    agnostic for one machine — same strategy, same iteration time."""
    import repro

    on_machine = repro.compile(mlp_bundle.graph, "dp:2/tofu", MACHINE)
    on_cluster = repro.compile(mlp_bundle.graph, "dp:2/tofu", CLUSTER)
    assert on_cluster.iteration_time == on_machine.iteration_time
    assert (
        on_cluster.program.total_comm_bytes
        == on_machine.program.total_comm_bytes
    )
