"""Hybrid replica clones are priced under the active cost model.

``lower_hybrid`` clones the inner program once per replica group, scaling
every transfer's bytes by ``1/G`` and re-resolving link-resolved transfers
on the full topology.  A cloned transfer must carry the active model's
price for *its* bytes on *its* link — not fall back to link bandwidth, and
not keep the inner program's price for the unscaled transfer.  Under the
default roofline the model defers (``comm_time`` stays ``None``), so
default numbers do not move.
"""

from __future__ import annotations

import pytest

from repro.costmodel import use_cost_model
from repro.partition.recursive import recursive_partition
from repro.runtime import Executor, ExecutorConfig
from repro.sim.device import cluster_of, k80_8gpu_machine, slice_topology
from tests.costmodel.fakes import ScaledRoofline

OPTIONS = {"replica_groups": 2, "inner": "tofu-partitioned"}


def _comm_clones(program):
    return [
        task for name, task in program.tasks.items()
        if task.kind == "comm" and not name.startswith("allreduce@")
    ]


@pytest.mark.parametrize(
    "machine",
    [k80_8gpu_machine(4), cluster_of(k80_8gpu_machine(2), 2)],
    ids=["machine", "cluster2"],
)
def test_clones_carry_the_models_price(mlp_bundle, machine):
    graph = mlp_bundle.graph
    plan = recursive_partition(graph, 2)
    model = ScaledRoofline(2.0)
    executor = Executor(ExecutorConfig(cache_programs=False))
    with use_cost_model(model):
        inner = executor.lower(
            graph, plan=plan, machine=slice_topology(machine, 2),
            backend="tofu-partitioned",
        )
        hybrid = executor.lower(
            graph, plan=plan, machine=machine, backend="hybrid",
            backend_options=OPTIONS,
        )
    inner_comm = [t for t in inner.tasks.values() if t.kind == "comm"]
    assert inner_comm and all(t.comm_time is not None for t in inner_comm)

    clones = _comm_clones(hybrid)
    assert len(clones) == 2 * len(inner_comm)
    for clone in clones:
        expected = model.comm_time(
            clone.comm_bytes,
            link=clone.link,
            channel=None if clone.link is not None else clone.channel,
        )
        assert expected is not None
        assert clone.comm_time == expected


def test_roofline_clones_keep_link_pricing(mlp_bundle):
    machine = k80_8gpu_machine(4)
    hybrid = Executor(ExecutorConfig(cache_programs=False)).lower(
        mlp_bundle.graph, plan=recursive_partition(mlp_bundle.graph, 2),
        machine=machine, backend="hybrid", backend_options=OPTIONS,
    )
    clones = _comm_clones(hybrid)
    assert clones and all(clone.comm_time is None for clone in clones)
