"""Lowering reads the partition search's own per-node prices.

A freshly searched plan carries every node's fetch and reduction bytes as
the search priced them; a plan without them (decoded from a cache payload)
is re-priced in its own strategy space.  Both paths must agree with the
plan's total to the search's precision, and with each other bit for bit.
"""

import pytest

from repro.partition.apply import generate_partitioned_graph, per_node_communication
from repro.partition.plan import plan_from_dict, plan_to_dict
from repro.planner import Planner, PlannerConfig
from repro.sim.device import k80_8gpu_machine
from repro.sim.engine import TaskGraphSimulator

BUNDLES = ["mlp_bundle", "rnn_bundle", "cnn_bundle"]
WORKERS = [2, 4, 8]
_PLANS = {}


def _plan(request, bundle_name, workers, backend):
    key = (bundle_name, workers, backend)
    if key not in _PLANS:
        graph = request.getfixturevalue(bundle_name).graph
        planner = Planner(PlannerConfig(cache_capacity=0))
        _PLANS[key] = planner.plan(
            graph, workers, machine=k80_8gpu_machine(workers), backend=backend
        )
    return _PLANS[key]


def _decoded(plan):
    return plan_from_dict(plan_to_dict(plan))


@pytest.mark.parametrize("backend", ["tofu", "icml18"])
@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("bundle_name", BUNDLES)
def test_lowered_comm_equals_plan_comm(request, bundle_name, workers, backend):
    graph = request.getfixturevalue(bundle_name).graph
    plan = _plan(request, bundle_name, workers, backend)
    assert plan.fetch_bytes_per_node is not None
    machine = k80_8gpu_machine(workers)
    for candidate in (plan, _decoded(plan)):
        lowered = generate_partitioned_graph(graph, candidate, machine)
        assert lowered.total_comm_bytes == pytest.approx(
            plan.total_comm_bytes, rel=1e-9, abs=1e-6
        )


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("bundle_name", BUNDLES)
def test_fresh_and_decoded_plans_lower_identically(request, bundle_name, workers):
    graph = request.getfixturevalue(bundle_name).graph
    plan = _plan(request, bundle_name, workers, "tofu")
    decoded = _decoded(plan)
    assert decoded.fetch_bytes_per_node is None
    machine = k80_8gpu_machine(workers)
    fresh = generate_partitioned_graph(graph, plan, machine)
    priced = generate_partitioned_graph(graph, decoded, machine)
    # The fresh plan's prices are shared, not copied.
    assert fresh.fetch_bytes_per_node is plan.fetch_bytes_per_node
    assert fresh.reduce_bytes_per_node is plan.reduce_bytes_per_node
    assert fresh.fetch_bytes_per_node == priced.fetch_bytes_per_node
    assert fresh.reduce_bytes_per_node == priced.reduce_bytes_per_node
    assert fresh.tasks.graph.rows == priced.tasks.graph.rows
    assert fresh.per_device_memory == priced.per_device_memory
    simulator = TaskGraphSimulator(machine)
    assert simulator.run(
        fresh.tasks, peak_memory=fresh.per_device_memory
    ) == simulator.run(priced.tasks, peak_memory=priced.per_device_memory)


def test_prices_stay_outside_the_codec_and_equality(request):
    plan = _plan(request, "mlp_bundle", 4, "tofu")
    payload = plan_to_dict(plan)
    assert "fetch_bytes_per_node" not in payload
    assert "reduce_bytes_per_node" not in payload
    assert _decoded(plan) == plan


def test_icml18_is_priced_without_reduction(request):
    """The fallback prices an ICML18 plan in ICML18's own strategy space,
    not Tofu's wider one (which would under-count its traffic)."""
    graph = request.getfixturevalue("rnn_bundle").graph
    plan = _plan(request, "rnn_bundle", 8, "icml18")
    fetch, reduce_ = per_node_communication(graph, _decoded(plan))
    assert fetch == plan.fetch_bytes_per_node
    assert reduce_ == plan.reduce_bytes_per_node
    tofu = _plan(request, "rnn_bundle", 8, "tofu")
    assert plan.total_comm_bytes > tofu.total_comm_bytes


def test_plan_for_another_graph_is_re_priced(request, mlp_bundle):
    """Prices recorded for one graph's nodes are never read for another."""
    plan = _plan(request, "mlp_bundle", 2, "tofu")
    stale = _decoded(plan)
    stale.fetch_bytes_per_node = {"not-a-node": 0.0}
    stale.reduce_bytes_per_node = {"not-a-node": 0.0}
    lowered = generate_partitioned_graph(mlp_bundle.graph, stale)
    assert lowered.fetch_bytes_per_node == plan.fetch_bytes_per_node
