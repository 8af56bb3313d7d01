"""The frontier DP prices each op-group structure once per step.

Within one solve, op groups whose cost reads the same reference slot, member
classes and member-to-class index share one cost table, and the
step-invariant frontier layout is built once per coarsened graph.  Sharing
must be sound: every entry of a shared table equals the group cost
recomputed from each sharing group's own layout, bit for bit.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import perf
from repro.partition import dp
from repro.partition.coarsen import coarsen
from repro.partition.cost import CommunicationCostModel
from repro.partition.recursive import recursive_partition

BUNDLES = ["mlp_bundle", "rnn_bundle", "cnn_bundle"]


@pytest.fixture
def solves(monkeypatch):
    """Every :class:`_FrontierDP` solved while the test runs."""
    solved = []
    solve = dp._FrontierDP.solve

    def recording_solve(self):
        result = solve(self)
        solved.append(self)
        return result

    monkeypatch.setattr(dp._FrontierDP, "solve", recording_solve)
    return solved


def _assert_tables_sound(solved):
    assert solved
    for search in solved:
        for layout in search.layouts:
            unshared = dataclasses.replace(layout, costs={})
            for local, cost in layout.costs.items():
                assert search._group_cost(unshared, local) == cost


@pytest.mark.parametrize("workers", [2, 4, 8])
@pytest.mark.parametrize("bundle_name", BUNDLES)
def test_shared_tables_match_unshared_group_costs(
    request, solves, bundle_name, workers
):
    graph = request.getfixturevalue(bundle_name).graph
    recursive_partition(graph, workers)
    _assert_tables_sound(solves)


def test_joint_search_shares_tables_soundly(mlp_bundle, solves):
    dp.joint_partition(mlp_bundle.graph, 4)
    _assert_tables_sound(solves)


@pytest.mark.parametrize("bundle_name", ["rnn_bundle", "cnn_bundle"])
def test_repeated_blocks_share_cost_tables(request, solves, bundle_name):
    graph = request.getfixturevalue(bundle_name).graph
    recursive_partition(graph, 8)
    assert len(solves) == 3
    for search in solves:
        tables = {id(layout.costs) for layout in search.layouts}
        assert len(tables) < len(search.layouts)


def test_frontier_layout_is_built_once_per_coarse_graph(cnn_bundle, monkeypatch):
    built = []
    build = dp._build_frontier

    def counting_build(coarse):
        built.append(coarse)
        return build(coarse)

    monkeypatch.setattr(dp, "_build_frontier", counting_build)
    graph = cnn_bundle.graph
    recursive_partition(graph, 8)
    assert len(built) == 1
    coarse = coarsen(graph)
    for _ in range(2):
        recursive_partition(graph, 8, coarse=coarse)
    assert built[1:] == [coarse]
    assert coarse.frontier is dp.frontier_layout(coarse)


#: Exact counts: a change to how states are keyed that merges or splits
#: frontier states moves them even when the plan survives.
PRUNED_STATES = {"rnn_bundle": 1912, "cnn_bundle": 0}


@pytest.mark.parametrize(
    "bundle_name, prunes", [("rnn_bundle", True), ("cnn_bundle", False)]
)
def test_pruned_states_are_counted(request, bundle_name, prunes):
    graph = request.getfixturevalue(bundle_name).graph
    timer = perf.StageTimer()
    with perf.activation(timer):
        recursive_partition(graph, 8)
    pruned = timer.counter("partition.dp_pruned_states")
    assert (pruned > 0) == prunes
    assert pruned == PRUNED_STATES[bundle_name]


def test_tables_split_on_reference_and_member_index(cnn_bundle):
    """Groups with equal member classes still price apart when their
    reference slot or their member-to-class index differs."""
    graph = cnn_bundle.graph
    coarse = coarsen(graph)
    search = dp._FrontierDP(
        graph, coarse, CommunicationCostModel(graph), parts_per_step=[2]
    )
    tables = {}
    group = next(g for g in dp.frontier_layout(coarse) if len(g.local) > 1)
    layout = search._layout(group, tables)
    assert search._layout(group, tables).costs is layout.costs

    # The smallest local group becomes the reference.
    largest = dict(search._group_bytes)
    search._group_bytes = {tg: -size for tg, size in largest.items()}
    moved = search._layout(group, tables)
    assert moved.reference != layout.reference
    assert moved.costs is not layout.costs

    # One more member of an existing class: same classes, another index.
    search._group_bytes = largest
    grown = dataclasses.replace(
        group,
        members=group.members + group.members[-1:],
        specs=group.specs + group.specs[-1:],
    )
    grown_layout = search._layout(grown, tables)
    assert [c for c, _ in grown_layout.classes] == [c for c, _ in layout.classes]
    assert grown_layout.costs is not layout.costs
