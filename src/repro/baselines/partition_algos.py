"""Alternative partition algorithms compared in Figure 10.

* **AllRow-Greedy** — partition every tensor along its first dimension and let
  every operator pick its best strategy given that layout (for CNNs this is
  essentially the "one weird trick" batch-parallel scheme).
* **Spartan** — greedily partition the largest tensor first (along whichever
  dimension is cheapest for its incident operators), then the next largest,
  and so on, following Spartan's smart-tiling heuristic.
* **EqualChop** — Tofu's DP, but each tensor may only be chopped equally along
  a single dimension across all workers (no recursive multi-dimension grids).

The fourth Figure 10 baseline, ICML18 (Tofu's recursive DP without
output-reduction strategies), is the ``icml18`` search backend of
:mod:`repro.planner.backends`; every algorithm here is reached by name
through that registry.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.graph.graph import Graph
from repro.partition.coarsen import CoarsenedGraph, coarsen
from repro.partition.cost import CommunicationCostModel
from repro.partition.dp import dp_partition_step
from repro.partition.plan import PartitionPlan, single_dimension_plan


def allrow_greedy_plan(graph: Graph, num_workers: int) -> PartitionPlan:
    """Partition every tensor along its first (row/batch) dimension."""
    start = time.perf_counter()
    cost_model = CommunicationCostModel(graph)
    tensor_dims = {name: 0 for name in graph.tensors}
    cost, strategies = cost_model.assignment_cost(tensor_dims, num_workers)
    plan = single_dimension_plan(
        tensor_dims, strategies, num_workers, cost, "allrow-greedy"
    )
    plan.search_time_seconds = time.perf_counter() - start
    return plan


def spartan_plan(graph: Graph, num_workers: int) -> PartitionPlan:
    """Greedy largest-tensor-first partitioning (Spartan's heuristic)."""
    start = time.perf_counter()
    cost_model = CommunicationCostModel(graph)
    tensor_dims: Dict[str, int] = {name: 0 for name in graph.tensors}

    incident: Dict[str, List[str]] = {name: [] for name in graph.tensors}
    for node in graph.nodes.values():
        for tensor in node.all_tensors():
            incident[tensor].append(node.name)

    ordered = sorted(
        graph.tensors, key=lambda t: cost_model.tensor_bytes(t), reverse=True
    )
    decided: Dict[str, int] = {}
    for tensor in ordered:
        candidates = cost_model.candidate_dims(tensor, num_workers)
        if len(candidates) == 1:
            decided[tensor] = candidates[0]
            tensor_dims[tensor] = candidates[0]
            continue
        best_dim = candidates[0]
        best_cost = float("inf")
        for dim in candidates:
            trial = dict(tensor_dims)
            trial[tensor] = dim
            local = 0.0
            for node_name in incident[tensor]:
                _, c = cost_model.node_cost(node_name, trial, num_workers)
                local += c
            if local < best_cost:
                best_cost = local
                best_dim = dim
        decided[tensor] = best_dim
        tensor_dims[tensor] = best_dim

    cost, strategies = cost_model.assignment_cost(tensor_dims, num_workers)
    plan = single_dimension_plan(tensor_dims, strategies, num_workers, cost, "spartan")
    plan.search_time_seconds = time.perf_counter() - start
    return plan


def equalchop_plan(
    graph: Graph, num_workers: int, *, coarse: Optional[CoarsenedGraph] = None
) -> PartitionPlan:
    """Tofu's DP restricted to chopping each tensor along one dimension."""
    start = time.perf_counter()
    if coarse is None:
        coarse = coarsen(graph)
    cost_model = CommunicationCostModel(graph)
    step = dp_partition_step(graph, coarse, cost_model, num_workers)
    plan = PartitionPlan(
        num_workers=num_workers,
        steps=[step],
        search_time_seconds=time.perf_counter() - start,
        algorithm="equalchop",
    )
    return plan
