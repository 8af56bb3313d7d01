"""Tofu's recursive partition search (Sec 5.2, Appendix A).

For ``k = k1 * k2 * ... * km`` workers the algorithm runs the coarsened-graph
DP once per factor: step ``i`` partitions every tensor along one dimension
across ``ki`` worker groups, then the tensors are shrunk accordingly and the
next step partitions the (half-sized) graph again.  Under the paper's
assumptions the greedy per-step optimum is globally optimal (Theorem 3); the
per-step costs are non-decreasing (Theorem 2), which also makes the plan a
good fit for hierarchical interconnects.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import PartitionError
from repro.graph.graph import Graph
from repro.graph.tensor import split_dim
from repro.partition.coarsen import CoarsenedGraph, coarsen
from repro.partition.cost import CommunicationCostModel
from repro.partition.dp import NodePrice, dp_partition_step
from repro.partition.plan import PartitionPlan, StepAssignment, factorize_workers


def recursive_partition(
    graph: Graph,
    num_workers: int,
    *,
    coarse: Optional[CoarsenedGraph] = None,
    allow_reduction: bool = True,
    factors: Optional[Sequence[int]] = None,
) -> PartitionPlan:
    """Find a partition plan for ``num_workers`` workers.

    Args:
        graph: A training graph carrying autodiff metadata.
        num_workers: Total number of workers (any integer >= 1).
        coarse: Optionally a pre-computed coarsened graph (reused across calls).
        allow_reduction: ``False`` reproduces the ICML18 baseline that misses
            output-reduction strategies (the ``icml18`` search backend).
        factors: Optional explicit factorisation ``k1, ..., km`` overriding
            the default descending prime factorisation; the planner's
            candidate search uses this to try alternative step orders.
    """
    start = time.perf_counter()
    if num_workers < 1:
        raise PartitionError(f"invalid worker count {num_workers}")
    if factors is None:
        factors = factorize_workers(num_workers)
    else:
        factors = list(factors)
        product = 1
        for f in factors:
            product *= f
        if product != num_workers:
            raise PartitionError(
                f"factors {factors} do not multiply to {num_workers} workers"
            )
    if coarse is None:
        coarse = coarsen(graph)
    cost_model = CommunicationCostModel(graph, allow_reduction=allow_reduction)

    shapes: Dict[str, Tuple[int, ...]] = {
        name: spec.shape for name, spec in graph.tensors.items()
    }
    steps: List[StepAssignment] = []
    # Every node's cluster-wide bytes as the search priced it, summed over
    # the steps in the order (and with the group weights) lowering would
    # re-price them: the plan carries them so lowering does not have to.
    fetch_bytes = {name: 0.0 for name in graph.nodes}
    reduce_bytes = {name: 0.0 for name in graph.nodes}
    group_count = 1
    for parts in factors:
        cost_model.set_shapes(shapes)
        prices: Dict[str, NodePrice] = {}
        step = dp_partition_step(graph, coarse, cost_model, parts, prices=prices)
        for name, (_, fetch, redistribute) in prices.items():
            fetch_bytes[name] += fetch * group_count
            reduce_bytes[name] += redistribute * group_count
        step.group_count = group_count
        step.weighted_bytes = step.comm_bytes * group_count
        steps.append(step)
        shapes = _shrink_shapes(shapes, step)
        group_count *= parts

    plan = PartitionPlan(
        num_workers=num_workers,
        steps=steps,
        search_time_seconds=time.perf_counter() - start,
        algorithm="tofu-recursive" if allow_reduction else "tofu-no-reduction",
        fetch_bytes_per_node=fetch_bytes,
        reduce_bytes_per_node=reduce_bytes,
    )
    return plan


def _shrink_shapes(
    shapes: Dict[str, Tuple[int, ...]], step: StepAssignment
) -> Dict[str, Tuple[int, ...]]:
    """Apply one step's splits to every tensor shape."""
    out: Dict[str, Tuple[int, ...]] = {}
    for name, shape in shapes.items():
        dim = step.tensor_dims.get(name, 0)
        if not shape:
            out[name] = shape
            continue
        dim = min(dim, len(shape) - 1)
        out[name] = split_dim(shape, dim, step.parts)
    return out


def step_costs_nondecreasing(plan: PartitionPlan, tolerance: float = 0.05) -> bool:
    """Check Theorem 2 (delta_i <= delta_{i+1}) up to a small tolerance.

    Halo constants (convolution windows) break exact linearity, so a small
    relative tolerance is allowed; the property test exercises this on models
    without halos exactly and on CNNs with the tolerance.
    """
    costs = plan.step_costs()
    for before, after in zip(costs, costs[1:]):
        if after < before * (1.0 - tolerance) - 1e-6:
            return False
    return True
