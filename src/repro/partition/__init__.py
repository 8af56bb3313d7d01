"""Dataflow-graph partition search (the paper's core contribution)."""

from repro.partition.coarsen import CoarsenedGraph, OpGroup, TensorGroup, coarsen
from repro.partition.cost import CommunicationCostModel
from repro.partition.dp import (
    count_joint_configurations,
    dp_partition_step,
    joint_partition,
)
from repro.partition.plan import (
    PartitionPlan,
    StepAssignment,
    factorize_workers,
    single_dimension_plan,
)
from repro.partition.recursive import (
    per_step_costs,
    recursive_partition,
    step_costs_nondecreasing,
)

__all__ = [
    "CoarsenedGraph",
    "CommunicationCostModel",
    "OpGroup",
    "PartitionPlan",
    "StepAssignment",
    "TensorGroup",
    "coarsen",
    "count_joint_configurations",
    "dp_partition_step",
    "factorize_workers",
    "joint_partition",
    "per_step_costs",
    "recursive_partition",
    "single_dimension_plan",
    "step_costs_nondecreasing",
]
