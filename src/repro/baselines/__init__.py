"""Baselines and alternative systems compared against Tofu (Sec 7)."""

from repro.baselines.evaluation import (
    SystemResult,
    evaluate_ideal,
    evaluate_opplacement,
    evaluate_smallbatch,
    evaluate_strategy,
    evaluate_swapping,
    evaluate_tofu,
)
from repro.baselines.partition_algos import (
    allrow_greedy_plan,
    equalchop_plan,
    spartan_plan,
)

__all__ = [
    "SystemResult",
    "allrow_greedy_plan",
    "equalchop_plan",
    "evaluate_ideal",
    "evaluate_opplacement",
    "evaluate_smallbatch",
    "evaluate_strategy",
    "evaluate_swapping",
    "evaluate_tofu",
    "spartan_plan",
]
