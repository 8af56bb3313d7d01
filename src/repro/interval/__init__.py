"""Symbolic interval analysis of TDL descriptions and strategy discovery."""

from repro.interval.analysis import AccessSummary, DimAccess, analyze, analyze_cached
from repro.interval.strategies import (
    PartitionStrategy,
    bind_extents,
    describe_operator,
    discover_strategies,
    worker_input_elements,
    worker_output_elements,
)
from repro.interval.symbolic import AffineExpr, Interval

__all__ = [
    "AccessSummary",
    "AffineExpr",
    "DimAccess",
    "Interval",
    "PartitionStrategy",
    "analyze",
    "analyze_cached",
    "bind_extents",
    "describe_operator",
    "discover_strategies",
    "worker_input_elements",
    "worker_output_elements",
]
