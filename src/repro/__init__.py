"""Tofu reproduction: automatic dataflow graph partitioning for very large DNNs.

Reproduction of "Supporting Very Large Models using Automatic Dataflow Graph
Partitioning" (Wang, Huang, Li — EuroSys 2019).  See README.md for a guided
tour and docs/architecture.md for the system inventory.

The public surface is ``repro.compile(graph, strategy=..., machine=...)``
plus the :mod:`repro.strategy` combinator algebra (``machines``, ``dp``,
``pipeline``, ``tofu``, ``single``, ``placement``, ``swap``); ``machine``
accepts a single :class:`MachineSpec` or a hierarchical
:class:`ClusterSpec` (``cluster_of`` / ``topology_preset`` build them).
The :class:`Planner` and :class:`Executor` facades remain available for
callers that need the subsystems directly.
"""

import repro.ops  # noqa: F401  (registers the operator library on import)

from repro.compiler import CompiledModel, compile
from repro.interval.strategies import describe_operator
from repro.planner import (
    Planner,
    PlannerConfig,
    available_backends,
    default_planner,
    register_backend,
)
from repro.runtime import (
    Executor,
    ExecutorConfig,
    LoweredProgram,
    available_execution_backends,
    register_execution_backend,
)
from repro.sim.device import (
    ClusterSpec,
    MachineSpec,
    cluster_of,
    topology_preset,
)
from repro.strategy import (
    Strategy,
    dp,
    machines,
    parse_strategy,
    pipeline,
    placement,
    single,
    swap,
    tofu,
)
from repro.errors import (
    AnalysisError,
    ExecutionError,
    GraphError,
    NoStrategyError,
    NonAffineError,
    PartitionError,
    ReproError,
    ShapeError,
    SimulationError,
    StrategyError,
    TDLError,
)

__version__ = "0.2.0"

__all__ = [
    "AnalysisError",
    "ClusterSpec",
    "CompiledModel",
    "ExecutionError",
    "Executor",
    "ExecutorConfig",
    "GraphError",
    "LoweredProgram",
    "MachineSpec",
    "NoStrategyError",
    "NonAffineError",
    "PartitionError",
    "Planner",
    "PlannerConfig",
    "ReproError",
    "ShapeError",
    "SimulationError",
    "Strategy",
    "StrategyError",
    "TDLError",
    "__version__",
    "available_backends",
    "available_execution_backends",
    "cluster_of",
    "compile",
    "default_planner",
    "describe_operator",
    "dp",
    "machines",
    "parse_strategy",
    "pipeline",
    "placement",
    "register_backend",
    "register_execution_backend",
    "single",
    "swap",
    "tofu",
    "topology_preset",
]
