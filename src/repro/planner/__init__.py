"""Unified planner subsystem.

One pipeline — build → autodiff → coarsen → search → plan → apply → simulate —
behind the :class:`Planner` facade, with pluggable search backends
(:mod:`repro.planner.backends`), a content-addressed plan cache
(:mod:`repro.planner.cache`) and parallel candidate search
(:mod:`repro.planner.parallel`).
"""

from repro.planner.backends import (
    BackendSpec,
    SearchBackend,
    available_backends,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.planner.cache import (
    PlanCache,
    graph_signature,
    machine_signature,
    plan_cache_key,
)
from repro.planner.core import (
    Planner,
    PlannerConfig,
    SimulationReport,
    default_planner,
)
from repro.planner.parallel import candidate_factorizations, search_candidates

__all__ = [
    "BackendSpec",
    "PlanCache",
    "Planner",
    "PlannerConfig",
    "SearchBackend",
    "SimulationReport",
    "available_backends",
    "candidate_factorizations",
    "default_planner",
    "get_backend",
    "graph_signature",
    "machine_signature",
    "plan_cache_key",
    "register_backend",
    "search_candidates",
    "unregister_backend",
]
