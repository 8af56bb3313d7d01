"""Unified planner subsystem.

One pipeline — build → autodiff → coarsen → search → plan → apply → simulate —
behind the :class:`Planner` facade, with pluggable search backends
(:mod:`repro.planner.backends`), a content-addressed plan cache
(:mod:`repro.planner.cache`) and a search over the orders of the worker
factorisation (:func:`search_candidates`).
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
    candidate_factorizations,
    default_planner,
    search_candidates,
)

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
