"""Unified planner subsystem.

The :class:`Planner` facade searches and caches partition plans — coarsen →
search → plan — with pluggable search backends
(:mod:`repro.planner.backends`), a content-addressed plan cache
(:mod:`repro.planner.cache`) and a search over the orders of the worker
factorisation (:func:`search_candidates`).  Applying a plan and simulating
it belong to :mod:`repro.runtime`.
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
