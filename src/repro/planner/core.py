"""The :class:`Planner` facade — one entry point for the whole pipeline.

``Planner`` owns the end-to-end flow the paper describes: take a built
training graph (already carrying autodiff metadata), coarsen it, search a
partition plan with a pluggable backend, and optionally apply the plan and
simulate the per-device execution.  Around the search it adds the two things
a production planner needs:

* a content-addressed plan cache (:mod:`repro.planner.cache`) keyed by
  (graph signature, worker factorisation, machine spec, backend config), and
* parallel candidate search (:mod:`repro.planner.parallel`) fanning
  alternative worker factorisations across a process pool.

``repro.compile`` plans through the process-wide :func:`default_planner`
unless it is handed a planner of its own.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from repro import perf
from repro.errors import PartitionError
from repro.graph.graph import Graph
from repro.partition.plan import PartitionPlan, factorize_workers
from repro.planner.backends import get_backend
from repro.planner.cache import PlanCache, plan_cache_key
from repro.planner.parallel import candidate_factorizations, search_candidates
from repro.runtime.core import SimulationReport
from repro.sim.device import Topology

__all__ = [
    "Planner",
    "PlannerConfig",
    "SimulationReport",
    "default_planner",
]


@dataclass(frozen=True)
class PlannerConfig:
    """Configuration of a :class:`Planner`.

    Attributes:
        backend: Default search backend (a :func:`repro.planner.backends`
            registry key); overridable per ``plan()`` call.
        backend_options: Default keyword options forwarded to the backend.
        jobs: Process-pool size for the candidate search (1 = in-process).
            Does not affect the plan found, only wall-clock time, so it is
            deliberately excluded from the cache key.
        expand_jobs: Must be 1.  The search runs on one thread; any other
            value raises :class:`~repro.errors.PartitionError`.
        explore_factor_orders: For backends that support it, search every
            distinct ordering of the worker factorisation instead of only the
            descending-prime order (a no-op for power-of-two worker counts).
        cache_capacity: In-memory LRU size; 0 disables the memory tier.
        cache_dir: Optional directory for the persistent plan store.
        cache_max_bytes: Byte budget for the on-disk store; when the stored
            plans exceed it the least-recently-used entries are evicted.
            ``None`` means unbounded.
    """

    backend: str = "tofu"
    backend_options: Mapping[str, object] = field(default_factory=dict)
    jobs: int = 1
    # Kept only because benchmarks/e2e/harness.py (lines 261, 324) spells it.
    expand_jobs: int = 1
    explore_factor_orders: bool = True
    cache_capacity: int = 128
    cache_dir: Optional[str] = None
    cache_max_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.expand_jobs != 1:
            raise PartitionError(
                f"expand_jobs={self.expand_jobs!r}: intra-search threads were "
                "removed, the partition search runs on one thread (use jobs "
                "for the process-pool candidate search)"
            )


class Planner:
    """Facade over search backends, the plan cache, and the simulator."""

    def __init__(
        self,
        config: Optional[PlannerConfig] = None,
        *,
        cache: Optional[PlanCache] = None,
    ):
        self.config = config or PlannerConfig()
        self.cache = cache or PlanCache(
            capacity=self.config.cache_capacity,
            cache_dir=self.config.cache_dir,
            max_bytes=self.config.cache_max_bytes,
        )

    # ------------------------------------------------------------------ plan
    def plan(
        self,
        graph: Graph,
        num_workers: int,
        *,
        machine: Optional[Topology] = None,
        backend: Optional[str] = None,
        backend_options: Optional[Mapping[str, object]] = None,
        strategy: Optional[object] = None,
    ) -> PartitionPlan:
        """Search (or recall) a partition plan for ``num_workers`` workers.

        The result for a given (graph, worker factorisation, machine,
        backend config) is cached; a second call with equal inputs returns an
        equal plan without re-running the search.  ``machine`` is part of the
        cache key even though the built-in backends are machine-agnostic (a
        cost-model-aware backend need not be).
        ``strategy`` — the full :class:`repro.strategy.Strategy` when the
        request came through ``repro.compile`` — is folded into the cache key
        so differently-composed strategies never collide on one entry.
        Requests whose backend options are not JSON-serialisable (e.g. a
        pre-built ``coarse`` graph) have no stable content address and bypass
        the cache entirely.

        The key carries no pricing model: the search minimises
        communication bytes, so the kernel pricing never moves a plan and
        every model shares one cache entry.

        Raises:
            PartitionError: When the backend cannot produce a plan for the
                requested worker count.
        """
        spec = get_backend(backend or self.config.backend)
        options = {**self.config.backend_options, **(backend_options or {})}
        spec.validate_options(options)
        factors = factorize_workers(num_workers)
        explore = spec.supports_factor_orders and self.config.explore_factor_orders

        key = None
        if self.cache.enabled:
            try:
                key = plan_cache_key(
                    graph, factors, machine, spec.name, options,
                    explore_factor_orders=explore,
                    strategy=strategy,
                )
            except TypeError:
                key = None
            else:
                cached = self.cache.get(key)
                if cached is not None:
                    perf.count("plan_cache.hit")
                    return cached
                perf.count("plan_cache.miss")

        with perf.stage(f"planner.search.{spec.name}"):
            plan = self._search(spec, graph, num_workers, options)
        if key is not None:
            self.cache.put(key, plan)
        return plan

    def _search(self, spec, graph, num_workers, options) -> PartitionPlan:
        if not (spec.supports_factor_orders and self.config.explore_factor_orders):
            return spec.search(graph, num_workers, **options)
        candidates = candidate_factorizations(num_workers)
        if len(candidates) == 1:
            return spec.search(graph, num_workers, factors=candidates[0], **options)
        start = time.perf_counter()
        plan = search_candidates(
            spec, graph, num_workers, candidates, options, jobs=self.config.jobs
        )
        plan.search_time_seconds = time.perf_counter() - start
        return plan

    # ------------------------------------------------------------ utilities
    def cache_info(self) -> Dict[str, int]:
        """``{"hits": ..., "misses": ..., "size": ...}`` for this planner."""
        return self.cache.info()

    def clear_cache(self) -> None:
        """Drop every cached plan (memory tier and disk tier)."""
        self.cache.clear()


_DEFAULT_PLANNER: Optional[Planner] = None


def default_planner() -> Planner:
    """The process-wide planner ``repro.compile`` and the autotuner fall
    back to, so repeated compiles share one plan cache."""
    global _DEFAULT_PLANNER
    if _DEFAULT_PLANNER is None:
        _DEFAULT_PLANNER = Planner()
    return _DEFAULT_PLANNER
