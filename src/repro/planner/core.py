"""The :class:`Planner` facade — the entry point for searching plans.

``Planner`` takes a built training graph (already carrying autodiff
metadata) and searches a partition plan for it with a pluggable backend; it
neither applies the plan nor simulates it (lowering and simulation belong to
:class:`repro.runtime.Executor`).  Around the search it adds the two things
a production planner needs:

* a content-addressed plan cache (:mod:`repro.planner.cache`) keyed by
  (graph signature, worker factorisation, machine spec, backend config), and
* a candidate search over alternative orders of the worker factorisation
  (:func:`search_candidates`), run one order after another in-process.

``repro.compile`` plans through the process-wide :func:`default_planner`
unless it is handed a planner of its own.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro import perf
from repro.errors import PartitionError
from repro.graph.graph import Graph
from repro.partition.plan import PartitionPlan, factorize_workers
from repro.planner.backends import BackendSpec, get_backend
from repro.planner.cache import PlanCache, plan_cache_key
from repro.sim.device import Topology

__all__ = [
    "Planner",
    "PlannerConfig",
    "candidate_factorizations",
    "default_planner",
    "search_candidates",
]

Factors = Tuple[int, ...]

_MAX_CANDIDATES = 24


def candidate_factorizations(
    num_workers: int, limit: int = _MAX_CANDIDATES
) -> List[Factors]:
    """Distinct orderings of the prime factorisation of ``num_workers``.

    The recursive search partitions for ``k = k1 * ... * km`` workers one
    factor at a time, and the *order* of the factors is a degree of freedom
    (Sec 5.2 fixes it to descending primes, which Theorem 3 shows is optimal
    under the paper's linearity assumptions, but halo terms in CNNs bend
    those assumptions).

    The descending-prime order (the paper's choice) is always first, so a
    single-candidate search degenerates to the paper's algorithm exactly.
    Powers of two — every machine in the evaluation — have exactly one
    candidate; the cap guards against pathological worker counts.

    Enumeration is over the *multiset* of prime factors (not raw
    permutations), so repeated factors — 2^11 workers has one distinct
    order, not 11! duplicates — cost nothing.
    """
    base = factorize_workers(num_workers)
    remaining = Counter(base)
    values = sorted(remaining, reverse=True)
    out: List[Factors] = []
    prefix: List[int] = []

    def backtrack() -> None:
        if len(out) >= limit:
            return
        if len(prefix) == len(base):
            out.append(tuple(prefix))
            return
        for value in values:
            if not remaining[value]:
                continue
            remaining[value] -= 1
            prefix.append(value)
            backtrack()
            prefix.pop()
            remaining[value] += 1

    backtrack()
    return out or [()]


def search_candidates(
    spec: BackendSpec,
    graph,
    num_workers: int,
    candidates: Sequence[Factors],
    options: Mapping[str, object],
) -> PartitionPlan:
    """Search every candidate factor order and return the cheapest plan.

    Each candidate is an independent end-to-end search; ties on
    communication bytes go to the earlier candidate, so the paper's
    descending order wins unless another order is strictly cheaper.
    """
    plans = [
        spec.search(graph, num_workers, factors=factors, **options)
        for factors in candidates
    ]
    best = min(
        range(len(plans)), key=lambda i: (plans[i].total_comm_bytes, i)
    )
    return plans[best]


@dataclass(frozen=True)
class PlannerConfig:
    """Configuration of a :class:`Planner`.

    Attributes:
        jobs: Must be 1.  The candidate search runs in-process; any other
            value raises :class:`~repro.errors.PartitionError`.
        expand_jobs: Must be 1.  The search runs on one thread; any other
            value raises :class:`~repro.errors.PartitionError`.
        cache_capacity: In-memory LRU size; 0 disables the memory tier.
        cache_dir: Optional directory for the persistent plan store, one
            ``<content key>.json`` file per plan.  The store is unbounded:
            remove plans with :meth:`Planner.clear_cache` (other files in
            the directory are never touched); copy or list the directory
            to move or inspect it.
    """

    # jobs and expand_jobs are kept only because benchmarks/e2e/harness.py
    # (lines 261, 324) spells them.
    jobs: int = 1
    expand_jobs: int = 1
    cache_capacity: int = 128
    cache_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.jobs != 1:
            raise PartitionError(
                f"PlannerConfig jobs={self.jobs!r}: the candidate-search "
                "process pool was removed, factor orders are searched "
                "in-process"
            )
        if self.expand_jobs != 1:
            raise PartitionError(
                f"expand_jobs={self.expand_jobs!r}: intra-search threads were "
                "removed, the partition search runs on one thread"
            )


class Planner:
    """Facade over search backends and the plan cache: it searches and
    caches plans; it does not apply or simulate them."""

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
        )

    # ------------------------------------------------------------------ plan
    def plan(
        self,
        graph: Graph,
        num_workers: int,
        *,
        machine: Optional[Topology] = None,
        backend: str = "tofu",
        backend_options: Optional[Mapping[str, object]] = None,
        strategy: Optional[object] = None,
    ) -> PartitionPlan:
        """Search (or recall) a partition plan for ``num_workers`` workers.

        The result for a given (graph, worker factorisation, machine,
        backend config) is cached; a second call with equal inputs returns
        the same plan without re-running the search.  A cached plan is
        frozen (edits raise ``PAR001_FROZEN_PLAN``); edit a copy,
        ``plan_from_dict(plan_to_dict(plan))``.  ``machine`` is part of the
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
        spec = get_backend(backend)
        options = dict(backend_options or {})
        spec.validate_options(options)
        factors = factorize_workers(num_workers)

        key = None
        if self.cache.enabled:
            try:
                key = plan_cache_key(
                    graph, factors, machine, spec.name, options,
                    explore_factor_orders=spec.supports_factor_orders,
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
        if not spec.supports_factor_orders:
            return spec.search(graph, num_workers, **options)
        candidates = candidate_factorizations(num_workers)
        if len(candidates) == 1:
            return spec.search(graph, num_workers, factors=candidates[0], **options)
        start = time.perf_counter()
        plan = search_candidates(spec, graph, num_workers, candidates, options)
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
