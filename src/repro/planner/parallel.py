"""Parallel candidate search over worker factorisations.

The recursive search partitions for ``k = k1 * ... * km`` workers one factor
at a time; the *order* of the factors is a degree of freedom (Sec 5.2 fixes
it to descending primes, which Theorem 3 shows is optimal under the paper's
linearity assumptions, but halo terms in CNNs bend those assumptions).  Each
candidate order is an independent end-to-end search, so the planner fans them
across a ``multiprocessing`` pool and keeps the cheapest plan.

The steps *within* one candidate stay sequential — step ``i+1`` partitions
the shapes shrunk by step ``i`` — so candidates, not steps, are the unit of
parallelism.  Ties are broken by candidate index, which makes the serial and
parallel paths return bit-identical plans.
"""

from __future__ import annotations

import multiprocessing
import os
from collections import Counter
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.partition.plan import PartitionPlan, factorize_workers
from repro.planner.backends import BackendSpec

Factors = Tuple[int, ...]

_MAX_CANDIDATES = 24

# Environment override for the pool start method, so spawn-only behaviour
# (macOS/Windows default, and what CI exercises explicitly) can be forced on
# fork platforms too.
START_METHOD_ENV = "TOFU_MP_START_METHOD"


def mp_context() -> multiprocessing.context.BaseContext:
    """The multiprocessing context of the planner's candidate-search pool.

    Defaults to ``fork`` where available (cheapest start, inherits warm
    state) and ``spawn`` otherwise.  The ``TOFU_MP_START_METHOD``
    environment variable overrides the choice (``fork`` / ``spawn`` /
    ``forkserver``); an override naming a method the platform does not
    support raises :class:`repro.errors.ReproError` instead of silently
    falling back.
    """
    methods = multiprocessing.get_all_start_methods()
    override = os.environ.get(START_METHOD_ENV, "").strip()
    if override:
        if override not in methods:
            raise ReproError(
                f"{START_METHOD_ENV}={override!r} is not a start method this "
                f"platform supports (available: {', '.join(methods)})"
            )
        return multiprocessing.get_context(override)
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def candidate_factorizations(
    num_workers: int, limit: int = _MAX_CANDIDATES
) -> List[Factors]:
    """Distinct orderings of the prime factorisation of ``num_workers``.

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


# Worker-process state, installed once per pool worker by the initializer so
# the (potentially large) graph is not re-pickled for every candidate.  The
# BackendSpec itself is shipped (not its registry name): on spawn-start
# platforms the worker re-imports only the built-in registry, so a
# runtime-registered backend would not resolve by name there.
_STATE: Optional[Tuple] = None


def _init_worker(graph, spec, num_workers, options) -> None:
    global _STATE
    _STATE = (graph, spec, num_workers, options)


def _run_candidate(factors: Factors) -> PartitionPlan:
    graph, spec, num_workers, options = _STATE
    return spec.search(graph, num_workers, factors=factors, **options)


def search_candidates(
    spec: BackendSpec,
    graph,
    num_workers: int,
    candidates: Sequence[Factors],
    options: Mapping[str, object],
    jobs: int = 1,
) -> PartitionPlan:
    """Evaluate every candidate factor order and return the cheapest plan.

    ``jobs > 1`` distributes candidates over a process pool; the result is
    identical to the serial evaluation (same candidates, same tie-break).
    """
    options = dict(options)
    jobs = min(jobs, len(candidates))
    if jobs > 1:
        ctx = mp_context()
        with ctx.Pool(
            processes=jobs,
            initializer=_init_worker,
            initargs=(graph, spec, num_workers, options),
        ) as pool:
            plans = pool.map(_run_candidate, list(candidates))
    else:
        plans = [
            spec.search(graph, num_workers, factors=factors, **options)
            for factors in candidates
        ]
    best = min(
        range(len(plans)), key=lambda i: (plans[i].total_comm_bytes, i)
    )
    return plans[best]
