"""The budgeted autotuner: staged screening, a process pool, a frontier.

One :meth:`Tuner.tune` call runs three stages per candidate:

1. **Screen** — a static persistent-memory estimate (``3 W / shards``, the
   same footprint model the batch-search evaluators use) followed by a
   ``lower_only=True`` compile whose per-device memory report is checked
   against each device's capacity.  A candidate that cannot fit is decided
   *before any full simulation*, with its rejection reason recorded.
2. **Search** — survivors are fully simulated.  With ``jobs > 1`` whole
   candidates fan across a ``multiprocessing`` pool (the context chosen by
   :func:`repro.planner.parallel.mp_context`, honoring
   ``TOFU_MP_START_METHOD``), breaking the GIL that serialises cold planner
   searches; each worker's plan/program cache entries are shipped back and
   merged into the parent planner's and executor's
   :class:`repro.caching.TwoTierCache`, so the winner's final compile in
   the parent is warm.
3. **Rank** — outcomes reduce to a Pareto frontier over (iteration time,
   peak device memory, machine count) under the :class:`TunerBudget`; the
   incumbent best is tracked live (:attr:`Tuner.incumbent`) while the sweep
   runs.

Determinism: given a budget in candidates only (no wall-clock deadline),
serial and pooled sweeps decide the same candidates with the same
tie-breaks and return identical frontiers and winner keys.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro import compiler, perf
from repro.caching import graph_signature_scope
from repro.errors import (
    ExecutionError,
    OutOfMemoryError,
    PartitionError,
    SimulationError,
    StrategyError,
)
from repro.graph.graph import Graph
from repro.graph.serialization import graph_from_dict, graph_to_dict
from repro.perf import StageTimer
from repro.planner.core import Planner, PlannerConfig, default_planner
from repro.planner.parallel import mp_context
from repro.runtime.core import Executor
from repro.sim.device import Topology, machine_from_dict, machine_to_dict
from repro.strategy.algebra import Machines, Strategy, normalize, parse
from repro.strategy.lowering import persistent_bytes, weight_shards
from repro.tuner.budget import TunerBudget
from repro.tuner.candidates import (
    DEFAULT_MICROBATCHES,
    DEFAULT_SCHEDULES,
    machine_compute_profile,
    tuner_candidates,
)
from repro.tuner.result import (
    STATUS_ERROR,
    STATUS_EVALUATED,
    STATUS_SCREENED,
    STATUS_SKIPPED,
    CandidateOutcome,
    TunerResult,
    pareto_frontier,
)

__all__ = ["Tuner"]


def _machines_used(strategy: Strategy, machine: Topology) -> int:
    root = normalize(strategy).chain()[0]
    if isinstance(root, Machines):
        return min(root.count, machine.num_machines)
    return machine.num_machines


def static_screen(
    graph: Graph,
    index: int,
    strategy: Strategy,
    machine: Topology,
) -> Optional[CandidateOutcome]:
    """Stage 1a: static persistent-footprint estimate — no search, no
    lowering.  Returns the ``"screened"`` outcome when the candidate cannot
    fit, ``None`` when it passes on to plan-and-lower.  Being a pure
    function of (graph, strategy, machine), it decides identically whether
    it runs in the parent (pooled sweeps pre-screen before dispatch) or in
    a worker (serial sweeps screen inline).
    """
    capacity = max(
        machine.device(i).memory_bytes for i in range(machine.num_devices)
    )
    persistent = persistent_bytes(graph.weight_bytes(), strategy, machine)
    if persistent <= capacity:
        return None
    perf.count("tuner.screened")
    gib = 1024.0**3
    return CandidateOutcome(
        index=index,
        strategy=str(strategy),
        status=STATUS_SCREENED,
        reason=(
            f"memory-estimate: persistent weights need "
            f"{persistent / gib:.2f} GiB per device across "
            f"{weight_shards(strategy, machine)} shard(s), device capacity is "
            f"{capacity / gib:.2f} GiB"
        ),
        machine_count=_machines_used(strategy, machine),
        oom=True,
    )


def evaluate_candidate(
    graph: Graph,
    index: int,
    strategy: Strategy,
    machine: Topology,
    *,
    planner: Planner,
    executor: Executor,
    plan_options: Optional[Mapping[str, object]] = None,
) -> Tuple[CandidateOutcome, Optional["compiler.CompiledModel"]]:
    """Screen then (if it fits) fully evaluate one candidate.

    Returns ``(outcome, model)``; ``model`` is ``None`` unless the
    candidate was fully simulated.  Never raises for a candidate-level
    failure — a compile error becomes an ``"error"`` outcome, a memory
    rejection a ``"screened"`` one with the reason.
    """
    text = str(strategy)
    used = _machines_used(strategy, machine)

    with perf.stage("tuner.screen"):
        # Stage 1a: static footprint estimate — no search, no lowering.
        screened = static_screen(graph, index, strategy, machine)
        if screened is not None:
            return (screened, None)
        # Stage 1b: plan + lower (no simulation) and check the per-device
        # memory report against each device's actual capacity.
        try:
            model = compiler.compile(
                graph,
                strategy,
                machine,
                planner=planner,
                executor=executor,
                plan_options=plan_options,
                lower_only=True,
            )
        except OutOfMemoryError as exc:
            perf.count("tuner.screened")
            return (
                CandidateOutcome(
                    index=index,
                    strategy=text,
                    status=STATUS_SCREENED,
                    reason=f"memory: {exc}",
                    machine_count=used,
                    oom=True,
                ),
                None,
            )
        except (StrategyError, ExecutionError, PartitionError, SimulationError) as exc:
            perf.count("tuner.error")
            return (
                CandidateOutcome(
                    index=index,
                    strategy=text,
                    status=STATUS_ERROR,
                    reason=str(exc),
                    machine_count=used,
                ),
                None,
            )
        program = model.program
        assert program is not None  # lower_only fills it
        over = [
            (device, required)
            for device, required in sorted(program.per_device_memory.items())
            if required > machine.device(device).memory_bytes
        ]
        if over:
            perf.count("tuner.screened")
            device, required = over[0]
            gib = 1024.0**3
            return (
                CandidateOutcome(
                    index=index,
                    strategy=text,
                    status=STATUS_SCREENED,
                    reason=(
                        f"memory: device {device} needs "
                        f"{required / gib:.2f} GiB, capacity is "
                        f"{machine.device(device).memory_bytes / gib:.2f} GiB"
                        + (
                            f" (+{len(over) - 1} more device(s))"
                            if len(over) > 1
                            else ""
                        )
                    ),
                    peak_memory=program.per_device_peak_bytes,
                    machine_count=used,
                    oom=True,
                ),
                None,
            )

    with perf.stage("tuner.search"):
        try:
            model.simulate(executor)
        except (OutOfMemoryError, SimulationError, ExecutionError) as exc:
            perf.count("tuner.error")
            return (
                CandidateOutcome(
                    index=index,
                    strategy=text,
                    status=STATUS_ERROR,
                    reason=str(exc),
                    machine_count=used,
                ),
                None,
            )
    perf.count("tuner.evaluated")
    return (
        CandidateOutcome(
            index=index,
            strategy=text,
            status=STATUS_EVALUATED,
            iteration_time=model.iteration_time,
            peak_memory=program.per_device_peak_bytes,
            machine_count=used,
            oom=model.oom,
        ),
        model,
    )


# ---------------------------------------------------------------------------
# Pool workers
# ---------------------------------------------------------------------------
# Worker-process state, installed once per pool worker by the initializer
# (the graph/machine payloads cross once, not per candidate).  Workers get a
# fresh in-memory planner and executor — strictly jobs=1 inside, a daemonic
# pool worker must never open a nested pool — and ship the cache entries
# each evaluation produced back to the parent, newest-first deltas only.
_STATE: Optional[Tuple] = None
_SHIPPED_PLANS: set = set()
_SHIPPED_PROGRAMS: set = set()


def _init_worker(graph_payload, machine_payload, plan_options, planner_payload):
    global _STATE, _SHIPPED_PLANS, _SHIPPED_PROGRAMS
    graph = graph_from_dict(graph_payload)
    machine = machine_from_dict(machine_payload)
    planner = Planner(
        PlannerConfig(
            backend=planner_payload["backend"],
            backend_options=planner_payload["backend_options"],
            explore_factor_orders=planner_payload["explore_factor_orders"],
        )
    )
    executor = Executor()
    _STATE = (graph, machine, planner, executor, plan_options)
    _SHIPPED_PLANS = set()
    _SHIPPED_PROGRAMS = set()


def _cache_delta(cache, shipped: set) -> Dict[str, Dict]:
    delta = cache.snapshot_payloads(exclude=shipped)
    shipped.update(delta)
    return delta


def _evaluate_in_worker(item: Tuple[int, str]):
    index, text = item
    graph, machine, planner, executor, plan_options = _STATE
    outcome, _model = evaluate_candidate(
        graph,
        index,
        parse(text),
        machine,
        planner=planner,
        executor=executor,
        plan_options=plan_options,
    )
    return (
        index,
        outcome.to_dict(),
        _cache_delta(planner.cache, _SHIPPED_PLANS),
        _cache_delta(executor.program_cache, _SHIPPED_PROGRAMS),
    )


# ---------------------------------------------------------------------------
# The tuner
# ---------------------------------------------------------------------------
class Tuner:
    """A budgeted, optionally parallel strategy autotuner.

    Args:
        budget: The :class:`TunerBudget`; ``None`` means unbounded (the
            whole generated grid is decided).
        jobs: Process-pool width for candidate evaluation.  ``1`` (the
            default) evaluates in-process, sharing the caller's planner and
            executor caches directly; ``> 1`` fans whole candidates across
            a pool and merges the workers' cache entries back afterwards.
        microbatches / schedules / search_backends: Grid axes forwarded to
            :func:`repro.tuner.tuner_candidates` when no explicit candidate
            list is given.
        on_progress: Optional callback invoked as ``on_progress(outcome,
            incumbent)`` after every candidate decision — the hook for
            mid-search progress display.

    The best-so-far outcome is also readable live on :attr:`incumbent`
    while :meth:`tune` runs.
    """

    def __init__(
        self,
        budget: Optional[TunerBudget] = None,
        jobs: int = 1,
        *,
        microbatches: Sequence[int] = DEFAULT_MICROBATCHES,
        schedules: Sequence[str] = DEFAULT_SCHEDULES,
        search_backends: Sequence[str] = (),
        on_progress: Optional[
            Callable[[CandidateOutcome, Optional[CandidateOutcome]], None]
        ] = None,
    ):
        if jobs < 1:
            raise StrategyError(f"Tuner jobs must be >= 1, got {jobs}")
        self.budget = budget or TunerBudget()
        self.jobs = jobs
        self.microbatches = tuple(microbatches)
        self.schedules = tuple(schedules)
        self.search_backends = tuple(search_backends)
        self.on_progress = on_progress
        self.incumbent: Optional[CandidateOutcome] = None

    # ----------------------------------------------------------------- tune
    @graph_signature_scope()
    def tune(
        self,
        graph: Graph,
        machine: Optional[Topology] = None,
        *,
        planner: Optional[Planner] = None,
        executor: Optional[Executor] = None,
        plan_options: Optional[Mapping[str, object]] = None,
        candidates: Optional[Sequence[Union[Strategy, str]]] = None,
    ) -> TunerResult:
        """Run the staged sweep and return the ranked :class:`TunerResult`.

        ``candidates`` overrides the generated grid (strategy trees or
        canonical strings); the budget still applies.  Raises
        :class:`repro.errors.StrategyError` when no candidate survives to a
        viable simulation.
        """
        machine = compiler._resolve_machine(machine, None)
        planner = planner or default_planner()
        executor = executor or Executor()
        if candidates is None:
            pool = tuner_candidates(
                machine,
                microbatches=self.microbatches,
                schedules=self.schedules,
                search_backends=self.search_backends,
            )
        else:
            pool = [parse(c) if isinstance(c, str) else c for c in candidates]
        if not pool:
            raise StrategyError("the autotuner needs at least one candidate")

        admitted, cut = self.budget.split(pool)
        jobs = min(self.jobs, len(admitted))
        if jobs > 1 and self._cost_model_pinned():
            # An in-process cost-model override cannot be shipped to spawn
            # workers; stay serial rather than silently pricing differently.
            jobs = 1
        self.incumbent = None

        timer = executor.profile_timer or StageTimer()
        started = time.perf_counter()
        with perf.activation(timer):
            perf.count("tuner.candidates", len(admitted))
            if jobs > 1:
                outcomes, best_model, pool_stats = self._tune_pooled(
                    graph,
                    machine,
                    admitted,
                    jobs,
                    planner=planner,
                    executor=executor,
                    plan_options=plan_options,
                )
            else:
                outcomes, best_model = self._tune_serial(
                    graph,
                    machine,
                    admitted,
                    planner=planner,
                    executor=executor,
                    plan_options=plan_options,
                )
                pool_stats = {}
            for offset, candidate in enumerate(cut):
                outcomes.append(
                    CandidateOutcome(
                        index=len(admitted) + offset,
                        strategy=str(candidate),
                        status=STATUS_SKIPPED,
                        reason=(
                            f"budget: max_candidates="
                            f"{self.budget.max_candidates} reached"
                        ),
                        machine_count=_machines_used(candidate, machine),
                    )
                )

            with perf.stage("tuner.rank"):
                outcomes.sort(key=lambda o: o.index)
                frontier = pareto_frontier(outcomes)
        elapsed = time.perf_counter() - started

        if best_model is None:
            raise StrategyError(
                f"the autotuner found no executable candidate (all "
                f"{len(outcomes)} candidates failed, were screened out, or "
                f"exceeded device memory)"
            )
        profile = machine_compute_profile(machine)
        stats: Dict[str, object] = {
            "jobs": jobs,
            "budget": self.budget.to_dict(),
            "generated": len(pool),
            "admitted": len(admitted),
            "elapsed_seconds": elapsed,
            "stage_seconds": {
                name: seconds
                for name, seconds in sorted(timer.seconds.items())
                if name.startswith("tuner.")
            },
            "machine_profile": [[d, f] for d, f in profile],
            "heterogeneous": len({d for d, _ in profile}) > 1
            or len({f for _, f in profile}) > 1,
        }
        stats.update(pool_stats)
        return TunerResult(
            best=best_model,
            frontier=frontier,
            outcomes=outcomes,
            stats=stats,
        )

    # ------------------------------------------------------------- internals
    @staticmethod
    def _cost_model_pinned() -> bool:
        from repro.costmodel import cost_model_cache_token, current_cost_model

        return cost_model_cache_token(current_cost_model()) is not None

    def _deadline(self, started: float) -> Optional[float]:
        if self.budget.max_seconds is None:
            return None
        return started + self.budget.max_seconds

    def _note_progress(self, outcome: CandidateOutcome) -> None:
        if outcome.viable and (
            self.incumbent is None
            or (outcome.iteration_time, outcome.index)
            < (self.incumbent.iteration_time, self.incumbent.index)
        ):
            self.incumbent = outcome
        if self.on_progress is not None:
            self.on_progress(outcome, self.incumbent)

    def _tune_serial(
        self,
        graph: Graph,
        machine: Topology,
        admitted: List[Strategy],
        *,
        planner: Planner,
        executor: Executor,
        plan_options: Optional[Mapping[str, object]],
    ) -> Tuple[List[CandidateOutcome], Optional["compiler.CompiledModel"]]:
        started = time.monotonic()
        deadline = self._deadline(started)
        outcomes: List[CandidateOutcome] = []
        best_model: Optional["compiler.CompiledModel"] = None
        best_key: Optional[Tuple[float, int]] = None
        for index, candidate in enumerate(admitted):
            if deadline is not None and time.monotonic() >= deadline:
                outcomes.append(
                    CandidateOutcome(
                        index=index,
                        strategy=str(candidate),
                        status=STATUS_SKIPPED,
                        reason=(
                            f"budget: max_seconds={self.budget.max_seconds} "
                            f"deadline reached"
                        ),
                        machine_count=_machines_used(candidate, machine),
                    )
                )
                continue
            outcome, model = evaluate_candidate(
                graph,
                index,
                candidate,
                machine,
                planner=planner,
                executor=executor,
                plan_options=plan_options,
            )
            outcomes.append(outcome)
            if outcome.viable and model is not None:
                key = (outcome.iteration_time, outcome.index)
                if best_key is None or key < best_key:
                    best_key = key
                    best_model = model
            self._note_progress(outcome)
        return outcomes, best_model

    def _tune_pooled(
        self,
        graph: Graph,
        machine: Topology,
        admitted: List[Strategy],
        jobs: int,
        *,
        planner: Planner,
        executor: Executor,
        plan_options: Optional[Mapping[str, object]],
    ) -> Tuple[
        List[CandidateOutcome],
        Optional["compiler.CompiledModel"],
        Dict[str, object],
    ]:
        started = time.monotonic()
        deadline = self._deadline(started)
        # Pre-screen in the parent: the stage-1a static estimate is pure and
        # cheap, so candidates it rejects never cross into the pool at all —
        # only survivors pay the per-item fork/ship cost.
        collected: Dict[int, CandidateOutcome] = {}
        items: List[Tuple[int, str]] = []
        with perf.stage("tuner.screen"):
            for index, candidate in enumerate(admitted):
                screened = static_screen(graph, index, candidate, machine)
                if screened is not None:
                    collected[index] = screened
                    self._note_progress(screened)
                else:
                    items.append((index, str(candidate)))
        ctx = mp_context()
        planner_payload = {
            "backend": planner.config.backend,
            "backend_options": planner.config.backend_options,
            "explore_factor_orders": planner.config.explore_factor_orders,
        }
        merged_plans = merged_programs = 0
        remaining = len(items)
        if items:
            with perf.stage("tuner.search"), ctx.Pool(
                processes=min(jobs, len(items)),
                initializer=_init_worker,
                initargs=(
                    graph_to_dict(graph),
                    machine_to_dict(machine),
                    None if plan_options is None else dict(plan_options),
                    planner_payload,
                ),
            ) as pool:
                results = pool.imap_unordered(_evaluate_in_worker, items, chunksize=1)
                while remaining > 0:
                    timeout = None
                    if deadline is not None:
                        timeout = deadline - time.monotonic()
                        if timeout <= 0:
                            break
                    try:
                        index, payload, plans, programs = results.next(timeout)
                    except StopIteration:
                        break
                    except multiprocessing.TimeoutError:
                        break
                    merged_plans += planner.cache.merge_payloads(plans)
                    merged_programs += executor.program_cache.merge_payloads(programs)
                    outcome = CandidateOutcome.from_dict(payload)
                    collected[index] = outcome
                    remaining -= 1
                    self._note_progress(outcome)
        outcomes = list(collected.values())
        for index, candidate in enumerate(admitted):
            if index not in collected:
                outcomes.append(
                    CandidateOutcome(
                        index=index,
                        strategy=str(candidate),
                        status=STATUS_SKIPPED,
                        reason=(
                            f"budget: max_seconds={self.budget.max_seconds} "
                            f"deadline reached"
                        ),
                        machine_count=_machines_used(candidate, machine),
                    )
                )
        best = min(
            (o for o in outcomes if o.viable),
            key=lambda o: (o.iteration_time, o.index),
            default=None,
        )
        best_model = None
        if best is not None:
            # Recompile the winner in the parent — warm through the merged
            # plan/program caches — so the caller gets a full CompiledModel
            # (and, under a verifying executor, a parent-verified one).
            best_model = compiler.compile(
                graph,
                parse(best.strategy),
                machine,
                planner=planner,
                executor=executor,
                plan_options=plan_options,
            )
        pool_stats = {
            "start_method": ctx.get_start_method(),
            "cache_merged": {"plans": merged_plans, "programs": merged_programs},
        }
        return outcomes, best_model, pool_stats
