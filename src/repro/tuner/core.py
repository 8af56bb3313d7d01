"""The budgeted autotuner: staged screening, a serial sweep, a frontier.

One :meth:`Tuner.tune` call runs three stages per candidate:

1. **Screen** — a static persistent-memory estimate (``3 W / shards``, the
   same footprint model the batch-search evaluators use) followed by a
   ``lower_only=True`` compile whose per-device memory report is checked
   against each device's capacity.  A candidate that cannot fit is decided
   *before any full simulation*, with its rejection reason recorded, and
   its task rows are never emitted (lowering emits them on first read).
2. **Search** — survivors are fully simulated in-process, through the
   caller's planner and executor, so every candidate's plan and program
   land in those caches and the winner comes back as the model the sweep
   built.
3. **Rank** — outcomes reduce to a Pareto frontier over (iteration time,
   peak device memory, machine count) under the :class:`TunerBudget`.

Determinism: a budget counts candidates only, so reruns decide the same
candidates with the same tie-breaks and return identical frontiers and
winner keys.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import compiler, perf
from repro.errors import (
    ExecutionError,
    PartitionError,
    SimulationError,
    StrategyError,
)
from repro.graph.graph import Graph
from repro.perf import StageTimer
from repro.planner.core import Planner, default_planner
from repro.runtime.core import Executor
from repro.sim.device import Topology
from repro.strategy.algebra import Machines, Strategy, normalize, parse
from repro.strategy.lowering import persistent_bytes, weight_shards
from repro.tuner.budget import TunerBudget
from repro.tuner.candidates import machine_compute_profile, tuner_candidates
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
    weight_bytes: int,
    index: int,
    strategy: Strategy,
    machine: Topology,
) -> Optional[CandidateOutcome]:
    """Stage 1a: static persistent-footprint estimate — no search, no
    lowering.  Returns the ``"screened"`` outcome when the candidate cannot
    fit, ``None`` when it passes on to plan-and-lower.  ``weight_bytes`` is
    the graph's, read once per sweep.
    """
    capacity = max(
        machine.device(i).memory_bytes for i in range(machine.num_devices)
    )
    persistent = persistent_bytes(weight_bytes, strategy, machine)
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
    weight_bytes: int,
    planner: Planner,
    executor: Executor,
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
        screened = static_screen(weight_bytes, index, strategy, machine)
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
                lower_only=True,
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
        over = machine.over_capacity(program.per_device_memory)
        if over:
            perf.count("tuner.screened")
            device = over[0]
            required = program.per_device_memory[device]
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
        except (SimulationError, ExecutionError) as exc:
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
# The tuner
# ---------------------------------------------------------------------------
class Tuner:
    """A budgeted strategy autotuner.

    Args:
        budget: The :class:`TunerBudget`; ``None`` means unbounded (the
            whole generated grid is decided).
        jobs: Must be 1.  Candidates are evaluated in-process, sharing the
            caller's planner and executor caches; any other value raises
            :class:`~repro.errors.StrategyError`.

    The candidate grid is :func:`repro.tuner.tuner_candidates`; pass
    ``candidates=`` to :meth:`tune` to sweep any other set.
    """

    def __init__(
        self,
        budget: Optional[TunerBudget] = None,
        # Kept only because benchmarks/e2e/harness.py spells jobs=1.
        jobs: int = 1,
    ):
        if jobs != 1:
            raise StrategyError(
                f"Tuner jobs={jobs!r}: the tuner's process pool was removed, "
                "candidates are evaluated in-process"
            )
        self.budget = budget or TunerBudget()

    # ----------------------------------------------------------------- tune
    # Like compile(..., "auto"): one collector pause spans the whole sweep,
    # not each candidate's compile.
    @compiler.collector_paused()
    def tune(
        self,
        graph: Graph,
        machine: Optional[Topology] = None,
        *,
        planner: Optional[Planner] = None,
        executor: Optional[Executor] = None,
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
            pool = tuner_candidates(machine)
        else:
            pool = [parse(c) if isinstance(c, str) else c for c in candidates]
        if not pool:
            raise StrategyError("the autotuner needs at least one candidate")

        admitted, cut = self.budget.split(pool)

        # Report into the caller's active timer when one is set, so a
        # profiled sweep keeps its stages; stage_seconds counts this sweep.
        timer = perf.active_timer() or StageTimer()
        calls_before = dict(timer.calls)
        seconds_before = dict(timer.seconds)
        started = time.perf_counter()
        with perf.activation(timer):
            perf.count("tuner.candidates", len(admitted))
            outcomes, best_model = self._sweep(
                graph,
                machine,
                admitted,
                planner=planner,
                executor=executor,
            )
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
            "budget": self.budget.to_dict(),
            "generated": len(pool),
            "admitted": len(admitted),
            "elapsed_seconds": elapsed,
            "stage_seconds": {
                name: seconds - seconds_before.get(name, 0.0)
                for name, seconds in sorted(timer.seconds.items())
                if name.startswith("tuner.")
                and timer.calls[name] > calls_before.get(name, 0)
            },
            "machine_profile": [[d, f] for d, f in profile],
            "heterogeneous": len({d for d, _ in profile}) > 1
            or len({f for _, f in profile}) > 1,
        }
        return TunerResult(
            best=best_model,
            frontier=frontier,
            outcomes=outcomes,
            stats=stats,
        )

    # ------------------------------------------------------------- internals
    def _sweep(
        self,
        graph: Graph,
        machine: Topology,
        admitted: List[Strategy],
        *,
        planner: Planner,
        executor: Executor,
    ) -> Tuple[List[CandidateOutcome], Optional["compiler.CompiledModel"]]:
        outcomes: List[CandidateOutcome] = []
        best_model: Optional["compiler.CompiledModel"] = None
        best_key: Optional[Tuple[float, int]] = None
        weight_bytes = graph.weight_bytes()
        for index, candidate in enumerate(admitted):
            outcome, model = evaluate_candidate(
                graph,
                index,
                candidate,
                machine,
                weight_bytes=weight_bytes,
                planner=planner,
                executor=executor,
            )
            outcomes.append(outcome)
            if outcome.viable and model is not None:
                key = (outcome.iteration_time, outcome.index)
                if best_key is None or key < best_key:
                    best_key = key
                    best_model = model
        return outcomes, best_model
