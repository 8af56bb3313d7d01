"""The :class:`Executor` facade — one entry point for execution.

``Executor`` owns the staged lowering pipeline the paper's runtime implies:
take a built graph (plus, for partitioned execution, a plan from the
:class:`repro.planner.Planner`), lower it with a pluggable execution backend
to a :class:`LoweredProgram` of device-assigned tasks and a memory report,
and simulate that program under link contention on the modelled machine.

The two stages are exposed separately (``lower`` then ``simulate``), so
callers can inspect or adjust the lowered program between them — e.g. the
framework-overhead ablation of Table 3 gives a copy of the program a dict of
rescaled tasks (``dataclasses.replace(program.copy(), tasks=...)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Optional

from repro import perf
from repro.graph.graph import Graph
from repro.runtime.backends import get_execution_backend
from repro.runtime.cache import (
    ProgramCache,
    default_program_cache,
    lowered_cache_key,
)
from repro.runtime.program import LoweredProgram
from repro.sim.device import Topology, k80_8gpu_machine
from repro.sim.engine import SimResult, TaskGraphSimulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.partition.plan import PartitionPlan


@dataclass(frozen=True)
class ExecutorConfig:
    """Configuration of an :class:`Executor`.

    Attributes:
        cache_programs: Reuse lowered programs by content address (graph ×
            machine × backend × options × plan).  On by default; a hit
            skips every lowering pass and returns a fresh program, sharing
            the cached immutable tasks, that simulates bit-identically to a
            cold lowering.
        program_cache_capacity: LRU entries of a private in-memory program
            cache.  Unset, the executor shares the process-wide cache
            (:func:`repro.runtime.cache.default_program_cache`).

    Lowering does not verify its output: callers run
    :func:`repro.analysis.verify_program` on the program they lowered.
    """

    cache_programs: bool = True
    program_cache_capacity: Optional[int] = None


class Executor:
    """Facade over execution backends, lowering passes, and the simulator."""

    def __init__(self, config: Optional[ExecutorConfig] = None):
        self.config = config or ExecutorConfig()
        if self.config.program_cache_capacity is not None:
            self.program_cache: ProgramCache = ProgramCache(
                capacity=self.config.program_cache_capacity
            )
        else:
            self.program_cache = default_program_cache()

    def _resolve_machine(
        self, machine: Optional[Topology], plan: Optional["PartitionPlan"]
    ) -> Topology:
        if machine is not None:
            return machine
        if plan is not None:
            return k80_8gpu_machine(plan.num_workers)
        return k80_8gpu_machine()

    # ----------------------------------------------------------------- lower
    def lower(
        self,
        graph: Graph,
        *,
        plan: Optional["PartitionPlan"] = None,
        machine: Optional[Topology] = None,
        backend: str = "tofu-partitioned",
        backend_options: Optional[Mapping[str, object]] = None,
    ) -> LoweredProgram:
        """Lower ``graph`` to a device-assigned task program (no simulation).

        With ``config.cache_programs`` (the default), a content-addressed
        hit returns a fresh program sharing the cached (immutable) tasks
        without running any lowering pass; requests whose options have no
        stable content address (an option value that is not
        JSON-serialisable) bypass the cache.

        Raises:
            ExecutionError: For an unknown backend, invalid options, or a
                plan-requiring backend invoked without a plan.
        """
        spec = get_execution_backend(backend)
        options = dict(backend_options or {})
        spec.validate_options(options)
        if spec.requires_plan and plan is None:
            from repro.errors import ExecutionError

            raise ExecutionError(
                f"execution backend {spec.name!r} requires a partition plan"
            )
        machine = self._resolve_machine(machine, plan)

        key: Optional[str] = None
        if self.config.cache_programs and self.program_cache.enabled:
            try:
                key = lowered_cache_key(
                    graph, machine, spec.name, options, plan=plan
                )
            except (TypeError, AttributeError):
                key = None
        if key is not None:
            cached = self.program_cache.get(key)
            if cached is not None:
                perf.count("program_cache.hit")
                if plan is not None and cached.plan is not None:
                    # The key covers the plan's content, not its search
                    # time: the hit carries the caller's own plan.
                    cached.plan = plan
                return cached
            perf.count("program_cache.miss")

        with perf.stage(f"lower.{spec.name}"):
            program = spec.lower(graph, machine, plan, **options)
        if program.machine is None:
            program.machine = machine
        if key is not None:
            self.program_cache.put(key, program)
        return program

    # -------------------------------------------------------------- simulate
    def simulate(
        self,
        program: LoweredProgram,
        machine: Optional[Topology] = None,
        *,
        check_memory: Optional[bool] = None,
    ) -> SimResult:
        """Simulate a lowered program (list scheduling).

        ``machine`` defaults to the machine the program was lowered for —
        kernel durations and the memory report were priced on it, so
        simulating on a different machine is an explicit choice.  A
        program is replayed once per machine and the result cached on its
        task view (:meth:`repro.sim.engine.TaskView.replay`: a hybrid's
        replica groups replay as one where that is exact), so repeat
        simulations — including of program-cache copies — only work out the
        memory verdicts from this program's own memory report.
        """
        if machine is None:
            machine = program.machine
        machine = self._resolve_machine(machine, program.plan)
        if check_memory is None:
            check_memory = program.check_memory
        return TaskGraphSimulator(machine).run(
            program.tasks,
            peak_memory=program.per_device_memory,
            check_memory=check_memory,
        )
