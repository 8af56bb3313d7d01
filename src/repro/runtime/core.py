"""The :class:`Executor` facade — one entry point for execution.

``Executor`` owns the staged lowering pipeline the paper's runtime implies:
take a built graph (plus, for partitioned execution, a plan from the
:class:`repro.planner.Planner`), lower it with a pluggable execution backend
to a :class:`LoweredProgram` of device-assigned tasks and a memory report,
and simulate that program under link contention on the modelled machine.

The three stages are individually exposed (``lower`` → ``simulate`` → or
``run`` for both), so callers can inspect or adjust the lowered program —
e.g. the framework-overhead ablation of Table 3 swaps in rescaled copies of
every task (``LoweredProgram.replace_tasks``) between lowering and
simulation.
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
        program_cache_dir: Directory of an on-disk program store.  Unset,
            the executor shares the in-memory process-wide cache
            (:func:`repro.runtime.cache.default_program_cache`); set, it
            owns a private two-tier store rooted there.
        program_cache_capacity: In-memory LRU entries of a private store.
        program_cache_max_bytes: Byte budget of the private on-disk store
            (least-recently-used entries are evicted beyond it).
        profile: Collect a :class:`repro.perf.StageTimer` over every
            ``lower``/``simulate``/``run`` call on this executor, readable
            as ``executor.profile_timer`` and surfaced by ``repro.compile``
            as ``CompiledModel.metadata["profile"]``.
        verify: Static verification of freshly lowered programs
            (:mod:`repro.analysis`): ``"off"`` (the default) runs nothing,
            ``"warn"`` emits a ``UserWarning`` per report, ``"strict"``
            raises a structured :class:`repro.errors.AnalysisError`.  The
            pass runs after lowering and before the program is cached;
            program-cache hits skip it entirely.  Non-semantic for cache
            keys.
    """

    cache_programs: bool = True
    program_cache_dir: Optional[str] = None
    program_cache_capacity: Optional[int] = None
    program_cache_max_bytes: Optional[int] = None
    profile: bool = False
    verify: str = "off"


@dataclass
class SimulationReport:
    """Plan (if any), lowered execution, and simulated timing for one graph."""

    plan: Optional["PartitionPlan"]
    result: SimResult
    program: Optional[LoweredProgram] = None

    @property
    def backend(self) -> str:
        """Name of the execution backend that produced this report."""
        return self.program.backend if self.program is not None else ""

    @property
    def strategy(self) -> Optional[str]:
        """Canonical strategy string the execution was compiled from, when
        it came through ``repro.compile`` (``None`` for direct Executor use)."""
        return self.program.strategy if self.program is not None else None

    def throughput(self, batch_size: int) -> float:
        """Training throughput in samples/s for ``batch_size``."""
        return self.result.throughput(batch_size)

    # ------------------------------------------------- pipeline introspection
    @property
    def per_stage_peak_memory(self) -> Mapping[int, int]:
        """Planned peak bytes per pipeline stage (device-keyed memory report
        of a staged program; empty for unstaged execution)."""
        if self.program is None or self.program.schedule is None:
            return {}
        return self.program.per_device_memory

    @property
    def bubble_time(self) -> float:
        """Summed per-stage idle time of a pipelined iteration (seconds).

        Only the devices the staged program occupies count: the simulator
        reports idle time for *every* topology device, and a device the
        pipeline never placed a stage on is spare capacity, not bubble.
        """
        if self.program is None or self.program.schedule is None:
            return 0.0
        stage_devices = set(self.program.per_device_memory)
        return sum(
            idle
            for device, idle in self.result.per_device_idle_time.items()
            if device in stage_devices
        )

    def bubble_fraction(self) -> float:
        """Fraction of aggregate stage time spent idle (the pipeline bubble)."""
        if self.program is None or self.program.schedule is None:
            return 0.0
        stages = self.program.schedule.num_stages
        total = stages * self.result.iteration_time
        if total <= 0:
            return 0.0
        return min(1.0, self.bubble_time / total)

    def summary(self) -> str:
        """One human-readable block: timing, memory, and comm volume."""
        lines = []
        if self.strategy:
            lines.append(f"strategy: {self.strategy}")
        if self.plan is not None:
            lines.append(self.plan.summary())
        if self.program is not None:
            lines.append(self.program.summary())
        if self.program is not None and self.program.schedule is not None:
            schedule = self.program.schedule
            lines.append(
                f"pipeline: {schedule.num_stages} stages x "
                f"{schedule.num_microbatches} micro-batches "
                f"({schedule.style}), bubble {self.bubble_fraction():.1%}"
            )
        lines.append(
            f"iteration time: {self.result.iteration_time * 1e3:.1f} ms, "
            f"comm fraction: {self.result.comm_fraction():.1%}, "
            f"oom: {self.result.oom}"
        )
        return "\n".join(lines)


class Executor:
    """Facade over execution backends, lowering passes, and the simulator."""

    def __init__(self, config: Optional[ExecutorConfig] = None):
        self.config = config or ExecutorConfig()
        if self.config.verify != "off":
            # Lazy: repro.analysis sits above the runtime in the layering.
            from repro.analysis.verify import validate_verify_mode

            validate_verify_mode(self.config.verify)
        #: Populated when ``config.profile`` is set; every ``lower``,
        #: ``simulate``, and ``run`` on this executor accumulates into it.
        self.profile_timer = perf.StageTimer() if self.config.profile else None
        if (
            self.config.program_cache_dir is not None
            or self.config.program_cache_capacity is not None
            or self.config.program_cache_max_bytes is not None
        ):
            capacity = self.config.program_cache_capacity
            if capacity is None:
                from repro.runtime.cache import DEFAULT_PROGRAM_CACHE_CAPACITY

                capacity = DEFAULT_PROGRAM_CACHE_CAPACITY
            self.program_cache: ProgramCache = ProgramCache(
                capacity=capacity,
                cache_dir=self.config.program_cache_dir,
                max_bytes=self.config.program_cache_max_bytes,
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
        stable content address (e.g. a pre-built coarsened graph) bypass
        the cache.

        Raises:
            ExecutionError: For an unknown backend, invalid options, or a
                plan-requiring backend invoked without a plan.
            AnalysisError: Under ``config.verify="strict"`` when a freshly
                lowered program fails a static check.
        """
        with perf.activation(self.profile_timer):
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
                    return cached
                perf.count("program_cache.miss")

            with perf.stage(f"lower.{spec.name}"):
                program = spec.lower(graph, machine, plan, **options)
            if program.machine is None:
                program.machine = machine
            if self.config.verify != "off":
                # Verify before the cache put so strict mode never caches
                # (or serves) a program that fails its invariants; cache
                # hits above return early, so warm paths never pay this.
                from repro.analysis.verify import run_verify_pass

                run_verify_pass(
                    program,
                    graph=graph,
                    machine=machine,
                    plan=plan,
                    mode=self.config.verify,
                )
            if key is not None:
                try:
                    self.program_cache.put(key, program)
                except (TypeError, ValueError):
                    # A backend outside this library may attach payloads the
                    # program codec cannot express; such programs simply are
                    # not cached.
                    pass
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
        simulating on a different machine is an explicit choice.  The
        program's dense form is compiled for a machine once and cached on
        it (:meth:`LoweredProgram.dense_form`), so repeat simulations —
        including of program-cache copies — only replay it.
        """
        with perf.activation(self.profile_timer):
            if machine is None:
                machine = program.machine
            machine = self._resolve_machine(machine, program.plan)
            if check_memory is None:
                check_memory = program.check_memory
            # A program's task view compiles to its own cached dense form.
            return TaskGraphSimulator(machine).run(
                program.tasks,
                peak_memory=program.per_device_memory,
                check_memory=check_memory,
            )

    # -------------------------------------------------------------------- run
    def run(
        self,
        graph: Graph,
        *,
        plan: Optional["PartitionPlan"] = None,
        machine: Optional[Topology] = None,
        backend: str = "tofu-partitioned",
        backend_options: Optional[Mapping[str, object]] = None,
    ) -> SimulationReport:
        """Lower ``graph`` with the selected backend and simulate it."""
        with perf.activation(self.profile_timer):
            machine = self._resolve_machine(machine, plan)
            program = self.lower(
                graph,
                plan=plan,
                machine=machine,
                backend=backend,
                backend_options=backend_options,
            )
            result = self.simulate(program, machine)
            return SimulationReport(
                plan=program.plan if program.plan is not None else plan,
                result=result,
                program=program,
            )


_DEFAULT_EXECUTOR: Optional[Executor] = None


def default_executor() -> Executor:
    """A process-wide executor, for callers that want one shared instance."""
    global _DEFAULT_EXECUTOR
    if _DEFAULT_EXECUTOR is None:
        _DEFAULT_EXECUTOR = Executor()
    return _DEFAULT_EXECUTOR
