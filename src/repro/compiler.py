"""``repro.compile`` — one entry point from a graph to an executable model.

The paper's thesis is that *one* abstraction (partition-n-reduce) hides how
a model is split.  ``compile`` is that abstraction's public face: take a
built training graph, a :class:`repro.strategy.Strategy` (tree, canonical
string, or ``"auto"``) and a machine model, and return a
:class:`CompiledModel` bundling everything the strategy produced — the
partition plan (when one was searched), the lowered per-device program, and
the simulated iteration report — with ``save()``/``load()`` for the plan and
program metadata.

The strategy tree lowers onto the existing subsystems
(:func:`repro.strategy.lower_strategy`): ``dp(...)`` is interpreted by the
``hybrid`` execution backend, ``pipeline(...)`` passes its stage/schedule
parameters to the ``pipeline`` backend, and a ``tofu`` leaf first runs the
:class:`repro.planner.Planner` (plans are cached under a key covering the
*full* strategy, so two hybrid/pipeline configurations never collide on one
entry).

``strategy="auto"`` runs the budgeted autotuner (:mod:`repro.tuner`): a
full-algebra candidate grid is screened for memory fit before any full
simulation, survivors are simulated in-process, and the fastest viable
candidate wins; plain ``tofu()`` always leads the grid, so ``auto`` is never
slower than it.  Pass ``tuner=Tuner(...)`` to control the budget and grid
axes; the default keeps the historical 16-candidate sweep size.

A compile allocates millions of short-lived containers but leaves almost no
reference cycles behind, so it runs with CPython's cyclic collector paused
(:func:`collector_paused`): reference counting still frees everything the
compile drops, and the collector resumes when the last compile returns.
"""

from __future__ import annotations

import gc
import json
import os
import tempfile
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, Mapping, Optional, Union

from repro import perf
from repro.caching import graph_signature_scope
from repro.errors import ReproError, StrategyError
from repro.graph.graph import Graph
from repro.partition.plan import PartitionPlan, plan_from_dict, plan_to_dict
from repro.runtime.core import Executor, SimulationReport
from repro.runtime.program import LoweredProgram
from repro.sim.device import (
    Topology,
    cluster_of,
    k80_8gpu_machine,
    machine_from_dict,
    machine_to_dict,
)
from repro.strategy.algebra import Machines, Strategy, parse
from repro.strategy.lowering import lower_strategy

if TYPE_CHECKING:  # pragma: no cover
    from repro.planner.core import Planner
    from repro.tuner import Tuner

__all__ = ["CompiledModel", "collector_paused", "compile", "compile_model"]

SAVE_FORMAT = "repro-compiled-model"
SAVE_VERSION = 1

# The metadata split of one save payload; _program_metadata emits exactly
# these keys (program ones always, result ones when a report exists).
_PROGRAM_META_KEYS = (
    "backend", "num_devices", "num_tasks", "total_comm_bytes",
    "per_device_memory", "num_microbatches", "stats",
)
_RESULT_META_KEYS = ("iteration_time", "comm_fraction", "oom")


@dataclass
class CompiledModel:
    """Everything one strategy produced for one graph on one machine.

    ``program`` and ``report`` hold the full lowered tasks and simulation
    verdict right after :func:`compile`, and ``metadata`` only what they
    cannot (``"tuner"``, ``"profile"``); a model reloaded with :meth:`load`
    keeps the plan and the program/result *metadata* (backend, devices,
    memory report, iteration time) without the task graph, which is cheap
    to re-lower from the plan.
    """

    strategy: Strategy
    machine: Topology
    plan: Optional[PartitionPlan] = None
    program: Optional[LoweredProgram] = None
    report: Optional[SimulationReport] = None
    metadata: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------- queries
    @property
    def strategy_text(self) -> str:
        """The canonical string form of the compiled strategy."""
        return str(self.strategy)

    @property
    def backend(self) -> str:
        """Execution backend the strategy lowered to."""
        if self.program is not None:
            return self.program.backend
        return str(self.metadata.get("backend", ""))

    @property
    def iteration_time(self) -> float:
        """Simulated seconds per training iteration."""
        if self.report is not None:
            return self.report.result.iteration_time
        return float(self.metadata.get("iteration_time", 0.0))

    @property
    def oom(self) -> bool:
        """Whether the simulated execution exceeded any device's memory."""
        if self.report is not None:
            return self.report.result.oom
        return bool(self.metadata.get("oom", False))

    def throughput(self, batch_size: int) -> float:
        """Samples per second at ``batch_size`` samples per iteration."""
        if self.iteration_time <= 0:
            return 0.0
        return batch_size / self.iteration_time

    def simulate(self, executor: Optional[Executor] = None) -> SimulationReport:
        """Simulate the lowered program and fill :attr:`report`.

        A no-op when the model is already simulated.  Only a model holding
        its lowered program can be simulated — i.e. one from
        :func:`compile` (``lower_only=True`` defers exactly this step); a
        model reloaded from disk carries metadata only.
        """
        if self.report is not None:
            return self.report
        if self.program is None:
            raise StrategyError(
                "cannot simulate: this model carries no lowered program "
                "(compile it again; save()/load() keeps metadata only)"
            )
        executor = executor or Executor()
        result = executor.simulate(self.program)
        self.report = SimulationReport(
            plan=self.plan, result=result, program=self.program
        )
        return self.report

    def summary(self) -> str:
        """One human-readable block: strategy, devices, timing, memory."""
        if self.report is not None:
            text = self.report.summary()
            if not text.startswith("strategy:"):
                text = f"strategy: {self.strategy_text}\n{text}"
            return text
        return (
            f"strategy: {self.strategy_text}\n"
            f"backend: {self.backend}, iteration time: "
            f"{self.iteration_time * 1e3:.1f} ms (loaded metadata)"
        )

    # -------------------------------------------------------------- save/load
    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form: strategy + machine + plan + program and
        result metadata (the task graph itself is not persisted)."""
        # One authority for the metadata shape: a live program/report is
        # re-snapshotted through _program_metadata, a loaded model re-emits
        # the metadata it was loaded with.
        source = (
            _program_metadata(self.program, self.report)
            if self.program is not None
            else self.metadata
        )
        program_meta = {k: source[k] for k in _PROGRAM_META_KEYS if k in source}
        result_meta = {k: source[k] for k in _RESULT_META_KEYS if k in source}
        payload: Dict[str, object] = {
            "format": SAVE_FORMAT,
            "version": SAVE_VERSION,
            "strategy": self.strategy.to_dict(),
            "strategy_text": self.strategy_text,
            "machine": machine_to_dict(self.machine),
            "plan": plan_to_dict(self.plan) if self.plan is not None else None,
            "program": program_meta,
            "result": result_meta,
        }
        if "tuner" in self.metadata:
            payload["tuner"] = self.metadata["tuner"]
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "CompiledModel":
        """Rebuild a model from :meth:`to_dict` output; any malformed
        payload raises :class:`StrategyError`."""
        if not isinstance(payload, Mapping):
            raise StrategyError(
                f"a {SAVE_FORMAT} payload must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        if payload.get("format") != SAVE_FORMAT:
            raise StrategyError(
                f"not a {SAVE_FORMAT} payload "
                f"(format={payload.get('format')!r})"
            )
        if payload.get("version") != SAVE_VERSION:
            raise StrategyError(
                f"unsupported {SAVE_FORMAT} version "
                f"{payload.get('version')!r} (this library reads version "
                f"{SAVE_VERSION})"
            )
        try:
            metadata: Dict[str, object] = {}
            metadata.update(payload.get("program") or {})
            metadata.update(payload.get("result") or {})
            if "tuner" in payload:
                metadata["tuner"] = payload["tuner"]
            plan_payload = payload.get("plan")
            return cls(
                strategy=Strategy.from_dict(payload["strategy"]),
                machine=machine_from_dict(payload["machine"]),
                plan=plan_from_dict(plan_payload) if plan_payload else None,
                metadata=metadata,
            )
        except (ReproError, AttributeError, KeyError, TypeError,
                ValueError) as exc:
            raise StrategyError(
                f"malformed {SAVE_FORMAT} payload: "
                f"{type(exc).__name__}: {exc}"
            ) from exc

    def save(self, path: str) -> str:
        """Write the model (plan + program metadata) as JSON to ``path``;
        an unwritable path raises :class:`StrategyError` and leaves no
        temporary file behind."""
        payload = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        directory = os.path.dirname(os.path.abspath(path))
        tmp = None
        try:
            fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(payload)
            os.replace(tmp, path)
        except OSError as exc:
            if tmp is not None:
                os.unlink(tmp)
            raise StrategyError(f"cannot save the model to {path!r}: {exc}") from exc
        return path

    @classmethod
    def load(cls, path: str) -> "CompiledModel":
        """Reload a model saved with :meth:`save`; an unreadable or
        malformed file raises :class:`StrategyError`."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, ValueError) as exc:
            raise StrategyError(
                f"{path!r} is not a readable {SAVE_FORMAT} file: {exc}"
            ) from exc
        return cls.from_dict(payload)


def _resolve_machine(
    machine: Optional[Topology],
    num_workers: Optional[int],
    strategy: Optional[Strategy] = None,
) -> Topology:
    if num_workers is not None and num_workers < 1:
        raise StrategyError(f"num_workers must be >= 1, got {num_workers}")
    if machine is None:
        # A machines(M)-rooted strategy defaults to M of the paper's boxes
        # over the default network fabric; num_workers sizes each box.
        count = 1
        if strategy is not None and isinstance(strategy, Machines):
            count = strategy.count
        base = k80_8gpu_machine(8 if num_workers is None else num_workers)
        return cluster_of(base, count)
    if num_workers is not None and num_workers != machine.num_devices:
        raise StrategyError(
            f"num_workers={num_workers} contradicts the machine's "
            f"{machine.num_devices} devices; pass one or the other"
        )
    return machine


def _program_metadata(
    program: LoweredProgram, report: Optional[SimulationReport]
) -> Dict[str, object]:
    metadata: Dict[str, object] = {
        "backend": program.backend,
        "num_devices": program.num_devices,
        "num_tasks": len(program.tasks),
        "total_comm_bytes": program.total_comm_bytes,
        "per_device_memory": {
            str(device): required
            for device, required in program.per_device_memory.items()
        },
        "num_microbatches": program.num_microbatches,
        "stats": dict(program.stats),
    }
    if report is not None:
        metadata["iteration_time"] = report.result.iteration_time
        metadata["comm_fraction"] = report.result.comm_fraction()
        metadata["oom"] = report.result.oom
    return metadata


def _attach_profile(model: CompiledModel, executor: Executor) -> None:
    """Surface a profiling executor's timer as ``metadata["profile"]``.

    The snapshot is cumulative over the executor's lifetime, so profiling
    one ``compile`` in isolation means giving it a fresh
    ``Executor(ExecutorConfig(profile=True))`` — which is what the CLI's
    ``--profile`` flag does.  A warm compile's snapshot then shows the
    ``plan_cache.hit``/``program_cache.hit`` counters and *no* ``pass.*`` or
    ``lower.*`` stages: every lowering pass was skipped.
    """
    if executor.profile_timer is not None:
        model.metadata["profile"] = executor.profile_timer.snapshot()


# Process-wide state of :func:`collector_paused`: how many compiles are
# inside the scope, and whether the first of them disabled the collector.
_PAUSE_LOCK = threading.Lock()
_pause_depth = 0
_pause_disabled = False


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause CPython's cyclic garbage collector while any compile runs.

    The scope is process-wide and reference-counted.  The first compile to
    enter disables the collector, but only if it is enabled; the last to
    leave re-enables it, but only if this scope disabled it, also when the
    compile raises.  So a caller's own ``gc.disable()`` survives a compile,
    nested compiles (the autotuner's candidates) share the outer pause, and overlapping compiles on the
    compile service's threads put off cycle collection until the last one
    returns.  Reference counting is untouched: everything a compile drops
    is freed as before; only the collector's scans of the growing heap
    stop.  Also usable as a decorator.
    """
    global _pause_depth, _pause_disabled
    with _PAUSE_LOCK:
        if _pause_depth == 0:
            _pause_disabled = gc.isenabled()
            if _pause_disabled:
                gc.disable()
        _pause_depth += 1
    try:
        yield
    finally:
        with _PAUSE_LOCK:
            _pause_depth -= 1
            if _pause_depth == 0 and _pause_disabled:
                _pause_disabled = False
                gc.enable()


# One graph serialisation per compile: the plan key, the program key and
# every autotuner candidate share the signature computed inside this scope;
# the cyclic collector stays paused for the whole compile.
@collector_paused()
@graph_signature_scope()
def compile(
    graph: Graph,
    strategy: Union[Strategy, str] = "tofu",
    machine: Optional[Topology] = None,
    *,
    num_workers: Optional[int] = None,
    plan: Optional[PartitionPlan] = None,
    planner: Optional["Planner"] = None,
    executor: Optional[Executor] = None,
    plan_options: Optional[Mapping[str, object]] = None,
    backend_options: Optional[Mapping[str, object]] = None,
    simulate: bool = True,
    lower_only: bool = False,
    tuner: Optional["Tuner"] = None,
) -> CompiledModel:
    """Compile ``graph`` for ``machine`` under ``strategy``.

    Args:
        graph: A built (training) dataflow graph.
        strategy: A :class:`Strategy` tree, its canonical string form
            (``"dp:2/pipeline:4:1f1b:8/tofu"``), or ``"auto"`` to sweep
            composed strategies and keep the fastest.  ``"auto"`` rejects
            ``plan=...``, ``simulate=False`` and ``backend_options`` (they
            are single-strategy concerns); ``plan_options`` apply to every
            candidate's search.
        machine: Machine or cluster model (:class:`MachineSpec` /
            :class:`ClusterSpec`); defaults to the paper's 8×K80 box, sized
            to ``num_workers`` when given — or, for a ``machines(M)``-rooted
            strategy, a cluster of ``M`` such boxes.
        num_workers: Shorthand for the default machine's device count (per
            machine, under a ``machines(M)`` root); rejected if below 1 or
            if it contradicts an explicit ``machine``.
        plan: Pre-searched partition plan for the strategy's ``tofu`` leaf
            (skips planning).
        planner: Planner to search (and cache) plans with; defaults to the
            process-wide planner, so repeated compiles share one cache.
        executor: Executor to lower/simulate with (defaults to a fresh one).
        plan_options: Extra search-backend options for the planner.
        backend_options: Extra execution-backend options merged over the
            lowered strategy options (e.g. ``fuse_remote_fetch=False``).
        simulate: When false, stop after planning — ``CompiledModel.plan``
            is filled, ``program``/``report`` stay ``None``.
        lower_only: Plan and lower but defer the simulation; the returned
            model holds its ``program`` (memory report included) and
            :meth:`CompiledModel.simulate` completes it on demand.  The
            batch-search evaluators use this to price only programs that
            fit device memory.
        tuner: A configured :class:`repro.tuner.Tuner` driving the
            ``"auto"`` sweep — budget and grid axes.
            ``None`` keeps the default bounded sweep
            (``TunerBudget(max_candidates=16)`` over the generated grid).
            Rejected for explicit strategies.  To sweep an explicit
            candidate list, call
            ``Tuner().tune(graph, machine, candidates=...)``.

    Returns:
        A :class:`CompiledModel`; its ``report`` carries the simulated
        iteration verdict unless ``simulate=False``.

    Raises:
        StrategyError: For malformed strategies or contradictory arguments.
    """
    from repro.planner.core import default_planner

    if isinstance(strategy, str) and strategy.strip().lower() == "auto":
        machine = _resolve_machine(machine, num_workers)
        if plan is not None:
            raise StrategyError(
                "strategy='auto' searches its own plans; pass an explicit "
                "strategy to compile with a pre-searched plan"
            )
        if not simulate or lower_only:
            raise StrategyError(
                "strategy='auto' picks by simulated iteration time and "
                "cannot run with simulate=False or lower_only=True"
            )
        if backend_options:
            raise StrategyError(
                "strategy='auto' sweeps candidates lowering to different "
                "execution backends, so backend-specific backend_options "
                "cannot apply; compile the chosen strategy explicitly instead"
            )
        return _compile_auto(
            graph,
            machine,
            planner=planner,
            executor=executor,
            plan_options=plan_options,
            tuner=tuner,
        )
    if tuner is not None:
        raise StrategyError(
            "tuner= configures the strategy='auto' sweep; an explicit "
            "strategy has nothing to tune"
        )
    strategy = parse(strategy) if isinstance(strategy, str) else strategy
    if not isinstance(strategy, Strategy):
        raise StrategyError(
            f"strategy must be a Strategy or string, got {type(strategy).__name__}"
        )
    machine = _resolve_machine(machine, num_workers, strategy)
    executor = executor or Executor()
    # A profiling executor's timer is active over the whole flow — strategy
    # lowering, the planner search, every lowering pass, the simulate loop —
    # and lands on the model as metadata["profile"].
    with perf.activation(executor.profile_timer):
        lowering = lower_strategy(strategy, machine, graph=graph)
        # machines(M) narrows the topology; everything below executes on the
        # slice.
        exec_machine = lowering.machine if lowering.machine is not None else machine

        if plan is None and lowering.plan_workers:
            planner = planner or default_planner()
            plan = planner.plan(
                graph,
                lowering.plan_workers,
                machine=lowering.plan_machine or exec_machine,
                backend=lowering.plan_backend,
                backend_options=plan_options,
                strategy=lowering.strategy,
            )

        if not simulate:
            model = CompiledModel(
                strategy=lowering.strategy,
                machine=machine,
                plan=plan,
                metadata={"backend": lowering.backend},
            )
            _attach_profile(model, executor)
            return model

        options = dict(lowering.options)
        if backend_options:
            options.update(backend_options)
        if lower_only:
            program = executor.lower(
                graph,
                plan=plan,
                machine=exec_machine,
                backend=lowering.backend,
                backend_options=options,
            )
            program.strategy = str(lowering.strategy)
            model = CompiledModel(
                strategy=lowering.strategy,
                machine=machine,
                plan=program.plan if program.plan is not None else plan,
                program=program,
            )
            _attach_profile(model, executor)
            return model
        report = executor.run(
            graph,
            plan=plan,
            machine=exec_machine,
            backend=lowering.backend,
            backend_options=options,
        )
        program = report.program
        if program is not None:
            program.strategy = str(lowering.strategy)
        model = CompiledModel(
            strategy=lowering.strategy,
            machine=machine,
            plan=report.plan if report.plan is not None else plan,
            program=program,
            report=report,
        )
        _attach_profile(model, executor)
        return model


# Re-exported under a non-shadowing name for callers that keep the builtin
# ``compile`` in scope.
compile_model = compile


# How many candidates the default (no ``tuner=``) auto sweep admits from
# the generated grid — the historical auto sweep's size.
AUTO_MAX_CANDIDATES = 16


def _compile_auto(
    graph: Graph,
    machine: Topology,
    *,
    planner: Optional["Planner"],
    executor: Optional[Executor],
    plan_options: Optional[Mapping[str, object]] = None,
    tuner: Optional["Tuner"] = None,
) -> CompiledModel:
    """Run the budgeted autotuner and return the fastest viable candidate."""
    from repro.planner.core import default_planner
    from repro.tuner import Tuner, TunerBudget

    planner = planner or default_planner()
    if tuner is None:
        tuner = Tuner(budget=TunerBudget(max_candidates=AUTO_MAX_CANDIDATES))
    result = tuner.tune(
        graph,
        machine,
        planner=planner,
        executor=executor,
        plan_options=plan_options,
    )
    best = result.best
    assert best is not None  # tune() raises when nothing is viable
    best.metadata["tuner"] = result.to_dict()
    if executor is not None:
        # A profiling executor saw every candidate; re-snapshot so the
        # winner's profile covers the whole sweep.
        _attach_profile(best, executor)
    return best
