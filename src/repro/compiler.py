"""``repro.compile`` — one entry point from a graph to an executable model.

The paper's thesis is that *one* abstraction (partition-n-reduce) hides how
a model is split.  ``compile`` is that abstraction's public face: take a
built training graph, a :class:`repro.strategy.Strategy` (tree, canonical
string, or ``"auto"``) and a machine model, and return a
:class:`CompiledModel` bundling everything the strategy produced — the
partition plan (when one was searched), the lowered per-device program, and
the simulated iteration result — with ``save()``/``load()`` for the plan and
program metadata.

The strategy tree lowers onto the existing subsystems
(:func:`repro.strategy.lower_strategy`): ``dp(...)`` is interpreted by the
``hybrid`` execution backend, ``pipeline(...)`` passes its stage/schedule
parameters to the ``pipeline`` backend, and a ``tofu`` leaf first runs the
:class:`repro.planner.Planner` (plans are cached under a key covering the
*full* strategy, so two hybrid/pipeline configurations never collide on one
entry).

``strategy="auto"`` runs the budgeted autotuner (:mod:`repro.tuner`): a
fixed candidate grid over the strategy algebra is screened for memory fit
before any full simulation, survivors are simulated in-process, and the
fastest viable candidate wins; plain ``tofu()`` always leads the grid, so
``auto`` is never slower than it.  Pass ``tuner=Tuner(...)`` to control the
budget; the default keeps the historical 16-candidate sweep size.

A compile allocates millions of short-lived containers but leaves almost no
reference cycles behind, so it runs with CPython's cyclic collector paused
(:func:`collector_paused`): reference counting still frees everything the
compile drops, and the collector resumes when the last compile returns.
The same scope holds the compile memo (:mod:`repro.graph.memo`), so the
autotuner's candidates derive each fact about the frozen graph once.
"""

from __future__ import annotations

import gc
import json
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, Mapping, Optional, Union

from repro.errors import ReproError, StrategyError
from repro.graph.graph import Graph
from repro.graph.memo import close_memo, open_memo
from repro.partition.plan import PartitionPlan, plan_from_dict, plan_to_dict
from repro.runtime.core import Executor
from repro.runtime.program import LoweredProgram
from repro.sim.device import (
    Topology,
    cluster_of,
    k80_8gpu_machine,
    machine_from_dict,
    machine_to_dict,
)
from repro.sim.engine import SimResult
from repro.strategy.algebra import Machines, Strategy, parse
from repro.strategy.lowering import lower_strategy

if TYPE_CHECKING:  # pragma: no cover
    from repro.planner.core import Planner
    from repro.tuner import Tuner

__all__ = ["CompiledModel", "collector_paused", "compile"]

SAVE_FORMAT = "repro-compiled-model"
SAVE_VERSION = 2

# The metadata split of one save payload; _program_metadata emits exactly
# these keys (program ones always, result ones once simulated).
_PROGRAM_META_KEYS = (
    "backend", "num_devices", "num_tasks", "total_comm_bytes",
    "per_device_memory", "num_microbatches", "stats",
)
_RESULT_META_KEYS = ("iteration_time", "comm_fraction", "oom")


@dataclass
class CompiledModel:
    """Everything one strategy produced for one graph on one machine.

    ``program`` and ``result`` hold the full lowered tasks and simulated
    iteration right after :func:`compile`, and ``metadata`` only what they
    cannot (``"tuner"``); a model reloaded with :meth:`load`
    keeps the plan and the program/result *metadata* (backend, devices,
    memory report, iteration time) without the task graph, which is cheap
    to re-lower from the plan.
    """

    strategy: Strategy
    machine: Topology
    plan: Optional[PartitionPlan] = None
    program: Optional[LoweredProgram] = None
    result: Optional[SimResult] = None
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
        if self.result is not None:
            return self.result.iteration_time
        return float(self.metadata.get("iteration_time", 0.0))

    @property
    def oom(self) -> bool:
        """Whether the simulated execution exceeded any device's memory."""
        if self.result is not None:
            return self.result.oom
        return bool(self.metadata.get("oom", False))

    def throughput(self, batch_size: int) -> float:
        """Samples per second at ``batch_size`` samples per iteration
        (0.0 when the model does not fit in memory)."""
        # A loaded model has no result: price its saved metadata alike.
        result = self.result or SimResult(self.iteration_time, {}, {}, 0, oom=self.oom)
        return result.throughput(batch_size)

    def simulate(self, executor: Optional[Executor] = None) -> SimResult:
        """Simulate the lowered program and fill :attr:`result`.

        A no-op when the model is already simulated.  Only a model holding
        its lowered program can be simulated — i.e. one from
        :func:`compile` (``lower_only=True`` defers exactly this step); a
        model reloaded from disk carries metadata only.
        """
        if self.result is not None:
            return self.result
        if self.program is None:
            raise StrategyError(
                "cannot simulate: this model carries no lowered program "
                "(compile it again; save()/load() keeps metadata only)"
            )
        self.result = (executor or Executor()).simulate(self.program)
        return self.result

    def summary(self) -> str:
        """One human-readable block: strategy, plan, program, pipeline
        bubble, timing and memory verdict."""
        lines = [f"strategy: {self.strategy_text}"]
        program = self.program
        if self.result is None and program is None:
            lines.append(
                f"backend: {self.backend}, iteration time: "
                f"{self.iteration_time * 1e3:.1f} ms (loaded metadata)"
            )
            return "\n".join(lines)
        if self.plan is not None:
            lines.append(self.plan.summary())
        if program is not None:
            lines.append(program.summary())
            if self.result is None:  # compiled with lower_only=True
                return "\n".join(lines + ["not simulated"])
            schedule = program.schedule
            if schedule is not None:
                lines.append(
                    f"pipeline: {schedule.num_stages} stages x "
                    f"{schedule.num_microbatches} micro-batches "
                    f"({schedule.style}), bubble "
                    f"{program.bubble_fraction(self.result):.1%}"
                )
        lines.append(
            f"iteration time: {self.result.iteration_time * 1e3:.1f} ms, "
            f"comm fraction: {self.result.comm_fraction():.1%}, "
            f"oom: {self.result.oom}"
        )
        return "\n".join(lines)

    # -------------------------------------------------------------- save/load
    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form: strategy + machine + plan + program and
        result metadata (the task graph itself is not persisted)."""
        # One authority for the metadata shape: a live program/result is
        # re-snapshotted through _program_metadata, a loaded model re-emits
        # the metadata it was loaded with.
        source = (
            _program_metadata(self.program, self.result)
            if self.program is not None
            else self.metadata
        )
        program_meta = {k: source[k] for k in _PROGRAM_META_KEYS if k in source}
        result_meta = {k: source[k] for k in _RESULT_META_KEYS if k in source}
        payload: Dict[str, object] = {
            "format": SAVE_FORMAT,
            "version": SAVE_VERSION,
            "strategy": self.strategy_text,
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
                strategy=parse(payload["strategy"]),
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
    machine: Optional[Topology], strategy: Optional[Strategy] = None
) -> Topology:
    if machine is None:
        # A machines(M)-rooted strategy defaults to M of the paper's boxes
        # over the default network fabric.
        count = strategy.count if isinstance(strategy, Machines) else 1
        return cluster_of(k80_8gpu_machine(), count)
    return machine


def _program_metadata(
    program: LoweredProgram, result: Optional[SimResult]
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
    if result is not None:
        metadata["iteration_time"] = result.iteration_time
        metadata["comm_fraction"] = result.comm_fraction()
        metadata["oom"] = result.oom
    return metadata


# Process-wide state of :func:`collector_paused`: how many compiles are
# inside the scope, and whether the first of them disabled the collector.
_pause_depth = 0
_pause_disabled = False


@contextmanager
def collector_paused() -> Iterator[None]:
    """The compile scope: pause CPython's cyclic garbage collector and open
    the compile memo (:mod:`repro.graph.memo`) while any compile runs.

    The scope is process-wide and reference-counted.  The first compile to
    enter disables the collector, but only if it is enabled, and opens an
    empty memo; the last to leave re-enables the collector, but only if
    this scope disabled it, and empties the memo, also when the compile
    raises.  So a caller's own ``gc.disable()`` survives a compile, and
    nested compiles (the autotuner's candidates) share the outer pause and
    the outer memo.  Reference counting is untouched: everything a compile
    drops is freed as before; only the collector's scans of the growing
    heap stop.  Also usable as a decorator.
    """
    global _pause_depth, _pause_disabled
    if _pause_depth == 0:
        _pause_disabled = gc.isenabled()
        if _pause_disabled:
            gc.disable()
        open_memo()
    _pause_depth += 1
    try:
        yield
    finally:
        _pause_depth -= 1
        if _pause_depth == 0:
            close_memo()
            if _pause_disabled:
                _pause_disabled = False
                gc.enable()


@collector_paused()
def compile(
    graph: Graph,
    strategy: Union[Strategy, str] = "tofu",
    machine: Optional[Topology] = None,
    *,
    planner: Optional["Planner"] = None,
    executor: Optional[Executor] = None,
    lower_only: bool = False,
    tuner: Optional["Tuner"] = None,
) -> CompiledModel:
    """Compile ``graph`` for ``machine`` under ``strategy``.

    Args:
        graph: A built (training) dataflow graph.
        strategy: A :class:`Strategy` tree, its canonical string form
            (``"dp:2/pipeline:4:1f1b:8/tofu"``), or ``"auto"`` to sweep
            composed strategies and keep the fastest.  The strategy and the
            machine are the whole description of a compile: a bare ``tofu``
            always runs the ``tofu`` search.  ``"auto"`` rejects
            ``lower_only=True`` (it picks by simulated time).
        machine: Machine or cluster model (:class:`MachineSpec` /
            :class:`ClusterSpec`); defaults to the paper's 8×K80 box — or,
            for a ``machines(M)``-rooted strategy, a cluster of ``M`` such
            boxes.
        planner: Planner to search (and cache) plans with; defaults to the
            process-wide planner, so repeated compiles share one cache.
        executor: Executor to lower/simulate with (defaults to a fresh one).
        lower_only: Plan and lower but defer the simulation; the returned
            model holds its ``program`` (memory report included) and
            :meth:`CompiledModel.simulate` completes it on demand.  The
            batch-search evaluators use this to price only programs that
            fit device memory.
        tuner: A configured :class:`repro.tuner.Tuner` driving the
            ``"auto"`` sweep under its budget.
            ``None`` keeps the default bounded sweep
            (``TunerBudget(max_candidates=16)`` over the generated grid).
            Rejected for explicit strategies.  To sweep an explicit
            candidate list, call
            ``Tuner().tune(graph, machine, candidates=...)``.

    Returns:
        A :class:`CompiledModel`; its ``result`` carries the simulated
        iteration unless ``lower_only=True``.

    Raises:
        StrategyError: For malformed strategies or contradictory arguments.
    """
    from repro.planner.core import default_planner

    if isinstance(strategy, str) and strategy.strip().lower() == "auto":
        if lower_only:
            raise StrategyError(
                "strategy='auto' picks by simulated iteration time and "
                "cannot run with lower_only=True"
            )
        return _compile_auto(
            graph, _resolve_machine(machine), planner=planner,
            executor=executor, tuner=tuner,
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
    machine = _resolve_machine(machine, strategy)
    executor = executor or Executor()
    lowering = lower_strategy(strategy, machine)
    # machines(M) narrows the topology; everything below executes on the
    # slice.
    exec_machine = lowering.machine if lowering.machine is not None else machine

    plan = None
    if lowering.plan_workers:
        plan = (planner or default_planner()).plan(
            graph,
            lowering.plan_workers,
            machine=lowering.plan_machine or exec_machine,
            backend=lowering.plan_backend,
            strategy=lowering.strategy,
        )
    program = executor.lower(
        graph,
        plan=plan,
        machine=exec_machine,
        backend=lowering.backend,
        backend_options=lowering.options,
    )
    model = CompiledModel(
        strategy=lowering.strategy,
        machine=machine,
        plan=program.plan if program.plan is not None else plan,
        program=program,
    )
    if not lower_only:
        model.result = executor.simulate(program, exec_machine)
    return model


# How many candidates the default (no ``tuner=``) auto sweep admits from
# the generated grid — the historical auto sweep's size.
AUTO_MAX_CANDIDATES = 16


def _compile_auto(
    graph: Graph,
    machine: Topology,
    *,
    planner: Optional["Planner"],
    executor: Optional[Executor],
    tuner: Optional["Tuner"] = None,
) -> CompiledModel:
    """Run the budgeted autotuner and return the fastest viable candidate."""
    from repro.planner.core import default_planner
    from repro.tuner import Tuner, TunerBudget

    planner = planner or default_planner()
    if tuner is None:
        tuner = Tuner(budget=TunerBudget(max_candidates=AUTO_MAX_CANDIDATES))
    result = tuner.tune(graph, machine, planner=planner, executor=executor)
    best = result.best
    assert best is not None  # tune() raises when nothing is viable
    best.metadata["tuner"] = result.to_dict()
    return best
