"""Run one workload: set up, compile cold and warm, check, report.

A run of one workload, in one process:

1. **Set-up** (``setup_s``): the import of this module (which imports
   ``repro`` and every layer it drives, timed by ``run.py``) plus building
   every graph the workload compiles — model builder, autodiff and shape
   inference.  The builds are repeated :data:`SETUP_REPS` times and the
   median is reported; the last set of graphs is kept.
2. **Ideal**: the Ideal baseline of every model at its batch, untimed input
   to ``fidelity_gap``.
3. **Rounds**, for ``--seconds`` seconds and at least one round: each round
   compiles every config once cold, in an order shuffled by the seed, and
   each cold compile is followed by :data:`WARM_SAMPLES` warm compiles of
   the same config.  *Cold* is a fresh ``Planner`` and a fresh ``Executor``
   with empty in-memory caches, the simulator's compiled-graph cache
   cleared and a garbage collection before the timer starts — a user's
   first compile in a fresh process.  *Warm* reuses that planner and
   executor, so the plan and program come from the caches the cold compile
   filled.
4. **Traced** (``--trace 1`` only): one more round with every layer entry
   point wrapped (:mod:`tracing`), then a layer-by-layer replay of each
   config through the layers' public functions, whose simulated iteration
   time must equal the compile's.

Correctness: a compile that raises, a verifier finding not pinned in the
workload's ``known_findings``, a result digest (plan, strategy, program
size, communication, memory, iteration time) that differs from the config's
first cold compile, and a replay that differs from the compile each count
one failed operation; none aborts the run.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import random
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import repro
from repro.analysis.verify import verify_program
from repro.baselines.evaluation import evaluate_ideal
from repro.partition.coarsen import coarsen
from repro.partition.plan import plan_to_dict
from repro.planner import Planner, PlannerConfig
from repro.runtime import Executor, ExecutorConfig
from repro.sim import engine
from repro.sim.device import k80_8gpu_machine
from repro.strategy.lowering import lower_strategy
from repro.tuner import Tuner, TunerBudget

from clock import Clock
from tracing import Tracer
from workloads import Config, Workload

__all__ = ["BENCHMARK", "WorkloadRun", "declared_metrics", "run_workload"]

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Graph builds per set-up sample set (the median is reported).
SETUP_REPS = 3
#: Warm compiles after each cold compile.
WARM_SAMPLES = 3
#: Candidates an ``"auto"`` config's tuner admits.
TUNER_CANDIDATES = 16
#: In-memory program-cache entries of each executor: room for every
#: candidate program an autotuner sweep writes.
PROGRAM_CACHE_ENTRIES = 64

GIB = float(1 << 30)
MIB = float(1 << 20)


def declared_metrics(trace: bool) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them for a plain
    (``end_to_end``) or traced (``per_layer``) run."""
    with open(BENCHMARK, encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _geomean(values: List[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def result_digest(model) -> str:
    """sha256 of what a compile decided: strategy, plan, program size and
    footprint, and the simulated iteration time."""
    plan = plan_to_dict(model.plan) if model.plan is not None else None
    if plan is not None:
        plan.pop("search_time_seconds", None)
    program = model.program
    payload = {
        "strategy": model.strategy_text,
        "plan": plan,
        "tasks": len(program.tasks),
        "comm_bytes": program.total_comm_bytes,
        "memory": sorted((int(d), b) for d, b in program.per_device_memory.items()),
        "iteration_time": model.iteration_time,
    }
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class ConfigRecord:
    """Everything measured for one config over a run."""

    config: Config
    cold: List[float] = field(default_factory=list)
    warm: List[float] = field(default_factory=list)
    cold_wall: List[float] = field(default_factory=list)
    warm_wall: List[float] = field(default_factory=list)
    traced_cold: List[float] = field(default_factory=list)
    traced_warm: List[float] = field(default_factory=list)
    digest: Optional[str] = None
    iteration_time: float = 0.0
    throughput: float = 0.0
    peak_bytes: int = 0
    comm_bytes: float = 0.0
    tasks: int = 0
    oom: bool = False
    evaluated_frac: Optional[float] = None
    findings: List[str] = field(default_factory=list)
    verify_s: float = 0.0

    def summary(self) -> dict:
        return {
            "cold_s": self.cold, "cold_wall_s": self.cold_wall,
            "warm_s": self.warm, "warm_wall_s": self.warm_wall,
            "traced_cold_s": self.traced_cold, "traced_warm_s": self.traced_warm,
            "digest": self.digest, "iteration_time": self.iteration_time,
            "throughput": self.throughput, "peak_gib": self.peak_bytes / GIB,
            "comm_gib": self.comm_bytes / GIB, "tasks": self.tasks,
            "oom": self.oom, "findings": self.findings,
        }


class WorkloadRun:
    """One run of one workload: :meth:`execute` measures, :meth:`result`
    and :meth:`detail` report."""

    def __init__(self, workload: Workload, *, seed: int, seconds: float,
                 trace: bool, import_s: float = 0.0,
                 clock: Optional[Clock] = None) -> None:
        self.workload = workload
        self.seconds = seconds
        self.import_s = import_s
        self.rng = random.Random(seed)
        self.clock = clock or Clock()
        self.tracer = Tracer() if trace else None
        self.trace_compiles = False
        self.machine = k80_8gpu_machine(8)
        self.records = {c.label: ConfigRecord(c) for c in workload.configs}
        self.graphs: Dict[tuple, object] = {}
        self.nodes = 0
        self.setup_samples: List[float] = []
        self.ideal: Dict[tuple, float] = {}
        self.ideal_s = 0.0
        self.attempted = 0
        self.failures: List[dict] = []
        self.missing_entry_points: List[str] = []
        self.rounds = 0

    # ------------------------------------------------------------ helpers
    def _span(self, name: str, fn, *args, **kwargs):
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.call(name, fn, *args, **kwargs)

    def _fail(self, config: Config, what: str, detail: str = "") -> None:
        """Mark the operation in progress (the latest attempted) failed."""
        self.failures.append({"op": self.attempted, "config": config.label,
                              "what": what, "detail": detail})

    def _compile(self, config: Config, graph, planner, executor, phase: str):
        kwargs = {"planner": planner, "executor": executor}
        if config.strategy == "auto":
            budget = TunerBudget(max_candidates=TUNER_CANDIDATES)
            kwargs["tuner"] = Tuner(budget=budget, jobs=1)
        if not self.trace_compiles:
            return repro.compile(graph, config.strategy, self.machine, **kwargs)
        span = self.tracer.begin("compile", phase=phase, config=config.label)
        try:
            return repro.compile(graph, config.strategy, self.machine, **kwargs)
        finally:
            self.tracer.end(span)

    # -------------------------------------------------------------- setup
    def _build_all(self) -> Dict[tuple, object]:
        graphs = {}
        for config in self.workload.configs:
            if config.graph_key not in graphs:
                bundle = self._span("graph.build", config.model.build, config.batch)
                graphs[config.graph_key] = bundle.graph
        return graphs

    def setup(self) -> None:
        for _ in range(SETUP_REPS):
            self.graphs = {}
            gc.collect()
            self.graphs, seconds, _ = self.clock.time(self._build_all)
            self.setup_samples.append(seconds)
        self.nodes = sum(len(graph.nodes) for graph in self.graphs.values())

    def measure_ideal(self) -> None:
        for config in self.workload.configs:
            key = config.graph_key
            if key in self.ideal:
                continue
            result, seconds, _ = self.clock.time(
                self._span, "baselines.ideal", evaluate_ideal,
                config.model.build, config.batch, self.machine,
            )
            self.ideal[key] = result.throughput
            self.ideal_s += seconds

    # ------------------------------------------------------------- rounds
    def _verify(self, record: ConfigRecord, model, graph) -> None:
        report, seconds, _ = self.clock.time(
            self._span, "analysis.verify", verify_program,
            model.program, graph=graph, plan=model.plan,
        )
        record.verify_s = seconds
        known = self.workload.known_findings
        for finding in report.findings:
            record.findings.append(f"{finding.code} {finding.node}: {finding.message}")
            if (finding.code, finding.node) not in known:
                self._fail(record.config, "verify", f"{finding.code}: {finding.message}")

    def _first_result(self, record: ConfigRecord, model, graph, digest: str) -> None:
        program = model.program
        record.digest = digest
        record.iteration_time = model.iteration_time
        record.throughput = model.throughput(record.config.batch)
        record.peak_bytes = program.per_device_peak_bytes
        record.comm_bytes = program.total_comm_bytes
        record.tasks = len(program.tasks)
        record.oom = model.oom
        tuner = model.metadata.get("tuner")
        if tuner is not None:
            counts = tuner["counts"]
            admitted = sum(counts.values()) - counts.get("skipped", 0)
            record.evaluated_frac = counts.get("evaluated", 0) / admitted
        self._verify(record, model, graph)

    def compile_config(self, config: Config, *, traced: bool):
        """One cold compile then the warm ones; returns the cold model."""
        record = self.records[config.label]
        graph = self.graphs[config.graph_key]
        engine.clear_compiled_cache()
        gc.collect()
        planner = Planner(PlannerConfig(jobs=1, expand_jobs=1))
        executor = Executor(ExecutorConfig(program_cache_capacity=PROGRAM_CACHE_ENTRIES))
        self.attempted += 1
        try:
            model, seconds, wall = self.clock.time(
                self._compile, config, graph, planner, executor, "cold")
        except Exception:  # a failed compile is counted, never fatal
            self._fail(config, "cold compile raised", traceback.format_exc())
            return None
        digest = result_digest(model)
        if record.digest is None:
            self._first_result(record, model, graph, digest)
        elif digest != record.digest:
            self._fail(config, "cold result differs across rounds")
        (record.traced_cold if traced else record.cold).append(seconds)
        if not traced:
            record.cold_wall.append(wall)
        for _ in range(WARM_SAMPLES):
            gc.collect()
            self.attempted += 1
            try:
                warm, seconds, wall = self.clock.time(
                    self._compile, config, graph, planner, executor, "warm")
            except Exception:
                self._fail(config, "warm compile raised", traceback.format_exc())
                continue
            if result_digest(warm) != digest or warm.iteration_time != model.iteration_time:
                self._fail(config, "warm result differs from cold")
            (record.traced_warm if traced else record.warm).append(seconds)
            if not traced:
                record.warm_wall.append(wall)
        return model

    def run_round(self, *, traced: bool = False) -> Dict[str, object]:
        """Compile every config: the workload's first (largest) one first,
        the rest in seeded order.

        Leading with the largest program means every later compile starts
        from a heap it has already grown, whatever the seed: a small
        program's warm compiles run ~50% slower in a process no larger
        program has run in, and peak RSS depends on whether the largest
        program comes first.  Only a traced round keeps its models (for
        the replay), so a plain round's compiles start from the same live
        data.
        """
        first, *rest = self.workload.configs
        self.rng.shuffle(rest)
        order = [first, *rest]
        models = {}
        for config in order:
            model = self.compile_config(config, traced=traced)
            if model is not None and traced:
                models[config.label] = model
        return models

    def replay(self, config: Config, model) -> None:
        """Re-run ``model``'s compile through each layer's public function
        and check the simulated iteration time and plan match."""
        graph = self.graphs[config.graph_key]
        lowering = lower_strategy(model.strategy, self.machine, graph=graph)
        machine = lowering.machine or self.machine
        plan = None
        if lowering.plan_workers:
            planner = Planner(PlannerConfig(cache_capacity=0, jobs=1, expand_jobs=1))
            plan = planner.plan(
                graph, lowering.plan_workers,
                machine=lowering.plan_machine or machine,
                backend=lowering.plan_backend,
                backend_options={"coarse": coarsen(graph)},
                strategy=lowering.strategy,
            )
        executor = Executor(ExecutorConfig(cache_programs=False))
        program = executor.lower(graph, plan=plan, machine=machine,
                                 backend=lowering.backend,
                                 backend_options=lowering.options)
        compiled = engine.compile_task_graph(program.tasks, machine)
        result = engine.TaskGraphSimulator(machine).run_compiled(
            compiled, peak_memory=program.per_device_memory,
            check_memory=program.check_memory)
        if result.iteration_time != model.iteration_time:
            self._fail(config, "replay iteration time differs",
                       f"{result.iteration_time!r} != {model.iteration_time!r}")
        if plan is not None and plan_to_dict(plan)["steps"] != plan_to_dict(model.plan)["steps"]:
            self._fail(config, "replay plan differs")

    def execute(self) -> None:
        self.setup()
        self.measure_ideal()
        start = time.perf_counter()
        while self.rounds < 1 or time.perf_counter() - start < self.seconds:
            self.run_round()
            self.rounds += 1
        if self.tracer is None:
            return
        self.missing_entry_points = self.tracer.install()
        self.trace_compiles = True
        try:
            models = self.run_round(traced=True)
        finally:
            self.trace_compiles = False
            self.tracer.uninstall()
        for config in self.workload.configs:
            model = models.pop(config.label, None)
            if model is None:
                continue
            self.attempted += 1
            try:
                self._span("replay", self.replay, config, model)
            except Exception:
                self._fail(config, "replay raised", traceback.format_exc())

    # ------------------------------------------------------------ metrics
    def _measured(self) -> List[ConfigRecord]:
        return [r for r in self.records.values() if r.digest is not None]

    def end_to_end(self) -> Dict[str, float]:
        records = self._measured()
        out: Dict[str, float] = {
            "setup_s": self.import_s + statistics.median(self.setup_samples),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MIB,
        }
        if not records:
            return out
        cold = [statistics.median(r.cold) for r in records if r.cold]
        warm = [statistics.median(r.warm) for r in records if r.warm]
        if cold:
            out["compile_cold_s"] = _geomean(cold)
            out["compile_cold_max_s"] = max(cold)
        if warm:
            out["compile_warm_s"] = _geomean(warm)
        out["sim_throughput"] = _geomean([r.throughput for r in records])
        out["peak_device_gib"] = _geomean([r.peak_bytes / GIB for r in records])
        out["comm_gib_per_iter"] = _geomean([r.comm_bytes / GIB for r in records])
        gaps = [
            abs(r.throughput / self.ideal[r.config.graph_key] - r.config.model.reference)
            for r in records if r.config.model.reference is not None
        ]
        if gaps:
            out["fidelity_gap"] = statistics.fmean(gaps)
        return out

    def per_layer(self) -> Dict[str, float]:
        records = self._measured()
        out: Dict[str, float] = {
            "graph.build_s": statistics.median(self.setup_samples),
            "graph.nodes": self.nodes,
            "analysis.verify_s": sum(r.verify_s for r in records),
            "analysis.findings": sum(len(r.findings) for r in records),
            "baselines.ideal_s": self.ideal_s,
            "runtime.tasks": statistics.fmean(r.tasks for r in records) if records else 0,
            "tuner.evaluated_frac": statistics.fmean(
                [r.evaluated_frac for r in records if r.evaluated_frac is not None] or [0.0]),
        }
        traced_cold = [statistics.median(r.traced_cold) for r in records if r.traced_cold]
        traced_warm = [statistics.median(r.traced_warm) for r in records if r.traced_warm]
        paired = [r for r in records if r.traced_cold and r.cold]
        if traced_cold:
            out["compile.cold_s"] = _geomean(traced_cold)
        if paired:
            out["tracing.overhead_frac"] = _geomean(
                [statistics.median(r.traced_cold) / statistics.median(r.cold) for r in paired]
            ) - 1
        if traced_warm:
            out["compile.warm_s"] = _geomean(traced_warm)
        out.update(layer_metrics(self.tracer))
        return out

    def result(self) -> dict:
        trace = self.tracer is not None
        values = self.per_layer() if trace else self.end_to_end()
        declared = declared_metrics(trace)
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len({f["op"] for f in self.failures}),
            "metrics": {
                name: {"value": values[name], "unit": unit}
                for name, unit in declared.items() if name in values
            },
        }

    def detail(self) -> dict:
        return {
            "rounds": self.rounds,
            "setup": {"import_s": self.import_s, "build_s": self.setup_samples},
            "ideal_throughput": {f"{k[0]}@{k[1]}": v for k, v in self.ideal.items()},
            "configs": {label: r.summary() for label, r in self.records.items()},
            "failures": self.failures,
            "missing_entry_points": self.missing_entry_points,
            "probe_s": self.clock.readings,
        }


#: Span names reported as a share of the traced compile time, with the
#: phase (cold or warm compiles) each share is taken over.
LAYER_SHARES = {
    "strategy.lower": "cold",
    "interval.discover": "cold",
    "partition.profile": "cold",
    "partition.coarsen": "cold",
    "planner.search": "cold",
    "runtime.lower": "cold",
    "runtime.cache_put": "cold",
    "sim.compile": "cold",
    "sim.run": "cold",
    "tuner.tune": "cold",
    "planner.cache_key": "warm",
    "runtime.cache_key": "warm",
    "runtime.cache_get": "warm",
    "sim.fingerprint": "warm",
}


@dataclass
class PhaseStats:
    """Span totals over the traced compiles of one phase (cold or warm)."""

    compiles: int = 0
    duration_ns: int = 0
    direct_ns: int = 0
    time_ns: Dict[str, int] = field(default_factory=dict)
    calls: Dict[str, int] = field(default_factory=dict)
    counted: Dict[str, int] = field(default_factory=dict)
    hits: Dict[str, int] = field(default_factory=dict)

    def add(self, root, children) -> None:
        """Fold in one ``compile`` root span and its descendants.  A layer
        re-entering itself (an ancestor of the same name) is timed once."""
        self.compiles += 1
        self.duration_ns += root.end_ns - root.start_ns
        stack = [(child, frozenset()) for child in children.get(root.id, [])]
        self.direct_ns += sum(child.end_ns - child.start_ns for child, _ in stack)
        while stack:
            span, above = stack.pop()
            name = span.name
            self.calls[name] = self.calls.get(name, 0) + 1
            self.counted[name] = self.counted.get(name, 0) + span.args.get("n", 0)
            self.hits[name] = self.hits.get(name, 0) + int(span.args.get("hit", False))
            if name not in above:
                self.time_ns[name] = self.time_ns.get(name, 0) + span.end_ns - span.start_ns
            stack.extend((child, above | {name}) for child in children.get(span.id, []))

    def share(self, name: str) -> float:
        return self.time_ns.get(name, 0) / self.duration_ns if self.duration_ns else 0.0

    def per_compile(self, table: Dict[str, int], name: str) -> float:
        return table.get(name, 0) / self.compiles if self.compiles else 0.0


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer shares, counts and hit rates from the traced compiles.

    A share is a layer's time summed over the phase's compiles divided by
    their summed duration; counts are per compile; hit rates are over the
    cold compiles' cache lookups.
    """
    children = tracer.children()
    phases = {"cold": PhaseStats(), "warm": PhaseStats()}
    for span in tracer.spans:
        if span.name == "compile" and span.parent is None:
            phases[span.args["phase"]].add(span, children)
    cold = phases["cold"]
    out: Dict[str, float] = {
        f"{name}_share": phases[phase].share(name) for name, phase in LAYER_SHARES.items()
    }
    out["interval.strategies"] = cold.per_compile(cold.counted, "interval.discover")
    out["partition.op_groups"] = cold.per_compile(cold.counted, "partition.coarsen")
    out["planner.steps"] = cold.per_compile(cold.calls, "partition.dp_step")
    out["tuner.candidates"] = cold.per_compile(cold.calls, "tuner.candidate")
    for layer in ("planner", "runtime"):
        gets = cold.calls.get(f"{layer}.cache_get", 0)
        hits = cold.hits.get(f"{layer}.cache_get", 0)
        out[f"{layer}.cache_hit_rate"] = hits / gets if gets else 0.0
    if cold.duration_ns:
        out["compile.unattributed_frac"] = 1 - cold.direct_ns / cold.duration_ns
    return out


def run_workload(workload: Workload, *, seed: int, seconds: float, trace: bool,
                 import_s: float = 0.0, out_dir: Optional[str] = None,
                 clock: Optional[Clock] = None) -> dict:
    """Run ``workload`` and return ``{"result": ..., "detail": ...}``.

    ``result`` is the object ``run.py`` prints as its last line.  With
    ``out_dir``, the whole record is written there as
    ``<workload>.seed<seed>.trace<0|1>.json`` and, for a traced run, the
    spans as ``<workload>.seed<seed>.trace.json`` (Chrome trace-event
    format).
    """
    run = WorkloadRun(workload, seed=seed, seconds=seconds, trace=trace,
                      import_s=import_s, clock=clock)
    run.execute()
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "result": run.result(),
        "detail": run.detail(),
    }
    if out_dir is not None:
        directory = Path(out_dir)
        directory.mkdir(parents=True, exist_ok=True)
        stem = f"{workload.name}.seed{seed}"
        with open(directory / f"{stem}.trace{int(trace)}.json", "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
        if trace:
            run.tracer.write(
                str(directory / f"{stem}.trace.json"),
                f"e2e benchmark: {workload.name}",
                {"workload": workload.name, "seed": seed},
            )
    return record
