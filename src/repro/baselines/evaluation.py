"""End-to-end evaluation of the systems compared in Sec 7.

Every evaluator takes a ``build_fn(batch_size) -> ModelBundle`` so it can pick
its own batch size the way the paper does: the Ideal baseline uses the batch
that saturates a GPU regardless of memory, while SmallBatch / Op-Placement /
Tofu use the largest batch that fits (Sec 7.1, "Baseline and Alternatives").

Every system is a :mod:`repro.strategy` expression compiled by
``repro.compile``: Ideal and SmallBatch are ``single``, swapping is
``swap``, Operator Placement is ``placement``, Tofu is ``tofu``, and the
parallel alternatives are ``pipeline`` / ``dp`` compositions
(:func:`evaluate_strategy` takes any expression).  What differs per system
is only how the batch size is chosen.  Ideal and swapping run each GPU's
share of the global batch; every other system goes through one search,
:func:`_search_batch`, which halves a starting batch until the compiled
program fits device memory and simulates only that one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional, Union

from repro.graph.memory_planner import plan_memory
from repro.models.layers import ModelBundle
from repro.runtime import Executor, LoweredProgram
from repro.sim.device import MachineSpec, k80_8gpu_machine
from repro.sim.engine import SimResult
from repro.strategy import Strategy, parse_strategy
from repro.strategy import placement as placement_strategy
from repro.strategy import single as single_strategy
from repro.strategy import swap as swap_strategy
from repro.strategy import tofu as tofu_strategy
from repro.strategy.lowering import persistent_bytes

BuildFn = Callable[[int], ModelBundle]
Lower = Callable[[ModelBundle], LoweredProgram]
GiB = 1 << 30


@dataclass
class SystemResult:
    """Throughput of one system on one model configuration."""

    system: str
    model: str
    batch_size: int
    iteration_time: float
    throughput: float
    oom: bool = False
    comm_fraction: float = 0.0
    per_device_memory_gib: float = 0.0
    notes: str = ""
    extras: Dict[str, float] = field(default_factory=dict)

    def normalized(self, ideal_throughput: float) -> float:
        if ideal_throughput <= 0:
            return 0.0
        return self.throughput / ideal_throughput


def _round_down_pow2(value: float) -> int:
    result = 1
    while result * 2 <= value:
        result *= 2
    return result if value >= 1 else 0


def _estimate_max_batch(
    probe_batch: int, persistent: float, pool: float, capacity: float
) -> int:
    """Largest batch whose (persistent + batch-scaled pool) fits ``capacity``."""
    if persistent >= capacity:
        return 0
    if pool <= 0:
        return probe_batch
    scale = (capacity - persistent) / pool
    return _round_down_pow2(probe_batch * scale)


def _memoized_build_fn(build_fn: BuildFn) -> BuildFn:
    """Cache bundles by batch size, so a probe and the batch search share
    one graph build per batch instead of rebuilding."""
    bundles: Dict[int, ModelBundle] = {}

    def build(batch_size: int) -> ModelBundle:
        if batch_size not in bundles:
            bundles[batch_size] = build_fn(batch_size)
        return bundles[batch_size]

    return build


# ---------------------------------------------------------------------------
# The shared machinery: lower a strategy, pick a batch, simulate
# ---------------------------------------------------------------------------
def _lowering(
    strategy: Strategy,
    machine: MachineSpec,
    *,
    planner: Optional["Planner"] = None,
) -> Lower:
    """``bundle -> program``: plan (when the strategy needs a plan) and
    lower ``strategy`` through ``repro.compile``, without simulating."""
    # Imported here: repro.baselines is a dependency of the planner's backend
    # registry, so a module-level import of the compiler would be circular.
    from repro import compiler

    def lower(bundle: ModelBundle) -> LoweredProgram:
        return compiler.compile(
            bundle.graph, strategy, machine, planner=planner, lower_only=True
        ).program

    return lower


def _report(
    system: str,
    bundle: ModelBundle,
    batch: int,
    program: LoweredProgram,
    result: SimResult,
    *,
    replicas: int = 1,
    notes: str = "",
) -> SystemResult:
    """``program``'s simulated ``result`` as ``replicas`` copies of
    ``batch`` samples each."""
    extras: Dict[str, float] = {"comm_gib_per_iter": program.total_comm_bytes / GiB}
    if program.schedule is not None:
        extras["num_stages"] = float(program.num_stages)
        extras["num_microbatches"] = float(program.num_microbatches)
        extras["bubble_fraction"] = program.bubble_fraction(result)
    if "replica_groups" in program.stats:
        extras["replica_groups"] = program.stats["replica_groups"]
    if program.plan is not None:
        extras["search_time_s"] = program.plan.search_time_seconds
    return SystemResult(
        system=system,
        model=bundle.name,
        batch_size=replicas * batch,
        iteration_time=result.iteration_time,
        throughput=result.throughput(replicas * batch),
        oom=result.oom,
        comm_fraction=result.comm_fraction(),
        per_device_memory_gib=program.per_device_peak_bytes / GiB,
        notes=notes,
        extras=extras,
    )


def _probe_batch(global_batch: int, machine: MachineSpec) -> int:
    return min(global_batch, max(machine.num_devices, 8))


def _first_batch(
    build_fn: BuildFn,
    global_batch: int,
    machine: MachineSpec,
    lower: Lower,
    strategy: Strategy,
    *,
    flat_from_global: bool = True,
) -> int:
    """Where the batch search starts: lower a small probe batch, split its
    per-device peak into persistent state (:func:`persistent_bytes`) and a
    batch-proportional rest, and extrapolate to device capacity.

    When the persistent estimate swallows the probe's whole peak, memory
    barely scales with batch: with ``flat_from_global`` the search starts
    at the full batch and halves away any over-estimate, without it the
    search starts at the probe batch (what the Tofu and Op-Placement
    baselines have always done).
    """
    capacity = machine.device(0).memory_bytes
    probe_batch = _probe_batch(global_batch, machine)
    probe = build_fn(probe_batch)
    persistent = persistent_bytes(probe.weight_bytes(), strategy, machine)
    activation = lower(probe).per_device_peak_bytes - persistent
    if activation <= 0 and flat_from_global:
        return global_batch
    return min(
        global_batch,
        max(
            1,
            _estimate_max_batch(
                probe_batch, persistent, max(0.0, activation), capacity
            ),
        ),
    )


def _search_batch(
    system: str,
    build_fn: BuildFn,
    batch: int,
    machine: MachineSpec,
    lower: Lower,
    *,
    model: str,
    replicas: int = 1,
    notes: str = "",
) -> SystemResult:
    """The largest batch that fits: halve ``batch`` until the program
    ``lower`` builds for it fits every device's memory
    (``machine.over_capacity``), then simulate that program.

    ``model`` names the result when no batch fits.
    """
    while batch >= 1:
        bundle = build_fn(batch)
        program = lower(bundle)
        if not machine.over_capacity(program.per_device_memory):
            result = Executor().simulate(program)
            return _report(
                system, bundle, batch, program, result,
                replicas=replicas, notes=notes,
            )
        batch //= 2
    return SystemResult(
        system=system,
        model=model,
        batch_size=0,
        iteration_time=float("inf"),
        throughput=0.0,
        oom=True,
        notes=f"{notes} exceeds GPU memory at any batch size".strip(),
    )


# ---------------------------------------------------------------------------
# The Sec 7 systems
# ---------------------------------------------------------------------------
def evaluate_ideal(
    build_fn: BuildFn,
    global_batch: int,
    machine: Optional[MachineSpec] = None,
) -> SystemResult:
    """Hypothetical baseline: each GPU has infinite memory, no communication.

    Single-GPU throughput on its share of the batch, multiplied by the number
    of GPUs (Sec 7.1).
    """
    machine = machine or k80_8gpu_machine()
    num = machine.num_devices
    batch = max(1, global_batch // num)
    bundle = build_fn(batch)
    program = _lowering(single_strategy(), machine)(bundle)
    result = Executor().simulate(program, check_memory=False)
    return _report(
        "ideal", bundle, batch, program, result,
        replicas=num, notes="memory limit ignored",
    )


def evaluate_smallbatch(
    build_fn: BuildFn,
    global_batch: int,
    machine: Optional[MachineSpec] = None,
) -> SystemResult:
    """Fit the whole model on one GPU by shrinking the mini-batch.

    The search starts from the memory planner's own split of the per-GPU
    batch into persistent and batch-scaled bytes, and every GPU runs one
    replica of the batch found.
    """
    machine = machine or k80_8gpu_machine()
    num = machine.num_devices
    build_fn = _memoized_build_fn(build_fn)
    probe_batch = max(1, global_batch // num)
    plan = plan_memory(build_fn(probe_batch).graph)
    batch = _estimate_max_batch(
        probe_batch, plan.persistent_bytes, plan.pool_bytes,
        machine.device(0).memory_bytes,
    )
    return _search_batch(
        "smallbatch", build_fn, min(batch, probe_batch), machine,
        _lowering(single_strategy(), machine),
        model=build_fn(probe_batch).name, replicas=num,
    )


def evaluate_swapping(
    build_fn: BuildFn,
    global_batch: int,
    machine: Optional[MachineSpec] = None,
) -> SystemResult:
    """LRU swapping with prefetch; all GPUs share the host link (Sec 7.1).

    Transfers overlap compute, so the communication fraction is the part of
    the iteration the compute does not cover.
    """
    machine = machine or k80_8gpu_machine()
    num = machine.num_devices
    batch = max(1, global_batch // num)
    bundle = build_fn(batch)
    program = _lowering(swap_strategy(), machine)(bundle)
    result = Executor().simulate(program)
    comm_fraction = 0.0
    if result.iteration_time > 0 and not result.oom:
        comm_fraction = min(
            1.0, max(0.0, 1.0 - result.compute_time / result.iteration_time)
        )
    report = _report("swap", bundle, batch, program, result, replicas=num)
    return replace(
        report,
        comm_fraction=comm_fraction,
        extras={
            **report.extras,
            "swapped_in_gib": program.stats["swapped_in_bytes"] / GiB,
            "swapped_out_gib": program.stats["swapped_out_bytes"] / GiB,
        },
    )


def _evaluate(
    system: str,
    build_fn: BuildFn,
    global_batch: int,
    machine: MachineSpec,
    strategy: Strategy,
    *,
    flat_from_global: bool = True,
    adjust: Optional[Callable[[LoweredProgram], LoweredProgram]] = None,
) -> SystemResult:
    """The batch search for one strategy: probe, extrapolate, halve.

    ``adjust`` maps each searched program to the edited program that is
    memory-checked and simulated instead (never the probe's).
    """
    from repro.planner import Planner

    build_fn = _memoized_build_fn(build_fn)
    lower = _lowering(strategy, machine, planner=Planner())

    def lower_adjusted(bundle: ModelBundle) -> LoweredProgram:
        program = lower(bundle)
        return program if adjust is None else adjust(program)

    batch = _first_batch(
        build_fn, global_batch, machine, lower, strategy,
        flat_from_global=flat_from_global,
    )
    return _search_batch(
        system, build_fn, batch, machine, lower_adjusted,
        model=build_fn(_probe_batch(global_batch, machine)).name,
        notes=f"strategy {strategy}",
    )


def evaluate_opplacement(
    build_fn: BuildFn,
    global_batch: int,
    machine: Optional[MachineSpec] = None,
    *,
    overhead_factor: float = 1.0,
    system_name: str = "op-placement",
) -> SystemResult:
    """Layer-wise operator placement with pipelined execution.

    ``overhead_factor > 1`` models frameworks without in-place gradient
    aggregation (the TensorFlow comparison of Table 3): every kernel pays the
    extra memory traffic of materialising aggregation buffers.  The factor is
    applied between lowering and simulation, after the batch-size probe.
    """

    def add_overhead(program: LoweredProgram) -> LoweredProgram:
        return replace(
            program.copy(),
            tasks={
                name: replace(task, duration=task.duration * overhead_factor)
                for name, task in program.tasks.items()
            },
            per_device_memory={
                d: int(m * min(overhead_factor, 1.5))
                for d, m in program.per_device_memory.items()
            },
        )

    return _evaluate(
        system_name, build_fn, global_batch, machine or k80_8gpu_machine(),
        placement_strategy(), flat_from_global=False,
        adjust=add_overhead if overhead_factor != 1.0 else None,
    )


def evaluate_tofu(
    build_fn: BuildFn,
    global_batch: int,
    machine: Optional[MachineSpec] = None,
) -> SystemResult:
    """Partition the graph across all GPUs with Tofu and simulate it: the
    batch search over ``tofu``."""
    return _evaluate(
        "tofu", build_fn, global_batch, machine or k80_8gpu_machine(),
        tofu_strategy(), flat_from_global=False,
    )


def evaluate_strategy(
    build_fn: BuildFn,
    global_batch: int,
    machine: Optional[MachineSpec] = None,
    *,
    strategy: Union[Strategy, str] = "tofu",
    system_name: Optional[str] = None,
) -> SystemResult:
    """Evaluate any :mod:`repro.strategy` expression end to end.

    Compiles the strategy per candidate batch via ``repro.compile`` (plans
    are cached under the full strategy key) and runs the largest-batch-
    that-fits search: probe at a small batch, extrapolate the per-device
    footprint, halve on over-estimates.
    """
    strategy = parse_strategy(strategy)
    return _evaluate(
        system_name or str(strategy), build_fn, global_batch,
        machine or k80_8gpu_machine(), strategy,
    )
