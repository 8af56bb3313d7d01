"""Invalid compiler artifacts, built by editing freshly lowered programs.

Every case starts from a healthy artifact lowered afresh — the 2-stage 1f1b
RNN pipeline (:func:`healthy_pipeline`) or the 4-worker tofu-partitioned
MLP (:func:`healthy_tofu`) — and makes one named edit that breaks one
invariant:

* task edits give a copy of the program a new task dict
  (``dataclasses.replace(program.copy(), tasks={**program.tasks, ...})``)
  of ``dataclasses.replace(task, ...)`` values;
* the dangling dependency, which a task dict cannot spell (its names become
  ids, and an unknown name is an error there), edits the rows instead: a
  row gains the id of no row, which the sort reports;
* schedule and memory-report edits go through
  ``dataclasses.replace(program, ...)``;
* plan edits round-trip the plan through an edited :func:`plan_to_dict`;
* the cache-key case subclasses ``ExecutorConfig`` with a field neither in
  the key nor declared non-semantic.

:data:`CASES` maps each case name to its :class:`Case`: the checker that
must fire, the stable code it must report (``None`` for the two healthy
controls, which must verify clean under every built-in checker) and a
``build()`` returning the :class:`CheckContext` to check.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, NamedTuple, Optional

from repro.analysis import CheckContext
from repro.models.mlp import build_mlp
from repro.models.rnn import build_rnn
from repro.partition.plan import (
    PartitionPlan,
    StepAssignment,
    plan_from_dict,
    plan_to_dict,
)
from repro.planner import Planner, PlannerConfig
from repro.runtime import Executor, ExecutorConfig, LoweredProgram
from repro.sim.device import k80_8gpu_machine
from repro.sim.engine import Task, TaskGraphBuilder

#: Devices of the machine both healthy programs are lowered for.
NUM_DEVICES = 4


class Case(NamedTuple):
    checker: Optional[str]
    expect_code: Optional[str]
    build: Callable[[], CheckContext]


def _lower(graph, **request) -> LoweredProgram:
    executor = Executor(ExecutorConfig(cache_programs=False))
    return executor.lower(graph, machine=k80_8gpu_machine(NUM_DEVICES), **request)


def healthy_pipeline() -> LoweredProgram:
    """A freshly lowered 2-stage 1f1b pipeline of a small RNN."""
    bundle = build_rnn(num_layers=2, hidden_size=32, seq_len=2, batch_size=4)
    return _lower(
        bundle.graph,
        backend="pipeline",
        backend_options={
            "num_stages": 2, "num_microbatches": 2, "schedule": "1f1b",
        },
    )


def _tofu_graph():
    return build_mlp(
        batch_size=16, input_dim=32, hidden_dim=32, num_layers=2,
        num_classes=8,
    ).graph


def _tofu_plan(graph) -> PartitionPlan:
    planner = Planner(PlannerConfig())
    return planner.plan(graph, NUM_DEVICES, machine=k80_8gpu_machine(NUM_DEVICES))


def healthy_tofu() -> LoweredProgram:
    """A freshly lowered 4-worker tofu-partitioned MLP."""
    graph = _tofu_graph()
    return _lower(graph, plan=_tofu_plan(graph), backend="tofu-partitioned")


# ---------------------------------------------------------------- edits
def compute_tasks(program: LoweredProgram) -> List[Task]:
    return [t for t in program.tasks.values() if t.kind == "compute"]


def device_copies(program: LoweredProgram) -> List[Task]:
    """Comm tasks sent by one device to another."""
    return [
        t for t in program.tasks.values()
        if t.kind == "comm" and t.src_device is not None
    ]


def with_tasks(program: LoweredProgram, *tasks: Task) -> LoweredProgram:
    """``program`` with each of ``tasks`` in place of its namesake."""
    return dataclasses.replace(
        program.copy(),
        tasks={**program.tasks, **{task.name: task for task in tasks}},
    )


def with_rows(program: LoweredProgram, rows: List[tuple]) -> LoweredProgram:
    """``program`` with ``rows`` as its task rows, taken as they are."""
    builder = TaskGraphBuilder()
    builder.extend(rows)
    return dataclasses.replace(program.copy(), tasks=builder)


def with_memory(program: LoweredProgram, memory: Dict[int, int]) -> LoweredProgram:
    """``program`` with ``memory`` as its memory report."""
    return dataclasses.replace(program, per_device_memory=memory)


def _program_case(checker: str, code: str, edit) -> Case:
    """A case checking ``edit(healthy program)`` with ``checker``."""
    return Case(checker, code, lambda: CheckContext(program=edit()))


def _cyclic_after() -> LoweredProgram:
    program = healthy_pipeline()
    first, second = compute_tasks(program)[:2]
    return with_tasks(
        program,
        dataclasses.replace(first, after=tuple(first.after) + (second.name,)),
        dataclasses.replace(second, after=tuple(second.after) + (first.name,)),
    )


def _dangling_dep() -> LoweredProgram:
    """The first compute task also depends on the id one past the last row."""
    program = healthy_pipeline()
    rows = list(program.task_graph.rows)
    first = next(i for i, row in enumerate(rows) if row[2] == "compute")
    row = rows[first]
    rows[first] = row[:5] + (row[5] + (len(rows),),) + row[6:]
    return with_rows(program, rows)


def _with_slots(program: LoweredProgram, slots) -> LoweredProgram:
    """``program`` with ``slots`` as stage 0's slot order."""
    schedule = program.schedule
    slots_of_stage = [slots] + [list(s) for s in schedule.slots_of_stage[1:]]
    return dataclasses.replace(
        program,
        schedule=dataclasses.replace(schedule, slots_of_stage=slots_of_stage),
    )


def _duplicate_slot() -> LoweredProgram:
    """Stage 0 schedules one (phase, microbatch) slot twice and drops
    another."""
    program = healthy_pipeline()
    slots = list(program.schedule.slots_of_stage[0])
    slots[1] = slots[0]
    return _with_slots(program, slots)


def _deadlock_schedule() -> LoweredProgram:
    """Stage 0's slot order reversed: every backward waits for a forward
    scheduled after it."""
    program = healthy_pipeline()
    return _with_slots(program, list(reversed(program.schedule.slots_of_stage[0])))


def _bad_link() -> LoweredProgram:
    """A comm task names no destination device, so no link resolves."""
    program = healthy_pipeline()
    victim = device_copies(program)[0]
    return with_tasks(program, dataclasses.replace(victim, dst_device=None))


def _self_transfer() -> LoweredProgram:
    program = healthy_pipeline()
    victim = device_copies(program)[0]
    return with_tasks(
        program, dataclasses.replace(victim, dst_device=victim.src_device)
    )


def _device_range() -> LoweredProgram:
    """A task placed on device 99 of a 4-device machine."""
    program = healthy_pipeline()
    first = next(iter(program.tasks.values()))
    return with_tasks(program, dataclasses.replace(first, device=99))


def _memory_coverage() -> LoweredProgram:
    """The memory report forgets the lowest compute device."""
    program = healthy_pipeline()
    memory = dict(program.per_device_memory)
    del memory[min(memory)]
    return dataclasses.replace(program, check_memory=True, per_device_memory=memory)


def _memory_mismatch() -> LoweredProgram:
    """Declared per-device peaks no longer reproducible from the sharded
    graph's liveness intervals."""
    program = healthy_tofu()
    return with_memory(program, {
        device: required + 9999
        for device, required in program.per_device_memory.items()
    })


# ---------------------------------------------------------------- plans
def _overlapping_shards() -> CheckContext:
    """A hand-built plan splitting a batch-2 dimension 4 ways (the per-step
    parts still multiply to the worker count, isolating the overlap)."""
    graph = build_mlp(
        batch_size=2, input_dim=32, hidden_dim=32, num_layers=2,
        num_classes=8,
    ).graph
    victim = next(
        name for name, spec in sorted(graph.tensors.items())
        if tuple(spec.shape)[:1] == (2,)
    )
    step = StepAssignment(
        parts=2, tensor_dims={victim: 0}, op_strategies={},
        comm_bytes=0.0, weighted_bytes=0.0,
    )
    plan = PartitionPlan(
        num_workers=NUM_DEVICES, steps=[step, dataclasses.replace(step)]
    )
    return CheckContext(plan=plan, graph=graph)


def _edited_tofu_plan(edit) -> Callable[[], CheckContext]:
    """A context of the tofu plan, its payload edited by ``edit``."""
    def build() -> CheckContext:
        graph = _tofu_graph()
        payload = plan_to_dict(_tofu_plan(graph))
        edit(payload)
        return CheckContext(plan=plan_from_dict(payload), graph=graph)
    return build


def _dim_gap(payload) -> None:
    """Split a tensor along out-of-range dimension 9."""
    dims = payload["steps"][0]["tensor_dims"]
    dims[sorted(dims)[0]] = 9


def _extra_worker(payload) -> None:
    """Declare one more worker than the steps multiply to."""
    payload["num_workers"] += 1


def _stale_cache_key() -> CheckContext:
    """An ExecutorConfig field neither in the cache key nor declared
    non-semantic."""
    stale_type = dataclasses.make_dataclass(
        "StaleExecutorConfig",
        [("mystery_knob", int, dataclasses.field(default=0))],
        bases=(ExecutorConfig,),
        frozen=True,
    )
    return CheckContext(executor_config_type=stale_type)


CASES: Dict[str, Case] = {
    "healthy_pipeline": _program_case(None, None, healthy_pipeline),
    "healthy_tofu": _program_case(None, None, healthy_tofu),
    "overlapping_shards": Case(
        "shard-conservation", "ANA001_SHARD_TILING", _overlapping_shards
    ),
    "shard_dim_gap": Case(
        "shard-conservation", "ANA001_SHARD_TILING", _edited_tofu_plan(_dim_gap)
    ),
    "worker_mismatch": Case(
        "shard-conservation",
        "ANA002_WORKER_MISMATCH",
        _edited_tofu_plan(_extra_worker),
    ),
    "cyclic_after": _program_case(
        "schedule-soundness", "ANA003_CYCLIC_SCHEDULE", _cyclic_after
    ),
    "dangling_dep": _program_case(
        "schedule-soundness", "ANA004_DANGLING_DEP", _dangling_dep
    ),
    "duplicate_slot": _program_case(
        "schedule-soundness", "ANA005_SLOT_MULTIPLICITY", _duplicate_slot
    ),
    "deadlock_schedule": _program_case(
        "schedule-soundness", "ANA006_SCHEDULE_DEADLOCK", _deadlock_schedule
    ),
    "bad_link": _program_case("comm-validity", "ANA007_BAD_LINK", _bad_link),
    "self_transfer": _program_case(
        "comm-validity", "ANA008_SELF_TRANSFER", _self_transfer
    ),
    "device_range": _program_case(
        "comm-validity", "ANA009_DEVICE_RANGE", _device_range
    ),
    "memory_coverage": _program_case(
        "memory-plan", "ANA010_MEMORY_COVERAGE", _memory_coverage
    ),
    "memory_mismatch": _program_case(
        "memory-plan", "ANA011_MEMORY_MISMATCH", _memory_mismatch
    ),
    "stale_cache_key": Case(
        "cache-key", "ANA012_CACHE_KEY_FIELD", _stale_cache_key
    ),
}
