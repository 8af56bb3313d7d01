"""The :class:`LoweredProgram` — output of the lowering pipeline.

A lowered program is everything the simulator needs to execute one training
iteration of a graph under a particular execution style: device-assigned
compute/communication tasks, the per-device memory report, and bookkeeping
(aggregate communication volume, backend-specific statistics).  It is the
common currency between execution backends (:mod:`repro.runtime.backends`)
and the :class:`repro.runtime.Executor` facade, mirroring how
:class:`repro.partition.plan.PartitionPlan` is the currency between search
backends and the :class:`repro.planner.Planner`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import TYPE_CHECKING, Dict, Mapping, Optional

from repro.errors import ExecutionError
from repro.sim.device import (
    Topology,
    is_finite_number,
    link_from_dict,
    machine_from_dict,
)
from repro.sim.engine import (
    CompiledTaskGraph,
    Task,
    TaskGraphBuilder,
    TaskRow,
    TaskView,
    task_view,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graph.graph import Graph
    from repro.partition.plan import PartitionPlan
    from repro.runtime.passes import PipelineSchedule

PROGRAM_PAYLOAD_VERSION = 1


@dataclass
class LoweredProgram:
    """Device-assigned tasks plus the memory report for one execution style.

    Attributes:
        backend: Name of the execution backend that produced the program.
        num_devices: Devices the program occupies.
        tasks: Simulator task graph (compute tasks and comm tasks): a
            read-only ``name -> Task`` view, in emission order, of the
            program's dense form (:attr:`task_graph`).  Backends pass a
            :class:`repro.sim.engine.TaskGraphBuilder`; any other mapping is
            fed through one.  The dense form is shared with the program
            cache; edit a program with :meth:`replace_tasks`.
        per_device_memory: Planned peak bytes per device index (the memory
            report the simulator checks against device capacity).
        total_comm_bytes: Aggregate communication volume of one iteration.
        check_memory: Whether the simulator should verdict OOM from
            ``per_device_memory`` (the Ideal baseline ignores memory).
        stats: Backend-specific scalars (e.g. swapped bytes for ``swap``).
        plan: The partition plan the program was lowered from, if any.
        sharded_graph: The per-worker shard graph the memory report was
            planned on, when the program came from the ``tofu-partitioned``
            backend (Sec 6).
        fetch_bytes_per_node: Cluster-wide remote-fetch bytes of every graph
            node under ``plan`` (``tofu-partitioned`` only); with
            ``reduce_bytes_per_node`` it sizes the comm staging buffer.
        reduce_bytes_per_node: Cluster-wide output-reduction bytes of every
            graph node under ``plan`` (``tofu-partitioned`` only).
        machine: The machine model the program was priced for; kernel
            durations and the memory report are only meaningful on it, so
            ``Executor.simulate`` defaults to it.
        num_microbatches: Micro-batches one iteration is split into (1 for
            unpipelined execution styles).
        stage_of_node: Graph node -> pipeline stage, when the program was
            staged (the per-stage memory report is keyed the same way).
        schedule: The per-stage slot order the lowering encoded as
            stage-ordering control dependencies, when the program is
            micro-batch pipelined.
        strategy: Canonical string of the :class:`repro.strategy.Strategy`
            the program was compiled from, when it came through
            ``repro.compile`` (provenance; empty for direct Executor use).
    """

    backend: str
    num_devices: int
    tasks: Mapping[str, Task]
    per_device_memory: Dict[int, int]
    total_comm_bytes: float = 0.0
    check_memory: bool = True
    stats: Dict[str, float] = field(default_factory=dict)
    plan: Optional["PartitionPlan"] = None
    sharded_graph: Optional["Graph"] = None
    fetch_bytes_per_node: Optional[Dict[str, float]] = None
    reduce_bytes_per_node: Optional[Dict[str, float]] = None
    machine: Optional[Topology] = None
    num_microbatches: int = 1
    stage_of_node: Optional[Mapping[str, int]] = None
    schedule: Optional["PipelineSchedule"] = None
    strategy: Optional[str] = None

    def __post_init__(self) -> None:
        self.tasks = task_view(self.tasks)

    @property
    def task_graph(self) -> TaskGraphBuilder:
        """The program's dense form (shared by every copy of the program)."""
        return self.tasks.graph

    def dense_form(self, machine: Optional[Topology] = None) -> CompiledTaskGraph:
        """The task graph compiled for ``machine`` (default: the machine the
        program was priced for).  Compiled once per machine and cached on
        the shared dense form, so program-cache copies reuse it."""
        return self.task_graph.build(machine or self.machine)

    def replace_tasks(self, tasks: Mapping[str, Task]) -> "LoweredProgram":
        """A copy whose task graph has each of ``tasks`` in place of the
        task of the same name (new names are appended), rebuilt through the
        :class:`TaskGraphBuilder`.  This program is left unchanged."""
        return replace(self.copy(), tasks=TaskView(self.task_graph.edited(tasks)))

    def copy(self) -> "LoweredProgram":
        """A copy that shares every immutable value and owns every container.

        The dense task graph (and with it the compiled form cached on it),
        plan, machine, schedule and sharded graph are shared by reference;
        the memory report, ``stats``, ``stage_of_node`` and the per-node
        fetch/reduce bytes are fresh, so edits to either program's
        containers never reach the other.  This is what the program cache
        stores on a put and returns on every hit.
        """
        return replace(
            self,
            per_device_memory=dict(self.per_device_memory),
            stats=dict(self.stats),
            stage_of_node=_copied(self.stage_of_node),
            fetch_bytes_per_node=_copied(self.fetch_bytes_per_node),
            reduce_bytes_per_node=_copied(self.reduce_bytes_per_node),
        )

    @property
    def per_device_peak_bytes(self) -> int:
        """Largest planned peak memory across devices, in bytes."""
        return max(self.per_device_memory.values(), default=0)

    @property
    def num_stages(self) -> int:
        """Pipeline stages of the program (1 when it is not staged)."""
        if self.schedule is not None:
            return self.schedule.num_stages
        return 1

    def summary(self) -> str:
        """One human-readable line per headline stat of the lowering."""
        gib = 1 << 30
        pipeline = ""
        if self.schedule is not None:
            pipeline = (
                f", stages={self.schedule.num_stages}"
                f"x{self.num_microbatches}mb ({self.schedule.style})"
            )
        return (
            f"LoweredProgram(backend={self.backend!r}, "
            f"devices={self.num_devices}, tasks={len(self.tasks)}, "
            f"comm={self.total_comm_bytes / gib:.2f} GiB/iter, "
            f"per-device mem={self.per_device_peak_bytes / gib:.2f} GiB"
            f"{pipeline})"
        )


def _copied(mapping: Optional[Mapping]) -> Optional[Dict]:
    return None if mapping is None else dict(mapping)


# ---------------------------------------------------------------------------
# Serialization — what the lowered-program cache stores
# ---------------------------------------------------------------------------
def _row_to_dict(row: TaskRow) -> Dict:
    entry = row._asdict()
    entry.update(
        deps=list(row.deps),
        after=list(row.after),
        link=None if row.link is None else asdict(row.link),
    )
    return entry


def _add_task_entry(builder: TaskGraphBuilder, entry: Mapping) -> None:
    """Add one task row of a payload, rejecting rows the simulator cannot
    price with :class:`ExecutionError`.  Older payloads carry
    ``"comm_time": null``; that key is accepted and dropped."""
    name = entry.get("name")
    kind = entry.get("kind", "compute")
    if kind not in ("compute", "comm"):
        raise ExecutionError(
            f"task {name!r} has unknown kind {kind!r} (known: compute, comm)"
        )
    for field_name in ("duration", "comm_bytes"):
        value = entry.get(field_name, 0.0)
        if not is_finite_number(value) or value < 0:
            raise ExecutionError(
                f"task {name!r} {field_name} must be a finite non-negative "
                f"number, got {value!r}"
            )
    if entry.get("comm_time") is not None:
        raise ExecutionError(
            f"task {name!r} carries a comm_time override; transfers are "
            f"priced by their link only"
        )
    row = {key: value for key, value in entry.items() if key != "comm_time"}
    link = row.get("link")
    row["link"] = None if link is None else link_from_dict(link)
    builder.add(**row)


def program_to_dict(program: LoweredProgram) -> Dict:
    """JSON-serialisable form of a lowered program; inverse of
    :func:`program_from_dict`.

    Everything is content, nothing is identity: tasks (with resolved links
    and both dependency streams, in emission order), the memory report,
    the partition plan, the priced machine model, the pipeline schedule, and
    (under ``"partitioned"``) the sharded graph with its per-node
    fetch/reduce bytes.  JSON round-trips floats exactly (``repr``-based
    shortest encoding), so a reconstructed program simulates bit-identically
    to the one that was stored — the property the lowered-program cache's
    parity suite pins.
    """
    from repro.partition.plan import plan_to_dict
    from repro.sim.device import machine_to_dict

    payload: Dict = {
        "version": PROGRAM_PAYLOAD_VERSION,
        "backend": program.backend,
        "num_devices": program.num_devices,
        "tasks": [_row_to_dict(row) for row in program.task_graph.rows],
        "per_device_memory": {
            str(device): int(required)
            for device, required in program.per_device_memory.items()
        },
        "total_comm_bytes": program.total_comm_bytes,
        "check_memory": program.check_memory,
        "stats": dict(program.stats),
        "plan": None if program.plan is None else plan_to_dict(program.plan),
        "machine": (
            None if program.machine is None
            else machine_to_dict(program.machine)
        ),
        "num_microbatches": program.num_microbatches,
        "stage_of_node": (
            None if program.stage_of_node is None
            else dict(program.stage_of_node)
        ),
        "schedule": None,
        "strategy": program.strategy,
        "partitioned": None,
    }
    if program.schedule is not None:
        payload["schedule"] = {
            "num_stages": program.schedule.num_stages,
            "num_microbatches": program.schedule.num_microbatches,
            "style": program.schedule.style,
            "slots_of_stage": [
                [[phase, microbatch] for phase, microbatch in slots]
                for slots in program.schedule.slots_of_stage
            ],
        }
    if program.sharded_graph is not None:
        from repro.graph.serialization import graph_to_dict

        payload["partitioned"] = {
            "fetch_bytes_per_node": dict(program.fetch_bytes_per_node),
            "reduce_bytes_per_node": dict(program.reduce_bytes_per_node),
            "sharded_graph": graph_to_dict(program.sharded_graph),
        }
    return payload


def program_from_dict(payload: Mapping) -> LoweredProgram:
    """Rebuild a :class:`LoweredProgram` from :func:`program_to_dict` output.

    Older payloads carry a top-level ``"cost_model": null``, which is
    accepted; a non-null value raises :class:`ExecutionError`.
    """
    version = payload.get("version")
    if version != PROGRAM_PAYLOAD_VERSION:
        raise ExecutionError(
            f"unsupported lowered-program payload version {version!r} "
            f"(this library reads version {PROGRAM_PAYLOAD_VERSION})"
        )
    if payload.get("cost_model") is not None:
        raise ExecutionError(
            f"lowered-program payload names cost model "
            f"{payload['cost_model']!r}; kernels are priced by the roofline "
            f"only"
        )
    from repro.partition.plan import plan_from_dict
    from repro.runtime.passes import PipelineSchedule

    builder = TaskGraphBuilder()
    for entry in payload["tasks"]:
        _add_task_entry(builder, entry)
    tasks = builder.tasks
    plan = (
        None if payload.get("plan") is None
        else plan_from_dict(payload["plan"])
    )
    schedule = None
    if payload.get("schedule") is not None:
        entry = payload["schedule"]
        schedule = PipelineSchedule(
            num_stages=entry["num_stages"],
            num_microbatches=entry["num_microbatches"],
            style=entry["style"],
            slots_of_stage=[
                [(phase, microbatch) for phase, microbatch in slots]
                for slots in entry["slots_of_stage"]
            ],
        )
    # Older payloads also repeat the plan, memory report, comm total and
    # device count under "partitioned"; only the top-level copies are read.
    partitioned = payload.get("partitioned")
    sharded_graph = fetch_bytes = reduce_bytes = None
    if partitioned is not None:
        from repro.graph.serialization import graph_from_dict

        sharded_graph = graph_from_dict(partitioned["sharded_graph"])
        fetch_bytes = dict(partitioned["fetch_bytes_per_node"])
        reduce_bytes = dict(partitioned["reduce_bytes_per_node"])
    return LoweredProgram(
        backend=payload["backend"],
        num_devices=payload["num_devices"],
        tasks=tasks,
        per_device_memory={
            int(device): required
            for device, required in payload["per_device_memory"].items()
        },
        total_comm_bytes=payload["total_comm_bytes"],
        check_memory=payload["check_memory"],
        stats=dict(payload["stats"]),
        plan=plan,
        sharded_graph=sharded_graph,
        fetch_bytes_per_node=fetch_bytes,
        reduce_bytes_per_node=reduce_bytes,
        machine=(
            None if payload.get("machine") is None
            else machine_from_dict(payload["machine"])
        ),
        num_microbatches=payload["num_microbatches"],
        stage_of_node=(
            None if payload.get("stage_of_node") is None
            else dict(payload["stage_of_node"])
        ),
        schedule=schedule,
        strategy=payload.get("strategy"),
    )
