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

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, Mapping, Optional

from repro.sim.device import Link, Topology
from repro.sim.engine import FrozenTaskGraph, Task

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (apply uses passes)
    from repro.partition.apply import PartitionedGraph
    from repro.partition.plan import PartitionPlan
    from repro.runtime.passes import PipelineSchedule

PROGRAM_PAYLOAD_VERSION = 1


@dataclass
class LoweredProgram:
    """Device-assigned tasks plus the memory report for one execution style.

    Attributes:
        backend: Name of the execution backend that produced the program.
        num_devices: Devices the program occupies.
        tasks: Simulator task graph (compute tasks and comm tasks).  The
            ``Task`` values are immutable and may be shared with the program
            cache; edit a program by replacing entries
            (``tasks[name] = dataclasses.replace(task, ...)``).
        per_device_memory: Planned peak bytes per device index (the memory
            report the simulator checks against device capacity).
        total_comm_bytes: Aggregate communication volume of one iteration.
        check_memory: Whether the simulator should verdict OOM from
            ``per_device_memory`` (the Ideal baseline ignores memory).
        stats: Backend-specific scalars (e.g. swapped bytes for ``swap``).
        plan: The partition plan the program was lowered from, if any.
        partitioned: The full :class:`PartitionedGraph` detail when the
            program came from the ``tofu-partitioned`` backend.
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
        cost_model: Cache token of the non-default cost model the program
            was priced under (``repro.costmodel.cost_model_cache_token``),
            or ``None`` for the default roofline pricing (provenance, and
            the discriminator the program-cache key folds in).
    """

    backend: str
    num_devices: int
    tasks: Dict[str, Task]
    per_device_memory: Dict[int, int]
    total_comm_bytes: float = 0.0
    check_memory: bool = True
    stats: Dict[str, float] = field(default_factory=dict)
    plan: Optional["PartitionPlan"] = None
    partitioned: Optional["PartitionedGraph"] = None
    machine: Optional[Topology] = None
    num_microbatches: int = 1
    stage_of_node: Optional[Mapping[str, int]] = None
    schedule: Optional["PipelineSchedule"] = None
    strategy: Optional[str] = None
    cost_model: Optional[str] = None
    #: Set by :meth:`freeze`; never serialised (a reloaded program starts
    #: unfrozen — whoever reconstructs it must opt in again).
    _frozen: Optional[FrozenTaskGraph] = field(
        default=None, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------- freezing
    @property
    def frozen(self) -> bool:
        """Whether the program carries a frozen handle over its current task
        dict (a handle left behind by reassigning ``tasks`` does not count)."""
        return self._frozen is not None and self._frozen.tasks is self.tasks

    def freeze(self) -> "LoweredProgram":
        """Mark the task dict trusted-unchanging and return ``self``.

        Repeat simulations then skip the per-call content fingerprint
        (~11 ms at 20k tasks) — the warm-path headroom the profiling work
        identified.  Tasks themselves are immutable; the caller promises not
        to insert, replace or delete entries of ``tasks`` while the program
        stays frozen, since an edit behind a frozen handle silently replays
        stale results.  Reassigning ``program.tasks`` to a new dict is safe:
        the handle is bound to the dict it froze and is ignored once
        ``tasks`` points elsewhere.
        """
        if not self.frozen:
            self._frozen = FrozenTaskGraph(self.tasks)
        return self

    def thaw(self) -> "LoweredProgram":
        """Drop the frozen handle; simulations fingerprint per call again."""
        self._frozen = None
        return self

    @property
    def simulation_tasks(self):
        """What the simulator should run: the frozen handle when one is set
        over the current task dict (fingerprint reused), the raw task dict
        otherwise — including after ``tasks`` was reassigned."""
        return self._frozen if self.frozen else self.tasks

    def copy(self) -> "LoweredProgram":
        """A copy that shares every immutable value and owns every container.

        The ``Task`` objects, plan, machine, schedule and the partitioned
        detail's sharded graph are shared by reference; the task dict, the
        memory report, ``stats`` and ``stage_of_node`` are fresh, so edits
        to either program's containers never reach the other.  The copy
        starts unfrozen.  This is what the program cache stores on a put
        and returns on every hit.
        """
        tasks = dict(self.tasks)
        partitioned = self.partitioned
        if partitioned is not None:
            # The partitioned detail shares the program's task dict, exactly
            # as the tofu-partitioned backend builds it.
            partitioned = replace(
                partitioned,
                tasks=tasks,
                per_device_memory=dict(partitioned.per_device_memory),
                fetch_bytes_per_node=dict(partitioned.fetch_bytes_per_node),
                reduce_bytes_per_node=dict(partitioned.reduce_bytes_per_node),
            )
        return replace(
            self,
            tasks=tasks,
            per_device_memory=dict(self.per_device_memory),
            stats=dict(self.stats),
            stage_of_node=(
                None if self.stage_of_node is None else dict(self.stage_of_node)
            ),
            partitioned=partitioned,
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


# ---------------------------------------------------------------------------
# Serialization — what the lowered-program cache stores
# ---------------------------------------------------------------------------
def _task_to_dict(task: Task) -> Dict:
    link = task.link
    return {
        "name": task.name,
        "device": task.device,
        "kind": task.kind,
        "duration": task.duration,
        "comm_bytes": task.comm_bytes,
        "channel": task.channel,
        "deps": list(task.deps),
        "after": list(task.after),
        "link": None if link is None else {
            "kind": link.kind,
            "key": link.key,
            "bandwidth": link.bandwidth,
            "latency": link.latency,
        },
        "src_device": task.src_device,
        "dst_device": task.dst_device,
        "comm_time": task.comm_time,
    }


def _task_from_dict(payload: Mapping) -> Task:
    link = payload.get("link")
    return Task(
        name=payload["name"],
        device=payload["device"],
        kind=payload["kind"],
        duration=payload["duration"],
        comm_bytes=payload["comm_bytes"],
        channel=payload["channel"],
        deps=tuple(payload["deps"]),
        after=tuple(payload["after"]),
        link=None if link is None else Link(**link),
        src_device=payload.get("src_device"),
        dst_device=payload.get("dst_device"),
        comm_time=payload.get("comm_time"),
    )


def program_to_dict(program: LoweredProgram) -> Dict:
    """JSON-serialisable form of a lowered program; inverse of
    :func:`program_from_dict`.

    Everything is content, nothing is identity: tasks (with resolved links
    and both dependency streams, in scheduling order), the memory report,
    the partition plan, the priced machine model, the pipeline schedule, and
    the partitioned-graph detail.  JSON round-trips floats exactly
    (``repr``-based shortest encoding), so a reconstructed program simulates
    bit-identically to the one that was stored — the property the
    lowered-program cache's parity suite pins.
    """
    from repro.partition.plan import plan_to_dict
    from repro.sim.device import machine_to_dict

    payload: Dict = {
        "version": PROGRAM_PAYLOAD_VERSION,
        "backend": program.backend,
        "num_devices": program.num_devices,
        "tasks": [_task_to_dict(task) for task in program.tasks.values()],
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
        "cost_model": program.cost_model,
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
    if program.partitioned is not None:
        from repro.graph.serialization import graph_to_dict

        detail = program.partitioned
        payload["partitioned"] = {
            "num_devices": detail.num_devices,
            "per_device_memory": {
                str(device): int(required)
                for device, required in detail.per_device_memory.items()
            },
            "total_comm_bytes": detail.total_comm_bytes,
            "fetch_bytes_per_node": dict(detail.fetch_bytes_per_node),
            "reduce_bytes_per_node": dict(detail.reduce_bytes_per_node),
            "sharded_graph": graph_to_dict(detail.sharded_graph),
            "plan": plan_to_dict(detail.plan),
        }
    return payload


def program_from_dict(payload: Mapping) -> LoweredProgram:
    """Rebuild a :class:`LoweredProgram` from :func:`program_to_dict` output."""
    from repro.errors import ExecutionError

    version = payload.get("version")
    if version != PROGRAM_PAYLOAD_VERSION:
        raise ExecutionError(
            f"unsupported lowered-program payload version {version!r} "
            f"(this library reads version {PROGRAM_PAYLOAD_VERSION})"
        )
    from repro.partition.plan import plan_from_dict
    from repro.runtime.passes import PipelineSchedule
    from repro.sim.device import machine_from_dict

    tasks = {entry["name"]: _task_from_dict(entry) for entry in payload["tasks"]}
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
    partitioned = None
    if payload.get("partitioned") is not None:
        from repro.graph.serialization import graph_from_dict
        from repro.partition.apply import PartitionedGraph

        entry = payload["partitioned"]
        partitioned = PartitionedGraph(
            num_devices=entry["num_devices"],
            # The partitioned detail shares the program's task dict, exactly
            # as the tofu-partitioned backend builds it.
            tasks=tasks,
            per_device_memory={
                int(device): required
                for device, required in entry["per_device_memory"].items()
            },
            total_comm_bytes=entry["total_comm_bytes"],
            fetch_bytes_per_node=dict(entry["fetch_bytes_per_node"]),
            reduce_bytes_per_node=dict(entry["reduce_bytes_per_node"]),
            sharded_graph=graph_from_dict(entry["sharded_graph"]),
            plan=plan_from_dict(entry["plan"]),
        )
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
        partitioned=partitioned,
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
        cost_model=payload.get("cost_model"),
    )
