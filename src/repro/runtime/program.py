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

from repro.sim.device import Topology
from repro.sim.engine import (
    CompiledTaskGraph,
    SimResult,
    Task,
    TaskGraphBuilder,
    task_view,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graph.graph import Graph
    from repro.partition.plan import PartitionPlan
    from repro.runtime.passes import PipelineSchedule


@dataclass
class LoweredProgram:
    """Device-assigned tasks plus the memory report for one execution style.

    Attributes:
        backend: Name of the execution backend that produced the program.
        num_devices: Devices the program occupies.
        tasks: Simulator task graph (compute tasks and comm tasks): a
            read-only ``name -> Task`` view, in emission order, of the
            program's dense form (:attr:`task_graph`).  Backends pass a
            :class:`repro.sim.engine.TaskGraphBuilder` or an emitter of one,
            called on the first read (a memory screen never pays for rows);
            any other mapping goes through ``TaskGraphBuilder.from_tasks``,
            which turns its dependency names into ids.  The dense form is
            shared with the program cache; edit a program by giving a copy
            a new dict: ``dataclasses.replace(program.copy(),
            tasks={**program.tasks, **edits})``.
        per_device_memory: Planned peak bytes per device index (the memory
            report the simulator checks against device capacity).
        total_comm_bytes: Aggregate communication volume of one iteration.
        check_memory: Whether the simulator should verdict OOM from
            ``per_device_memory``; the Ideal baseline ignores memory with
            ``Executor.simulate(program, check_memory=False)`` instead.
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

    def bubble_fraction(self, result: SimResult) -> float:
        """Fraction of aggregate device time ``result`` spent idle (the
        pipeline bubble); 0.0 for an unstaged program.

        Only the devices the staged program occupies count: the simulator
        reports idle time for *every* topology device, and a device the
        pipeline never placed a stage on is spare capacity, not bubble.
        Every device counted adds one iteration to the aggregate, so the
        G replica groups of ``dp:G/pipeline:S`` weigh G*S devices.
        """
        if self.schedule is None:
            return 0.0
        idle_times = [
            idle
            for device, idle in result.per_device_idle_time.items()
            if device in self.per_device_memory
        ]
        total = len(idle_times) * result.iteration_time
        if total <= 0:
            return 0.0
        return min(1.0, sum(idle_times) / total)

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
