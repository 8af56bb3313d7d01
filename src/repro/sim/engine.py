"""Discrete-event simulation of task graphs over a (possibly multi-machine)
GPU topology.

The simulator executes a graph of tasks where every task runs on a resource:
compute tasks occupy their device's execution stream, communication tasks
occupy the :class:`repro.sim.device.Link` they cross — a destination device's
PCI-e peer-to-peer link, a machine's shared CPU link, or a destination
machine's network NIC.  Each link is its own contention queue, so transfers
sharing a link serialise while transfers on different links overlap.  Tasks
start as soon as their dependencies have finished and their resource is free
(list scheduling in dependency order), which reproduces the first-order
behaviour of MXNet's dependency-driven scheduler that the paper's evaluation
relies on (pipelining across devices, link contention, the shared CPU link
bottleneck for swapping).

A comm task names only its endpoints; the link it crosses is resolved
(``link_between``) when the task graph is built for a machine, so one
program simulated on another machine re-prices every transfer.  On a single
machine the link set is per-device ``p2p`` queues plus one shared ``cpu``
queue.

Lowering passes emit rows into a :class:`TaskGraphBuilder`, whose
:meth:`~TaskGraphBuilder.build` interns task names to dense integer ids
(topological order, dependency id lists, resource slots, pre-priced transfer
times) and :meth:`TaskGraphSimulator.run_compiled` replays the arrays.  A
built graph caches its compiled form and that form's replay, so repeat
simulations of one program — and of every program-cache copy sharing its
graph — neither sort nor replay it again; only the memory verdicts are
worked out per call.  :func:`compile_task_graph` feeds a plain task dict to
the same builder.

The original string-keyed per-dict event loop lives outside the package, in
``tests/support/sim_oracle.py`` (``run_reference``): the parity suite pins
this module float-identical to it across every registered execution
backend, and the hot-path benchmark measures one against the other.
"""

from __future__ import annotations

from array import array
from collections import abc, namedtuple
from dataclasses import dataclass, field, fields
from typing import (
    Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union,
)

from repro import perf
from repro.errors import SimulationError
from repro.sim.device import HOST_DEVICE  # noqa: F401  (re-export)
from repro.sim.device import Link, Topology


@dataclass(frozen=True)
class Task:
    """One schedulable unit — an immutable value.

    Lowering emits task rows into a :class:`TaskGraphBuilder`; ``Task``
    objects are what a program's read-only task view builds from those
    rows, and what callers hand to :func:`compile_task_graph`.  To edit a
    program, replace tasks:
    ``program.replace_tasks({name: dataclasses.replace(task, ...)})``.

    ``kind`` is ``"compute"`` (duration given directly) or ``"comm"``
    (duration derived from ``comm_bytes`` and the link bandwidth, plus the
    link latency for network hops).

    A comm task names its endpoints and nothing else: ``dst_device`` is the
    receiving device, ``src_device`` the sending device, ``None`` for a
    gather from every peer, or :data:`HOST_DEVICE` for a host copy.  The
    link they cross is resolved (``link_between``) for whichever machine
    the task graph is built for.  ``device`` is the device the transfer's
    time is accounted to.

    ``deps`` are data dependencies (the task reads what they produced);
    ``after`` are stage-ordering control dependencies — pure scheduling
    edges that pin a task behind another one without any data flowing,
    which is how the pipeline backend encodes its GPipe/1F1B per-stage
    execution order.  The simulator honours both identically.
    """

    name: str
    device: int
    kind: str = "compute"
    duration: float = 0.0
    comm_bytes: float = 0.0
    deps: Sequence[str] = ()
    after: Sequence[str] = ()
    src_device: Optional[int] = None
    dst_device: Optional[int] = None

    def ordering_deps(self) -> Iterable[str]:
        """Data and control dependencies, in one stream."""
        if self.after:
            return list(self.deps) + list(self.after)
        return self.deps


def _task_link(
    machine: Topology, name: str, src: Optional[int], dst: Optional[int]
) -> Link:
    """The link comm task ``name`` crosses on ``machine`` (``link_between``),
    or :class:`SimulationError` naming the task when the machine has no such
    endpoints."""
    try:
        return machine.link_between(src, dst)
    except SimulationError as exc:
        raise SimulationError(f"comm task {name!r}: {exc}") from None


#: One task as lowering emits it: :class:`Task`'s fields, in order, in a
#: plain tuple (``Task(*row)`` rebuilds the task).
TaskRow = namedtuple("TaskRow", [f.name for f in fields(Task)])


@dataclass
class SimResult:
    """Outcome of simulating one training iteration."""

    iteration_time: float
    per_device_compute_time: Dict[int, float]
    per_device_comm_time: Dict[int, float]
    total_comm_bytes: float
    peak_memory: Dict[int, int] = field(default_factory=dict)
    oom: bool = False
    oom_devices: List[int] = field(default_factory=list)
    num_tasks: int = 0
    #: Time each device of the topology spent idle between iteration start
    #: and end — the pipeline-parallel "bubble" when the program is staged.
    #: Every topology device is reported, including devices that ran no
    #: compute at all (their idle time is the whole iteration), so staged
    #: programs occupying a subset of the machine don't under-report bubbles.
    per_device_idle_time: Dict[int, float] = field(default_factory=dict)
    #: Busy time per link key ("p2p:3", "cpu:m0", "net:m1", ...): how long
    #: each contention queue of the topology was occupied this iteration.
    per_link_busy_time: Dict[str, float] = field(default_factory=dict)

    def throughput(self, batch_size: int) -> float:
        """Training throughput in samples/second."""
        if self.oom or self.iteration_time <= 0:
            return 0.0
        return batch_size / self.iteration_time

    @property
    def compute_time(self) -> float:
        return max(self.per_device_compute_time.values(), default=0.0)

    @property
    def comm_time(self) -> float:
        return max(self.per_device_comm_time.values(), default=0.0)

    def comm_fraction(self) -> float:
        """Fraction of the iteration spent on the critical device's comm."""
        if self.iteration_time <= 0:
            return 0.0
        busiest = max(
            self.per_device_comm_time.values(), default=0.0
        )
        return min(1.0, busiest / self.iteration_time)

    def network_busy_time(self) -> float:
        """Aggregate busy time of the inter-machine links (0 on one machine)."""
        return sum(
            busy
            for key, busy in self.per_link_busy_time.items()
            if key.startswith("net:")
        )


# ---------------------------------------------------------------------------
# Dense task graphs — what lowering emits and the simulator replays
# ---------------------------------------------------------------------------
@dataclass
class CompiledTaskGraph:
    """A task graph as dense integer ids and parallel arrays, priced for one
    machine.

    :meth:`TaskGraphBuilder.build` produces it: task names become ids in
    topological order, every communication task's :class:`Link` is resolved
    against the topology and its transfer priced (``link.transfer_time``),
    and everything the event loop needs is folded into flat lists indexed by
    task id — so the per-iteration loop of
    :meth:`TaskGraphSimulator.run_compiled` touches no strings, no ``Task``
    objects, and no per-task dict lookups.  Aggregates that do not depend on
    scheduling (total communication volume, per-device compute busy time)
    are accumulated in topological order, the order the reference loop
    (``tests/support/sim_oracle.py``) uses, so results stay float-identical.
    """

    num_tasks: int
    #: Task names in topological order (id ``i`` is ``names[i]``).
    names: List[str]
    #: Ordering dependencies (data + control) of each task, as dense ids.
    deps: List[Tuple[int, ...]]
    #: Resource slot of each task: compute tasks occupy their device's slot,
    #: comm tasks their link's slot, in one merged namespace.
    slots: List[int]
    num_slots: int
    #: Occupancy of each task on its resource: the compute duration, or the
    #: priced transfer time (``link.transfer_time(comm_bytes)``).
    durations: List[float]
    #: Dense comm-accounting index of each task (-1 for compute tasks).
    comm_index: List[int]
    #: Per comm task (by comm index): owning device and link-busy index.
    comm_devices: List[int]
    comm_links: List[int]
    #: Link keys in first-use order (indexed by the link-busy index).
    link_keys: List[str]
    #: Schedule-independent aggregates, accumulated in topo order.
    total_comm_bytes: float
    per_device_compute_time: Dict[int, float]


class TaskGraphBuilder:
    """A task graph as lowering emits it: one :class:`TaskRow` per task, in
    emission order.

    Lowering passes :meth:`add` rows instead of constructing ``Task``
    objects.  :meth:`build` interns names to ids in emission order, resolves
    each dependency edge with one dict lookup, sorts the integer graph with
    Kahn's algorithm (FIFO, the reference loop's tie-breaking), and
    permutes the rows into a :class:`CompiledTaskGraph` for one machine.

    The first sort seals the builder: from then on it is an immutable dense
    form that caches its topological sort, and its compiled form and that
    form's replay for the last machine it was built for, so every program
    sharing one builder — program-cache copies included — shares all
    three.  Adding a name twice replaces the earlier row in place, like
    assigning into a dict.
    """

    __slots__ = ("rows", "_index", "_sorted", "_compiled", "_replayed")

    def __init__(self) -> None:
        self.rows: List[TaskRow] = []
        self._index: Dict[str, int] = {}
        self._sorted: Optional[Tuple[Sequence[int], List[Tuple[int, ...]]]] = None
        self._compiled: Optional[Tuple[Topology, CompiledTaskGraph]] = None
        self._replayed: Optional[Tuple[CompiledTaskGraph, SimResult]] = None

    @classmethod
    def from_tasks(cls, tasks: Mapping[str, Task]) -> "TaskGraphBuilder":
        """A builder holding ``tasks`` under their keys, in iteration order."""
        builder = cls()
        for name, task in tasks.items():
            builder.add_task(task, name)
        return builder

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def add(
        self,
        name: str,
        device: int,
        kind: str = "compute",
        duration: float = 0.0,
        comm_bytes: float = 0.0,
        deps: Sequence[str] = (),
        after: Sequence[str] = (),
        src_device: Optional[int] = None,
        dst_device: Optional[int] = None,
    ) -> None:
        """Append one task; the arguments are :class:`Task`'s fields."""
        if self._sorted is not None:
            raise SimulationError(
                f"cannot add task {name!r}: the task graph is already built"
            )
        row = TaskRow._make((
            name, device, kind, duration, comm_bytes, tuple(deps),
            tuple(after), src_device, dst_device,
        ))
        rows = self.rows
        index = self._index.setdefault(name, len(rows))
        if index == len(rows):
            rows.append(row)
        else:
            rows[index] = row

    def add_task(self, task: Task, name: Optional[str] = None) -> None:
        """Append ``task``, under ``name`` when given (its dict key)."""
        self.add(**{**vars(task), "name": task.name if name is None else name})

    def edited(self, tasks: Mapping[str, Task]) -> "TaskGraphBuilder":
        """A new builder with this graph's rows, each of ``tasks`` replacing
        the row of the same name in place or appended after the rest."""
        builder = TaskGraphBuilder()
        builder.rows = list(self.rows)
        builder._index = dict(self._index)
        for name, task in tasks.items():
            builder.add_task(task, name)
        return builder

    @property
    def tasks(self) -> "TaskView":
        """Read-only ``name -> Task`` view, in emission order."""
        return TaskView(self)

    # ----------------------------------------------------------------- build
    def build(self, machine: Topology) -> CompiledTaskGraph:
        """The graph compiled for ``machine``.

        The graph is sorted once; links are resolved and transfers priced
        once per machine — a repeat build for an equal machine returns the
        cached result.  Raises :class:`SimulationError` on a missing
        dependency, a cycle, an endpoint the machine does not have or an
        unknown task kind.
        """
        cached = self._compiled
        if cached is not None and (cached[0] is machine or cached[0] == machine):
            return cached[1]
        with perf.stage("sim.compile"):
            compiled = self._compile(machine)
        self._compiled = (machine, compiled)
        return compiled

    def replay(self, simulator: "TaskGraphSimulator") -> SimResult:
        """The event-loop result of this graph on ``simulator``'s machine,
        without memory verdicts.

        The graph is replayed (:meth:`TaskGraphSimulator.run_compiled`) once
        per compiled form and the result cached next to it, so callers must
        copy what they hand out instead of editing it.
        """
        compiled = compile_task_graph(self, simulator.machine)
        replayed = self._replayed
        if replayed is not None and replayed[0] is compiled:
            return replayed[1]
        result = simulator.run_compiled(compiled, check_memory=False)
        self._replayed = (compiled, result)
        return result

    def sort(self) -> Tuple[Sequence[int], List[Tuple[int, ...]]]:
        """Row indices in topological order, and each sorted task's ordering
        dependencies as positions in that order (computed once, cached).

        Raises :class:`SimulationError` when a dependency names no task or
        the ordering edges contain a cycle."""
        if self._sorted is not None:
            return self._sorted
        lookup = self._index.__getitem__
        rows = self.rows
        n = len(rows)
        indegree = [0] * n
        consumers: List[List[int]] = [[] for _ in range(n)]
        dep_ids: List[Tuple[int, ...]] = [()] * n
        for i, row in enumerate(rows):
            deps = row.deps + row.after if row.after else row.deps
            if not deps:
                continue
            try:
                ids = dep_ids[i] = tuple(map(lookup, deps))
            except KeyError:
                missing = next(dep for dep in deps if dep not in self._index)
                raise SimulationError(
                    f"task {row.name!r} depends on missing task {missing!r}"
                ) from None
            indegree[i] = len(ids)
            for j in ids:
                consumers[j].append(i)
        order = [i for i in range(n) if not indegree[i]]
        for i in order:  # FIFO: the list grows while it is walked
            for consumer in consumers[i]:
                indegree[consumer] -= 1
                if not indegree[consumer]:
                    order.append(consumer)
        if len(order) != n:
            raise SimulationError("task graph contains a cycle")
        position = [0] * n
        for k, i in enumerate(order):
            position[i] = k
        at = position.__getitem__
        # The order is kept as a machine-int array: a program holds its sort
        # for as long as it lives.
        self._sorted = (
            array("i", order), [tuple(map(at, dep_ids[i])) for i in order]
        )
        return self._sorted

    def _compile(self, machine: Topology) -> CompiledTaskGraph:
        order, deps = self.sort()
        rows = self.rows
        n = len(order)
        names: List[str] = [""] * n
        slots: List[int] = [0] * n
        durations: List[float] = [0.0] * n
        comm_index: List[int] = [-1] * n
        comm_devices: List[int] = []
        comm_links: List[int] = []
        link_keys: List[str] = []

        device_slot: Dict[int, int] = {}
        link_slot: Dict[str, int] = {}
        link_busy_index: Dict[str, int] = {}
        # One resolution per distinct (src, dst) pair of this build.
        links: Dict[Tuple[Optional[int], Optional[int]], Link] = {}
        num_slots = 0
        total_comm_bytes = 0.0
        compute_busy: Dict[int, float] = {}

        for i, row in enumerate(map(rows.__getitem__, order)):
            name, device, kind, duration, comm_bytes, _, _, src, dst = row
            names[i] = name
            if kind == "compute":
                slot = device_slot.get(device)
                if slot is None:
                    slot = device_slot[device] = num_slots
                    num_slots += 1
                slots[i] = slot
                durations[i] = duration
                compute_busy[device] = compute_busy.get(device, 0.0) + duration
            elif kind == "comm":
                link = links.get((src, dst))
                if link is None:
                    link = links[src, dst] = _task_link(machine, name, src, dst)
                key = link.key
                slot = link_slot.get(key)
                if slot is None:
                    slot = link_slot[key] = num_slots
                    num_slots += 1
                slots[i] = slot
                durations[i] = link.transfer_time(comm_bytes)
                busy = link_busy_index.get(key)
                if busy is None:
                    busy = link_busy_index[key] = len(link_keys)
                    link_keys.append(key)
                comm_index[i] = len(comm_devices)
                comm_devices.append(device)
                comm_links.append(busy)
                total_comm_bytes += comm_bytes
            else:
                raise SimulationError(f"unknown task kind {kind!r}")

        return CompiledTaskGraph(
            num_tasks=n,
            names=names,
            deps=deps,
            slots=slots,
            num_slots=num_slots,
            durations=durations,
            comm_index=comm_index,
            comm_devices=comm_devices,
            comm_links=comm_links,
            link_keys=link_keys,
            total_comm_bytes=total_comm_bytes,
            per_device_compute_time=compute_busy,
        )


class TaskView(abc.Mapping):
    """Read-only ``name -> Task`` view of a :class:`TaskGraphBuilder`, in
    emission order — what ``LoweredProgram.tasks`` is.

    Length, iteration and membership read the builder's name index; an item
    read builds the ``Task`` from its row.  Tasks are values, not storage:
    a program holds only its rows and compiled form, so reading tasks (the
    verifier, debugging) costs time on access instead of memory for the
    program's lifetime.  There is no item assignment: edit a program with
    ``LoweredProgram.replace_tasks``.
    """

    __slots__ = ("graph",)

    def __init__(self, graph: TaskGraphBuilder):
        self.graph = graph

    def __len__(self) -> int:
        return len(self.graph.rows)

    def __iter__(self) -> Iterator[str]:
        return iter(self.graph._index)

    def __contains__(self, name: object) -> bool:
        return name in self.graph._index

    def __getitem__(self, name: str) -> Task:
        graph = self.graph
        return Task(*graph.rows[graph._index[name]])


def task_view(tasks: Union[TaskGraphBuilder, Mapping[str, Task]]) -> TaskView:
    """``tasks`` as a :class:`TaskView`: a view as is, a builder's own view,
    any other mapping fed through a new builder."""
    if isinstance(tasks, TaskView):
        return tasks
    if isinstance(tasks, TaskGraphBuilder):
        return TaskView(tasks)
    return TaskView(TaskGraphBuilder.from_tasks(tasks))


def compile_task_graph(
    tasks: Union[TaskGraphBuilder, Mapping[str, Task]], machine: Topology
) -> CompiledTaskGraph:
    """Feed ``tasks`` to a :class:`TaskGraphBuilder` and build it for
    ``machine``.  A builder or a program's task view builds its own (cached)
    dense form; any other mapping is fed to a new builder in iteration
    order."""
    return task_view(tasks).graph.build(machine)


def clear_compiled_cache() -> None:
    """A no-op, kept for callers that cleared a cache before cold
    measurements: compiled forms live on each program's own task graph,
    so there is no process-wide cache left to clear."""


class TaskGraphSimulator:
    """List-scheduling simulator for one machine or cluster.

    :meth:`run` — the entry point ``Executor.simulate`` uses — compiles its
    tasks (:func:`compile_task_graph`; a program's task view reuses the
    dense form cached on it) and replays them with :meth:`run_compiled`,
    once per dense form (:meth:`TaskGraphBuilder.replay`).
    """

    def __init__(self, machine: Topology):
        self.machine = machine

    def run(
        self,
        tasks: Union[TaskGraphBuilder, Mapping[str, Task]],
        *,
        peak_memory: Optional[Dict[int, int]] = None,
        check_memory: bool = True,
    ) -> SimResult:
        """Compile ``tasks`` for this machine and simulate them: timing
        plus memory verdicts.

        The timing is replayed once per dense form and machine; every call
        works out its own memory verdicts from ``peak_memory`` and
        ``check_memory`` and returns a fresh result.
        """
        timing = task_view(tasks).graph.replay(self)
        return self._finish_result(
            iteration_time=timing.iteration_time,
            compute_busy=dict(timing.per_device_compute_time),
            comm_busy=dict(timing.per_device_comm_time),
            link_busy=dict(timing.per_link_busy_time),
            total_comm_bytes=timing.total_comm_bytes,
            num_tasks=timing.num_tasks,
            peak_memory=peak_memory,
            check_memory=check_memory,
        )

    def run_compiled(
        self,
        compiled: CompiledTaskGraph,
        *,
        peak_memory: Optional[Dict[int, int]] = None,
        check_memory: bool = True,
    ) -> SimResult:
        """Replay a compiled task graph: the array-based event loop."""
        with perf.stage("sim.run"):
            n = compiled.num_tasks
            finish = [0.0] * n
            available = [0.0] * compiled.num_slots
            comm_busy = [0.0] * len(compiled.comm_devices)
            link_busy = [0.0] * len(compiled.link_keys)
            deps = compiled.deps
            slots = compiled.slots
            durations = compiled.durations
            comm_index = compiled.comm_index
            comm_links = compiled.comm_links

            for i in range(n):
                ready = 0.0
                for dep in deps[i]:
                    done = finish[dep]
                    if done > ready:
                        ready = done
                slot = slots[i]
                start = available[slot]
                if ready > start:
                    start = ready
                end = start + durations[i]
                available[slot] = end
                finish[i] = end
                j = comm_index[i]
                if j >= 0:
                    delta = end - start
                    comm_busy[j] += delta
                    link_busy[comm_links[j]] += delta

            iteration_time = max(finish, default=0.0)

            per_device_comm: Dict[int, float] = {}
            for j, device in enumerate(compiled.comm_devices):
                per_device_comm[device] = (
                    per_device_comm.get(device, 0.0) + comm_busy[j]
                )
            per_link = {
                key: link_busy[j] for j, key in enumerate(compiled.link_keys)
            }
            compute_busy = dict(compiled.per_device_compute_time)

            return self._finish_result(
                iteration_time=iteration_time,
                compute_busy=compute_busy,
                comm_busy=per_device_comm,
                link_busy=per_link,
                total_comm_bytes=compiled.total_comm_bytes,
                num_tasks=n,
                peak_memory=peak_memory,
                check_memory=check_memory,
            )

    # ------------------------------------------------------------- internals
    def _finish_result(
        self,
        *,
        iteration_time: float,
        compute_busy: Dict[int, float],
        comm_busy: Dict[int, float],
        link_busy: Dict[str, float],
        total_comm_bytes: float,
        num_tasks: int,
        peak_memory: Optional[Dict[int, int]],
        check_memory: bool,
    ) -> SimResult:
        """Memory verdicts and idle accounting of one simulation."""
        # Per-device idle time relative to the compute stream: the makespan
        # minus the time the device's stream was busy.  For staged execution
        # this is the pipeline bubble of each stage.  Every topology device
        # is reported — a device that ran nothing idled the whole iteration.
        idle_time = {
            device: max(0.0, iteration_time - compute_busy.get(device, 0.0))
            for device in range(self.machine.num_devices)
        }
        for device, busy in compute_busy.items():
            if device not in idle_time:
                idle_time[device] = max(0.0, iteration_time - busy)

        peak_memory = dict(peak_memory or {})
        oom_devices: List[int] = []
        if check_memory:
            for device_index, required in peak_memory.items():
                capacity = self.machine.device(device_index).memory_bytes
                if required > capacity:
                    oom_devices.append(device_index)

        return SimResult(
            iteration_time=iteration_time,
            per_device_compute_time=compute_busy,
            per_device_comm_time=comm_busy,
            total_comm_bytes=total_comm_bytes,
            peak_memory=peak_memory,
            oom=bool(oom_devices),
            oom_devices=sorted(oom_devices),
            num_tasks=num_tasks,
            per_device_idle_time=idle_time,
            per_link_busy_time=link_busy,
        )
