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

Lowering passes emit rows into a :class:`TaskGraphBuilder`.  A task's id is
its emission index and its dependencies are ids; names are kept for reading
only.  :meth:`~TaskGraphBuilder.build` sorts the integer graph into the dense form
(topological order, dependency positions, resource slots, pre-priced
transfer times) and :meth:`TaskGraphSimulator.run_compiled` replays it.  A
built graph caches its compiled form, and a program's task view the
replay, so repeat simulations of one program — and of every program-cache
copy sharing its view — neither sort nor replay it again; only the memory
verdicts are worked out per call.  A plain ``name -> Task`` dict enters through
:meth:`TaskGraphBuilder.from_tasks`, the one place a dependency name becomes
an id.

The original string-keyed per-dict event loop lives outside the package, in
``tests/support/sim_oracle.py`` (``run_reference``): the parity suite pins
this module float-identical to it across every registered execution
backend, and the hot-path benchmark measures one against the other.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import abc
from dataclasses import dataclass, field, replace
from itertools import groupby
from typing import (
    Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union,
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
    rows, and what callers hand to :func:`compile_task_graph`.  A task's
    dependencies are task names.  To edit a program, give a copy a new
    task dict: ``dataclasses.replace(program.copy(), tasks={**program.tasks,
    name: dataclasses.replace(task, ...)})``.

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
    """A task graph as lowering emits it: one row per task (a tuple in
    :class:`Task` field order), in emission order.  A task's id is its
    emission index.  Rows are plain tuples because the collector stops
    tracking a plain tuple of plain values once it has seen it, so a graph
    of a few hundred thousand rows is not walked again by every later full
    collection; a named tuple would be.

    Lowering passes :meth:`add` rows instead of constructing ``Task``
    objects; :meth:`add` returns the new row's id.  A row's ``deps`` and
    ``after`` are ids, as :meth:`add` returned them; a lowering that must
    wait on a row it has not emitted yet fills that id in itself.  Names
    are for reading: the task view turns ids back into names, and each name
    is one row's.  :meth:`build` sorts the integer graph with Kahn's
    algorithm (FIFO, the reference loop's tie-breaking) and permutes the
    rows into a :class:`CompiledTaskGraph` for one machine.

    The first sort seals the builder: from then on it is an immutable dense
    form that caches its topological sort, and its compiled form for the
    last machine it was built for, so every program sharing one builder —
    program-cache copies included — shares both.
    """

    __slots__ = ("rows", "_index", "_sorted", "_compiled")

    def __init__(self) -> None:
        self.rows: List[tuple] = []
        self._index: Dict[str, int] = {}
        self._sorted: Optional[Tuple[Sequence[int], List[Tuple[int, ...]]]] = None
        self._compiled: Optional[Tuple[Topology, CompiledTaskGraph]] = None

    @classmethod
    def from_tasks(cls, tasks: Mapping[str, Task]) -> "TaskGraphBuilder":
        """A builder holding ``tasks`` under their keys, in iteration order.

        The keys are numbered first, then every dependency name is mapped
        through that numbering.  Raises :class:`SimulationError` when a
        dependency names no task of ``tasks``."""
        id_of = {name: index for index, name in enumerate(tasks)}

        def ids(name: str, deps: Sequence[str]) -> Tuple[int, ...]:
            try:
                return tuple(map(id_of.__getitem__, deps))
            except KeyError:
                missing = next(dep for dep in deps if dep not in id_of)
                raise SimulationError(
                    f"task {name!r} depends on missing task {missing!r}"
                ) from None

        builder = cls()
        builder.extend([
            (
                name, task.device, task.kind, task.duration, task.comm_bytes,
                ids(name, task.deps), ids(name, task.after),
                task.src_device, task.dst_device,
            )
            for name, task in tasks.items()
        ])
        return builder

    def add(
        self,
        name: str,
        device: int,
        kind: str = "compute",
        duration: float = 0.0,
        comm_bytes: float = 0.0,
        deps: Sequence[int] = (),
        after: Sequence[int] = (),
        src_device: Optional[int] = None,
        dst_device: Optional[int] = None,
    ) -> int:
        """Append one task and return its id.  The arguments are
        :class:`Task`'s fields, except that ``deps`` and ``after`` are ids.
        Ids are checked by the sort: an id past the last row may still be
        added later."""
        if self._sorted is not None:
            raise SimulationError(
                f"cannot add task {name!r}: the task graph is already built"
            )
        rows = self.rows
        index = self._index.setdefault(name, len(rows))
        if index != len(rows):
            raise SimulationError(f"cannot add task {name!r}: the name is taken")
        rows.append((
            name, device, kind, duration, comm_bytes, tuple(deps), tuple(after),
            src_device, dst_device,
        ))
        return index

    def extend(self, rows: Sequence[tuple]) -> None:
        """Append ``rows``, the bulk form of :meth:`add` for rows built whole
        (copied from another graph, or a lane stamped once per device): each
        is a tuple in :class:`Task` field order, with a name no other task
        has and its dependencies as ids only (checked by the sort)."""
        if self._sorted is not None:
            raise SimulationError(
                "cannot add tasks: the task graph is already built"
            )
        start = len(self.rows)
        ids = dict(zip([row[0] for row in rows], range(start, start + len(rows))))
        if len(ids) != len(rows) or not self._index.keys().isdisjoint(ids):
            seen = set(self._index)
            for row in rows:
                if row[0] in seen:
                    raise SimulationError(
                        f"cannot copy task {row[0]!r}: the name is taken"
                    )
                seen.add(row[0])
        self._index.update(ids)
        self.rows.extend(rows)

    @property
    def tasks(self) -> "TaskView":
        """Read-only ``name -> Task`` view, in emission order."""
        return TaskView(self)

    def names_of(self, ids: Sequence[int]) -> Tuple[object, ...]:
        """Dependency ``ids`` as task names, for reading.  An id of no row
        stays as given."""
        rows = self.rows
        valid = range(len(rows))
        return tuple([rows[dep][0] if dep in valid else dep for dep in ids])

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

    def sort(self) -> Tuple[Sequence[int], List[Tuple[int, ...]]]:
        """Row indices in topological order, and each sorted task's ordering
        dependencies as positions in that order (computed once, cached).

        Raises :class:`SimulationError` when a dependency is not the id of a
        row, or the ordering edges contain a cycle."""
        if self._sorted is not None:
            return self._sorted
        rows = self.rows
        n = len(rows)
        indegree = [0] * n
        consumers: List[List[int]] = [[] for _ in range(n)]
        dep_ids: List[Tuple[int, ...]] = [()] * n
        try:
            for i, row in enumerate(rows):
                # The task's ordering dependencies: its deps (row field 5),
                # then its after (field 6).
                ids = row[5] + row[6] if row[6] else row[5]
                if ids:
                    dep_ids[i] = ids
                    indegree[i] = len(ids)
                    for j in ids:
                        consumers[j].append(i)
            if min(map(min, filter(None, dep_ids)), default=0) < 0:
                raise IndexError
        except (IndexError, TypeError):  # an id of no row, or not an id
            valid = range(n)
            name, dep = next(
                (row[0], dep)
                for row in rows
                for dep in row[5] + row[6]
                if dep not in valid
            )
            raise SimulationError(
                f"task {name!r} depends on {dep!r}, but the ids run 0..{n - 1}"
            ) from None
        order = [i for i in range(n) if not indegree[i]]
        for i in order:  # FIFO: the list grows while it is walked
            for consumer in consumers[i]:
                indegree[consumer] -= 1
                if not indegree[consumer]:
                    order.append(consumer)
        if len(order) != n:
            looped = [row[0] for i, row in enumerate(rows) if i in dep_ids[i]]
            raise SimulationError("task graph contains a cycle" + (
                f": task {looped[0]!r} depends on itself" if looped else ""
            ))
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
    read builds the ``Task`` from its row, its dependency ids turned back
    into names (:meth:`TaskGraphBuilder.names_of`).  Tasks are values, not
    storage: a program holds only its rows and compiled form, so reading
    tasks (debugging, the verifier's schedule check) costs time on access
    instead of memory for the program's lifetime.  There is no item
    assignment: edit a program by giving a copy a new task dict.  A view
    may hold a zero-argument emitter instead of a builder: the first
    read of :attr:`graph` (so of anything above) calls it once, under
    ``perf.stage("lower.emit")``, and keeps the builder it returns.

    A hybrid's view may hold a replica form ``(groups, width, emit)``: its
    rows are ``groups`` copies of the rows ``emit`` returns (a group on
    devices below ``width`` plus its all-reduce), copy ``g`` shifted ``g *
    width`` devices modulo ``groups * width``, which :meth:`replay` may use.
    """

    __slots__ = ("_graph", "replica", "_replayed")

    def __init__(
        self,
        graph: Union[TaskGraphBuilder, Callable[[], TaskGraphBuilder]],
        replica: Optional[Tuple[int, int, Callable[[], TaskGraphBuilder]]] = None,
    ):
        self._graph = graph
        self.replica = replica
        self._replayed: Optional[Tuple[Topology, SimResult]] = None

    @property
    def graph(self) -> TaskGraphBuilder:
        if not isinstance(self._graph, TaskGraphBuilder):
            with perf.stage("lower.emit"):
                self._graph = self._graph()
            self.replica = None  # its emitter would only keep group programs alive
        return self._graph

    def __len__(self) -> int:
        if self._replayed is not None:  # a replay counts the rows
            return self._replayed[1].num_tasks
        return len(self.graph.rows)

    def replay(self, simulator: "TaskGraphSimulator") -> SimResult:
        """The event-loop result on ``simulator``'s machine, without memory
        verdicts, cached on the view for the last machine: callers copy what
        they hand out instead of editing it."""
        machine = simulator.machine
        cached = self._replayed
        if cached is None or not (cached[0] is machine or cached[0] == machine):
            result = self.replica and _replica_replay(simulator, *self.replica)
            if result is None:
                compiled = compile_task_graph(self.graph, machine)
                result = simulator.run_compiled(compiled, check_memory=False)
            cached = self._replayed = (machine, result)
        return cached[1]

    def __iter__(self) -> Iterator[str]:
        return iter(self.graph._index)

    def __contains__(self, name: object) -> bool:
        return name in self.graph._index

    def __getitem__(self, name: str) -> Task:
        graph = self.graph
        name, device, kind, duration, comm_bytes, deps, after, src, dst = (
            graph.rows[graph._index[name]]
        )
        return Task(
            name, device, kind, duration, comm_bytes,
            graph.names_of(deps), graph.names_of(after), src, dst,
        )


def _replica_replay(
    simulator: "TaskGraphSimulator", groups: int, width: int, emit: Callable
) -> Optional[SimResult]:
    """A replica form's replay (see :class:`TaskView`) from one replay of the
    rows ``emit`` returns, or ``None`` unless every copy replays alike: on a
    machine of ``groups * width`` devices, each on its own devices and link
    queues, priced as group 0's.  No copy depends on another, so Kahn's FIFO
    sort of all rows visits them by level (longest-path depth), copies in
    turn within a level: the order all rows' replay sums the bytes in."""
    machine, total = simulator.machine, groups * width
    if machine.num_devices != total:
        return None
    graph = TaskView(emit).graph  # one group's rows, dropped after the replay
    compiled = compile_task_graph(graph, machine)
    # (copy, group 0's device or link key) -> the copy's.
    rename = {(g, d): d + g * width for g in range(groups) for d in range(width)}
    for src, dst in {(row[7], row[8]) for row in graph.rows if row[2] == "comm"}:
        link = machine.link_between(src, dst)
        for group in range(groups):
            moved = machine.link_between(*[
                end if end is None or end < 0 else (end + group * width) % total
                for end in (src, dst)
            ])
            if (replace(moved, key=link.key) != link
                    or rename.setdefault((group, link.key), moved.key) != moved.key):
                return None
    if len(set(rename.values())) != len(rename):
        return None

    timing = simulator.run_compiled(compiled, check_memory=False)
    perf.count("sim.replica")
    # The sort lists rows by level, so a row starts a new level exactly when
    # it depends on a row of the current one.
    starts = [0]
    for i, deps in enumerate(compiled.deps):
        if deps and max(deps) >= starts[-1]:
            starts.append(i)
    order, rows = graph.sort()[0], graph.rows
    comm_at = [i for i, j in enumerate(compiled.comm_index) if j >= 0]
    total_comm_bytes = 0.0
    for _, chunk in groupby(comm_at, lambda i: bisect_right(starts, i)):
        for nbytes in [rows[order[i]][4] for i in chunk] * groups:
            total_comm_bytes += nbytes

    def spread(values: Dict, firsts: List[int]) -> Dict:
        # ``one`` first met the keys of ``values`` at ``firsts``.
        ranked = sorted(
            (bisect_right(starts, i), g, i, key)
            for g in range(groups) for key, i in zip(values, firsts)
        )
        return {rename[g, key]: values[key] for _, g, _, key in ranked}

    # Each slot is first used where its device's compute or its link key is.
    firsts = [compiled.slots.index(slot) for slot in range(compiled.num_slots)]
    links = [i for i in firsts if compiled.comm_index[i] >= 0]
    comm = timing.per_device_comm_time
    return SimResult(
        timing.iteration_time,
        spread(timing.per_device_compute_time, [i for i in firsts if i not in links]),
        spread(comm, [comm_at[compiled.comm_devices.index(d)] for d in comm]),
        total_comm_bytes,
        num_tasks=groups * timing.num_tasks,
        per_link_busy_time=spread(timing.per_link_busy_time, links),
    )


def task_view(tasks: Union[TaskGraphBuilder, Mapping[str, Task], Callable]) -> TaskView:
    """``tasks`` as a :class:`TaskView`: a view as is, a builder's or an
    emitter's own view, any other mapping through
    :meth:`TaskGraphBuilder.from_tasks`."""
    if isinstance(tasks, TaskView):
        return tasks
    if isinstance(tasks, TaskGraphBuilder) or callable(tasks):
        return TaskView(tasks)
    return TaskView(TaskGraphBuilder.from_tasks(tasks))


def compile_task_graph(
    tasks: Union[TaskGraphBuilder, Mapping[str, Task]], machine: Topology
) -> CompiledTaskGraph:
    """Build ``tasks`` for ``machine``.  A builder or a program's task view
    builds its own (cached) dense form; any other mapping goes through
    :meth:`TaskGraphBuilder.from_tasks`, in iteration order."""
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
    once per task view and machine (:meth:`TaskView.replay`).
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

        The timing is replayed once per task view and machine; every call
        works out its own memory verdicts from ``peak_memory`` and
        ``check_memory`` and returns a fresh result.
        """
        timing = task_view(tasks).replay(self)
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
        oom_devices = (
            self.machine.over_capacity(peak_memory) if check_memory else []
        )

        return SimResult(
            iteration_time=iteration_time,
            per_device_compute_time=compute_busy,
            per_device_comm_time=comm_busy,
            total_comm_bytes=total_comm_bytes,
            peak_memory=peak_memory,
            oom=bool(oom_devices),
            oom_devices=oom_devices,
            num_tasks=num_tasks,
            per_device_idle_time=idle_time,
            per_link_busy_time=link_busy,
        )
