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

On a single machine the link set degenerates to exactly the two channels the
pre-cluster simulator modelled (per-device ``p2p`` queues plus one shared
``cpu`` queue), so single-machine results are bit-identical to the flat
model.

Two execution paths share one scheduling semantics:

* the **compiled core** — :func:`compile_task_graph` interns task names to
  dense integer ids (topological order, dependency id lists, resource
  slots, pre-priced transfer times) and
  :meth:`TaskGraphSimulator.run_compiled` replays the arrays;
  :meth:`TaskGraphSimulator.run` caches compiled graphs process-wide by
  content fingerprint so repeat simulations of one program skip the topo
  sort and dict churn entirely;
* the **reference loop** — :meth:`TaskGraphSimulator.run_reference`, the
  original string-keyed per-dict event loop, kept as the parity oracle and
  benchmark baseline.  The parity suite pins the two paths float-identical
  across every registered execution backend.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro import perf
from repro.errors import SimulationError
from repro.sim.device import ClusterSpec, Link, MachineSpec

HOST_DEVICE = -1

#: Channel names a comm task may carry when it does not reference an explicit
#: :class:`Link`: the destination device's PCI-e peer-to-peer link, the
#: machine-wide shared CPU link, or the destination machine's network NIC
#: (``"net"`` requires an explicit link on multi-machine topologies; on one
#: machine it has no meaning and is rejected at resolution time).
CHANNELS = ("p2p", "cpu", "net")


def validate_channel(task_name: str, channel: str) -> None:
    """The one channel validator: both the comm-emission pass and the
    simulator call this, so the error string (which enumerates the valid
    links) can never diverge between layers."""
    if channel not in CHANNELS:
        raise SimulationError(
            f"task {task_name!r} uses unknown channel {channel!r} "
            f"(known links: {', '.join(CHANNELS)})"
        )


def resolve_channel_link(
    topology: Union[MachineSpec, ClusterSpec], task_name: str, channel: str,
    device: int,
) -> Link:
    """Resolve a bare channel name to the :class:`Link` it denotes for a
    transfer owned by ``device`` on ``topology``."""
    validate_channel(task_name, channel)
    if channel == "cpu":
        return topology.host_link(max(device, 0))
    if channel == "p2p":
        return topology.p2p_link(device)
    # "net" has no implied endpoints; emitters must attach the resolved link.
    raise SimulationError(
        f"task {task_name!r} uses channel 'net' without a resolved link; "
        f"emit it through make_comm_task(topology=..., src=..., dst=...)"
    )


@dataclass(frozen=True)
class Task:
    """One schedulable unit — an immutable value.

    Tasks are frozen so that lowered programs can share them by reference
    (the program cache hands the same ``Task`` objects to every hit).  To
    edit a program, replace the task in its dict:
    ``program.tasks[name] = dataclasses.replace(task, duration=...)``.

    ``kind`` is ``"compute"`` (duration given directly) or ``"comm"``
    (duration derived from ``comm_bytes`` and the link bandwidth, plus the
    link latency for network hops).

    A comm task names its edge either by ``channel`` (legacy two-channel
    spelling, resolved against the topology at simulation time) or by an
    explicit ``link`` from the topology's resolution layer
    (:meth:`ClusterSpec.link_between`), which wins when present.

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
    channel: str = "p2p"  # "p2p" | "cpu" | "net"
    #: Both dependency fields accept any sequence; the lowering passes emit
    #: tuples so a task graph's content fingerprint can reuse them as-is.
    deps: Sequence[str] = ()
    after: Sequence[str] = ()
    link: Optional[Link] = None
    #: Transfer endpoints of a link-resolved comm task (global device
    #: indices); kept so programs cloned onto other device slices (the
    #: hybrid backend's replica groups) can re-resolve the link there.
    src_device: Optional[int] = None
    dst_device: Optional[int] = None
    #: Explicit transfer duration in seconds.  When set it replaces
    #: ``link.transfer_time(comm_bytes)`` — this is how a non-default cost
    #: model (or a replayed measured trace) prices communication; ``None``
    #: keeps the link-bandwidth arithmetic.  The link still provides the
    #: contention queue either way.
    comm_time: Optional[float] = None

    def ordering_deps(self) -> Iterable[str]:
        """Data and control dependencies, in one stream."""
        if self.after:
            return list(self.deps) + list(self.after)
        return self.deps


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
# Compiled task graphs — the simulator's hot-path representation
# ---------------------------------------------------------------------------
@dataclass
class CompiledTaskGraph:
    """A task graph lowered once to dense integer ids and parallel arrays.

    Compilation interns task names to ids in topological order, resolves
    every communication task's :class:`Link` against the topology, prices
    transfers (``link.transfer_time``), and folds everything the event loop
    needs into flat lists indexed by task id — so the per-iteration loop of
    :meth:`TaskGraphSimulator.run_compiled` touches no strings, no
    ``Task`` objects, and no per-task dict lookups.  Aggregates that do not
    depend on scheduling (total communication volume, per-device compute
    busy time) are accumulated at compile time in the same topological order
    the reference loop uses, so results stay float-identical.

    ``TaskGraphSimulator.run`` builds-and-caches one of these per
    (machine, task-graph fingerprint), which is what makes repeat
    simulations of the same program — ``auto`` sweeps, micro-batch
    schedules, ``CompiledModel.simulate()`` — skip the topo sort and the
    dict churn entirely.
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


def compile_task_graph(
    tasks: Dict[str, Task], machine: Union[MachineSpec, ClusterSpec]
) -> CompiledTaskGraph:
    """Lower ``tasks`` to a :class:`CompiledTaskGraph` for ``machine``.

    Raises the same :class:`SimulationError` diagnostics as the reference
    loop (missing dependencies, cycles, unknown channels or task kinds) —
    just at compile time instead of mid-simulation.
    """
    order = TaskGraphSimulator._topo_order(tasks)
    index = {name: i for i, name in enumerate(order)}

    n = len(order)
    names: List[str] = order
    deps: List[Tuple[int, ...]] = [()] * n
    slots: List[int] = [0] * n
    durations: List[float] = [0.0] * n
    comm_index: List[int] = [-1] * n
    comm_devices: List[int] = []
    comm_links: List[int] = []
    link_keys: List[str] = []

    device_slot: Dict[int, int] = {}
    link_slot: Dict[str, int] = {}
    link_busy_index: Dict[str, int] = {}
    num_slots = 0
    total_comm_bytes = 0.0
    compute_busy: Dict[int, float] = {}

    for i, name in enumerate(order):
        task = tasks[name]
        deps[i] = tuple(index[dep] for dep in task.ordering_deps())
        if task.kind == "compute":
            slot = device_slot.get(task.device)
            if slot is None:
                slot = device_slot[task.device] = num_slots
                num_slots += 1
            slots[i] = slot
            durations[i] = task.duration
            compute_busy[task.device] = (
                compute_busy.get(task.device, 0.0) + task.duration
            )
        elif task.kind == "comm":
            link = task.link
            if link is None:
                link = resolve_channel_link(machine, name, task.channel, task.device)
            slot = link_slot.get(link.key)
            if slot is None:
                slot = link_slot[link.key] = num_slots
                num_slots += 1
            slots[i] = slot
            durations[i] = (
                task.comm_time
                if task.comm_time is not None
                else link.transfer_time(task.comm_bytes)
            )
            busy = link_busy_index.get(link.key)
            if busy is None:
                busy = link_busy_index[link.key] = len(link_keys)
                link_keys.append(link.key)
            comm_index[i] = len(comm_devices)
            comm_devices.append(task.device)
            comm_links.append(busy)
            total_comm_bytes += task.comm_bytes
        else:
            raise SimulationError(f"unknown task kind {task.kind!r}")

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


class FrozenTaskGraph:
    """Opt-in "trusted immutable" handle over a task dict.

    :meth:`TaskGraphSimulator.run` fingerprints its task dict on *every* call
    so mutation between simulations is always caught — a safety that costs
    ~11 ms at 20k tasks and dominates the warm simulate path.  Freezing a
    task dict computes the fingerprint once and reuses it, trading that
    safety for speed: the caller asserts the dict will not change while the
    handle is alive.  Inserting, replacing or deleting a task behind a
    frozen handle silently replays the stale compiled graph — that is the
    contract, not a bug.
    """

    __slots__ = ("tasks", "_fingerprint")

    def __init__(self, tasks: Dict[str, Task]):
        self.tasks = tasks
        self._fingerprint: Optional[Tuple] = None

    @property
    def fingerprint(self) -> Tuple:
        if self._fingerprint is None:
            self._fingerprint = task_graph_fingerprint(self.tasks)
        return self._fingerprint


def task_graph_fingerprint(tasks: Dict[str, Task]) -> Tuple:
    """Content fingerprint of a task dict — everything that can change the
    compiled form or the simulation outcome (names, resources, durations,
    volumes, resolved links, both dependency streams, and iteration order,
    which breaks topological ties).

    This runs on *every* :meth:`TaskGraphSimulator.run` call — it is what
    makes caching compiled graphs safe against callers replacing tasks
    between simulations (the ablation sweeps rescale durations that way) —
    so it stays a single flat comprehension, and ``tuple()`` on the
    dependency fields is an identity no-op for pass-emitted tasks.
    """
    return tuple(
        [
            (
                name,
                task.device,
                task.kind,
                task.duration,
                task.comm_bytes,
                task.channel,
                task.link,
                tuple(task.deps),
                tuple(task.after),
                task.comm_time,
            )
            for name, task in tasks.items()
        ]
    )


def _machine_identity(machine: Union[MachineSpec, ClusterSpec]) -> str:
    """Content signature of a machine, computed once and cached on it.

    The compiled-graph cache used to key on ``id(machine)``, which made two
    content-equal machine objects (a cache-reconstructed program carries a
    freshly deserialised machine every time) miss each other's entries —
    the compile service's warm path paid a full topo sort per request.
    Machine specs are frozen dataclasses, so a content hash is stable;
    ``object.__setattr__`` smuggles the memo past ``frozen=True``.
    """
    signature = getattr(machine, "_content_signature", None)
    if signature is None:
        from repro.caching import machine_signature

        signature = machine_signature(machine)
        object.__setattr__(machine, "_content_signature", signature)
    return signature


class _CompiledCacheKey:
    """Cache key wrapping ``(machine signature, fingerprint)`` with a cached
    hash.

    Fingerprints of real programs run to tens of thousands of nested tuples;
    hashing one costs milliseconds and plain tuples recompute it on every
    dict operation.  Caching the hash keeps a warm :meth:`run` at exactly one
    fingerprint hash per call, and equality on a hit short-circuits on the
    interned per-task objects."""

    __slots__ = ("machine_id", "fingerprint", "_hash")

    def __init__(self, machine_id: str, fingerprint: Tuple):
        self.machine_id = machine_id
        self.fingerprint = fingerprint
        self._hash = hash((machine_id, fingerprint))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not _CompiledCacheKey:
            return NotImplemented
        return (
            self.machine_id == other.machine_id
            and self.fingerprint == other.fingerprint
        )


#: Process-wide cache of compiled task graphs, keyed by (machine content
#: signature, task-graph fingerprint) — content-equal machines share
#: entries even across distinct (e.g. freshly deserialised) objects.
COMPILED_CACHE_CAPACITY = 32
_COMPILED_CACHE: "OrderedDict[_CompiledCacheKey, Tuple[object, CompiledTaskGraph]]" = (
    OrderedDict()
)
_COMPILED_STATS = {"hits": 0, "misses": 0, "compiles": 0}


def compiled_cache_info() -> Dict[str, int]:
    """Hit/miss/compile counters and current size of the compiled-graph
    cache.  ``compiles`` counts topo sorts: one per unique (machine,
    program), no matter how many times the program is simulated."""
    return {**_COMPILED_STATS, "size": len(_COMPILED_CACHE)}


def clear_compiled_cache() -> None:
    """Empty the compiled-graph cache and reset its counters (test hook)."""
    _COMPILED_CACHE.clear()
    _COMPILED_STATS.update({"hits": 0, "misses": 0, "compiles": 0})


class TaskGraphSimulator:
    """List-scheduling simulator for one machine or cluster.

    :meth:`run` — the production entry point — compiles the task dict to a
    :class:`CompiledTaskGraph` (cached process-wide by content fingerprint)
    and replays it with :meth:`run_compiled`.  :meth:`run_reference` keeps
    the original string-keyed per-dict event loop; the parity suite pins
    the two paths float-identical across every execution backend, and the
    hot-path benchmark measures one against the other.
    """

    def __init__(self, machine: Union[MachineSpec, ClusterSpec]):
        self.machine = machine

    # ------------------------------------------------------------- compiled
    def compiled(
        self, tasks: Union[Dict[str, Task], FrozenTaskGraph]
    ) -> CompiledTaskGraph:
        """The cached compiled form of ``tasks`` on this machine.

        A :class:`FrozenTaskGraph` reuses its precomputed fingerprint — the
        warm path then skips the per-call content hash entirely.
        """
        if isinstance(tasks, FrozenTaskGraph):
            fingerprint = tasks.fingerprint
            tasks = tasks.tasks
        else:
            with perf.stage("sim.fingerprint"):
                fingerprint = task_graph_fingerprint(tasks)
        key = _CompiledCacheKey(_machine_identity(self.machine), fingerprint)
        # pop + reinsert is the one-hash spelling of an LRU touch: the pop
        # pays the (cached) hash and one structural compare, the reinsert
        # lands in the freed slot.
        entry = _COMPILED_CACHE.pop(key, None)
        if entry is not None:
            _COMPILED_CACHE[key] = entry
            _COMPILED_STATS["hits"] += 1
            perf.count("sim.compiled_cache_hit")
            return entry[1]
        _COMPILED_STATS["misses"] += 1
        perf.count("sim.compiled_cache_miss")
        with perf.stage("sim.compile"):
            compiled = compile_task_graph(tasks, self.machine)
        _COMPILED_STATS["compiles"] += 1
        _COMPILED_CACHE[key] = (self.machine, compiled)
        while len(_COMPILED_CACHE) > COMPILED_CACHE_CAPACITY:
            _COMPILED_CACHE.popitem(last=False)
        return compiled

    def run(
        self,
        tasks: Union[Dict[str, Task], FrozenTaskGraph],
        *,
        peak_memory: Optional[Dict[int, int]] = None,
        check_memory: bool = True,
    ) -> SimResult:
        """Simulate ``tasks`` and return timing plus memory verdicts.

        Accepts a plain task dict (fingerprinted on every call, so mutations
        are always caught) or a :class:`FrozenTaskGraph` (fingerprint
        computed once — the trusted-immutable fast path)."""
        compiled = self.compiled(tasks)
        return self.run_compiled(
            compiled, peak_memory=peak_memory, check_memory=check_memory
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

    # ------------------------------------------------------------ reference
    def run_reference(
        self,
        tasks: Dict[str, Task],
        *,
        peak_memory: Optional[Dict[int, int]] = None,
        check_memory: bool = True,
    ) -> SimResult:
        """The pre-compilation per-dict event loop, kept verbatim.

        Results are float-identical to :meth:`run`; this path exists as the
        parity oracle and the benchmark baseline, and it re-sorts and
        re-resolves links on every call.
        """
        order = self._topo_order(tasks)

        device_available: Dict[int, float] = {}
        link_available: Dict[str, float] = {}
        link_busy: Dict[str, float] = {}
        finish: Dict[str, float] = {}
        compute_busy: Dict[int, float] = {}
        comm_busy: Dict[int, float] = {}
        total_comm_bytes = 0.0

        for name in order:
            task = tasks[name]
            ready = 0.0
            for dep in task.ordering_deps():
                if dep not in finish:
                    raise SimulationError(
                        f"task {name!r} depends on unknown/unfinished task {dep!r}"
                    )
                ready = max(ready, finish[dep])

            if task.kind == "compute":
                start = max(ready, device_available.get(task.device, 0.0))
                end = start + task.duration
                device_available[task.device] = end
                compute_busy[task.device] = (
                    compute_busy.get(task.device, 0.0) + task.duration
                )
            elif task.kind == "comm":
                link = task.link
                if link is None:
                    link = resolve_channel_link(
                        self.machine, name, task.channel, task.device
                    )
                start = max(ready, link_available.get(link.key, 0.0))
                transfer = (
                    task.comm_time
                    if task.comm_time is not None
                    else link.transfer_time(task.comm_bytes)
                )
                end = start + transfer
                link_available[link.key] = end
                link_busy[link.key] = link_busy.get(link.key, 0.0) + (end - start)
                comm_busy[task.device] = comm_busy.get(task.device, 0.0) + (end - start)
                total_comm_bytes += task.comm_bytes
            else:
                raise SimulationError(f"unknown task kind {task.kind!r}")
            finish[name] = end

        iteration_time = max(finish.values(), default=0.0)

        return self._finish_result(
            iteration_time=iteration_time,
            compute_busy=compute_busy,
            comm_busy=comm_busy,
            link_busy=link_busy,
            total_comm_bytes=total_comm_bytes,
            num_tasks=len(tasks),
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
        """Memory verdicts and idle accounting shared by both loops."""
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
                if device_index == HOST_DEVICE:
                    capacity = self.machine.cpu_memory
                else:
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

    @staticmethod
    def _topo_order(tasks: Dict[str, Task]) -> List[str]:
        indegree: Dict[str, int] = {name: 0 for name in tasks}
        consumers: Dict[str, List[str]] = {name: [] for name in tasks}
        for name, task in tasks.items():
            for dep in task.ordering_deps():
                if dep not in tasks:
                    raise SimulationError(
                        f"task {name!r} depends on missing task {dep!r}"
                    )
                indegree[name] += 1
                consumers[dep].append(name)
        ready = deque(name for name, deg in indegree.items() if deg == 0)
        order: List[str] = []
        while ready:
            name = ready.popleft()
            order.append(name)
            for consumer in consumers[name]:
                indegree[consumer] -= 1
                if indegree[consumer] == 0:
                    ready.append(consumer)
        if len(order) != len(tasks):
            raise SimulationError("task graph contains a cycle")
        return order
