"""The simulator's reference loop: the parity oracle and benchmark baseline.

:func:`run_reference` is the original string-keyed per-dict event loop,
kept verbatim.  It re-sorts the tasks and re-resolves every link on each
call; :meth:`repro.sim.engine.TaskGraphSimulator.run_compiled` must agree
with it float for float (``tests/sim/test_compiled_engine.py``), and
``benchmarks/bench_hotpath.py`` measures one against the other.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Mapping, Optional

from repro.errors import SimulationError
from repro.sim.device import Topology
from repro.sim.engine import SimResult, Task, TaskGraphSimulator, _task_link


def run_reference(
    machine: Topology,
    tasks: Mapping[str, Task],
    *,
    peak_memory: Optional[Dict[int, int]] = None,
    check_memory: bool = True,
) -> SimResult:
    """Simulate ``tasks`` on ``machine`` with the pre-compilation loop.

    Results are float-identical to :meth:`TaskGraphSimulator.run`; memory
    verdicts and idle accounting come from the simulator's own
    ``_finish_result``.
    """
    order = topo_order(tasks)

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
            link = _task_link(machine, name, task.src_device, task.dst_device)
            start = max(ready, link_available.get(link.key, 0.0))
            end = start + link.transfer_time(task.comm_bytes)
            link_available[link.key] = end
            link_busy[link.key] = link_busy.get(link.key, 0.0) + (end - start)
            comm_busy[task.device] = comm_busy.get(task.device, 0.0) + (end - start)
            total_comm_bytes += task.comm_bytes
        else:
            raise SimulationError(f"unknown task kind {task.kind!r}")
        finish[name] = end

    iteration_time = max(finish.values(), default=0.0)

    return TaskGraphSimulator(machine)._finish_result(
        iteration_time=iteration_time,
        compute_busy=compute_busy,
        comm_busy=comm_busy,
        link_busy=link_busy,
        total_comm_bytes=total_comm_bytes,
        num_tasks=len(tasks),
        peak_memory=peak_memory,
        check_memory=check_memory,
    )


def topo_order(tasks: Mapping[str, Task]) -> List[str]:
    """Task names in Kahn order (FIFO ties), the reference loop's order."""
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
