"""A warm compile does no work proportional to the model.

After a cold ``repro.compile``, the plan is frozen in the plan cache with
its signature stored on it, the graph carries its own signature, and the
program in the program cache shares a dense form that has been compiled
and replayed once.  A warm compile of the same request then serialises no
graph and no plan and replays no task; it only works out the memory
verdicts from the returned program's own memory report.
"""

from __future__ import annotations

import copy
import dataclasses
import sys

import pytest

import repro
from repro.graph.serialization import graph_to_dict
from repro.partition.plan import plan_to_dict
from repro.planner import Planner, PlannerConfig
from repro.runtime import Executor, ExecutorConfig
from repro.sim.device import k80_8gpu_machine
from repro.sim.engine import TaskGraphSimulator
from tests.support.sim_oracle import run_reference

MACHINE = k80_8gpu_machine(4)


@pytest.fixture
def calls(monkeypatch):
    """Calls of each model-sized step a warm compile must skip, by name.

    The codecs are counted in every ``repro`` module that binds them, so a
    call through any import path is seen.
    """
    counts = {"plan_to_dict": 0, "graph_to_dict": 0, "run_compiled": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name, original in (
        ("plan_to_dict", plan_to_dict),
        ("graph_to_dict", graph_to_dict),
    ):
        wrapped = counting(name, original)
        for module in list(sys.modules.values()):
            if (
                getattr(module, "__name__", "").startswith("repro")
                and getattr(module, name, None) is original
            ):
                monkeypatch.setattr(module, name, wrapped)
    monkeypatch.setattr(
        TaskGraphSimulator,
        "run_compiled",
        counting("run_compiled", TaskGraphSimulator.run_compiled),
    )
    return counts


@pytest.fixture
def compile_rnn(rnn_bundle):
    """``compile()`` of one tofu request against private plan and program
    caches, so the first call is cold whatever ran before."""
    planner = Planner(PlannerConfig(cache_capacity=4))
    executor = Executor(ExecutorConfig(program_cache_capacity=4))

    def compile():
        return repro.compile(
            rnn_bundle.graph, "tofu", MACHINE, planner=planner, executor=executor
        )

    compile.executor = executor
    return compile


def _reference(program, check_memory=True):
    """An uncached simulation of ``program`` (the per-dict reference loop)."""
    return run_reference(
        program.machine,
        dict(program.tasks),
        peak_memory=program.per_device_memory,
        check_memory=check_memory,
    )


def test_a_warm_compile_does_no_work(compile_rnn, calls):
    cold = compile_rnn()
    assert calls["run_compiled"] == 1
    calls.update(dict.fromkeys(calls, 0))
    warm = compile_rnn()
    assert calls == {"plan_to_dict": 0, "graph_to_dict": 0, "run_compiled": 0}
    assert warm.plan is cold.plan
    assert warm.report.result == cold.report.result
    assert warm.report.summary() == cold.report.summary()
    assert warm.to_dict() == cold.to_dict()
    assert compile_rnn.executor.program_cache.info()["hits"] == 1


def test_editing_a_returned_result_does_not_reach_the_next_compile(compile_rnn):
    cold = compile_rnn()
    expected = copy.deepcopy(cold.report.result)
    for model in (cold, compile_rnn()):
        result = model.report.result
        result.per_device_compute_time.clear()
        result.per_device_comm_time[0] = -1.0
        result.per_link_busy_time.clear()
        result.per_device_idle_time.clear()
        result.peak_memory[0] = 0
        result.oom_devices.append(99)
        result.iteration_time = -1.0
    assert compile_rnn().report.result == expected


def test_each_simulation_gets_its_own_memory_verdict(compile_rnn, calls):
    cold = compile_rnn()
    executor = compile_rnn.executor
    program = compile_rnn().program
    assert not cold.report.result.oom
    calls.update(dict.fromkeys(calls, 0))

    # A different check_memory, and an edited memory report, on the same
    # (already replayed) dense form.
    device = next(iter(program.per_device_memory))
    program.per_device_memory[device] = 1 << 60
    overflowing = executor.simulate(program)
    unchecked = executor.simulate(program, check_memory=False)
    assert overflowing == _reference(program)
    assert overflowing.oom and overflowing.oom_devices == [device]
    assert unchecked == _reference(program, check_memory=False)
    assert not unchecked.oom
    assert calls["run_compiled"] == 0

    # The edit stayed on that copy: the next compile's program is intact.
    assert compile_rnn().report.result == cold.report.result

    # Another machine compiles the dense form anew, so it replays anew.
    slow_links = dataclasses.replace(MACHINE, p2p_bandwidth=MACHINE.p2p_bandwidth / 4)
    result = executor.simulate(program, slow_links, check_memory=False)
    assert calls["run_compiled"] == 1
    assert result == run_reference(
        slow_links,
        dict(program.tasks),
        peak_memory=program.per_device_memory,
        check_memory=False,
    )
    assert result.iteration_time > cold.report.result.iteration_time
    assert executor.simulate(program) == overflowing
    assert calls["run_compiled"] == 2
    calls["run_compiled"] = 0

    # An edited copy has its own dense form, replayed once.
    slower = program.replace_tasks({
        name: dataclasses.replace(task, duration=task.duration * 2)
        for name, task in program.tasks.items()
        if task.kind == "compute"
    })
    result = executor.simulate(slower, check_memory=False)
    assert calls["run_compiled"] == 1
    assert result == _reference(slower, check_memory=False)
    assert result.iteration_time > cold.report.result.iteration_time
    assert executor.simulate(slower, check_memory=False) == result
    assert calls["run_compiled"] == 1
