"""What freezing a program used to buy, now true of every program.

A lowered program's dense task graph is immutable once built and compiles
once per machine, so there is no explicit freeze step any more: repeat
simulations replay the cached compiled form with no per-call content work,
give results identical to the first run, and an edited program (through
``replace_tasks``) never replays the stale graph of the one it came from."""

from __future__ import annotations

import dataclasses

import pytest

from repro import compile as repro_compile, perf
from repro.models.mlp import build_mlp
from repro.runtime.core import Executor, ExecutorConfig
from repro.sim.engine import TaskGraphSimulator


@pytest.fixture(scope="module")
def compiled_mlp():
    graph = build_mlp(
        batch_size=8, input_dim=32, hidden_dim=64, num_layers=2, num_classes=16
    ).graph
    return repro_compile(graph, "tofu", num_workers=4)


class TestProgramFreeze:
    def test_frozen_simulation_matches_unfrozen(self, compiled_mlp):
        program = compiled_mlp.program
        executor = Executor()
        cold = executor.simulate(program)
        warm = executor.simulate(program)
        copied = executor.simulate(program.copy())
        reference = TaskGraphSimulator(program.machine).run_reference(
            program.tasks, peak_memory=program.per_device_memory
        )
        for result in (warm, copied, reference):
            assert result.iteration_time == cold.iteration_time
            assert result.per_device_idle_time == cold.per_device_idle_time
            assert result.oom == cold.oom
            assert result == cold

    def test_frozen_run_skips_the_fingerprint_stage(self, compiled_mlp):
        program = compiled_mlp.program
        executor = Executor(ExecutorConfig(profile=True))
        timer = executor.profile_timer
        executor.simulate(program)
        compiles = timer.stage_calls("sim.compile")
        assert compiles <= 1
        executor.simulate(program)
        executor.simulate(program.copy())
        # Repeat runs replay the cached compiled form: no new compile, and
        # no per-call content hash of the task graph at all.
        assert timer.stage_calls("sim.compile") == compiles
        assert timer.stage_calls("sim.run") == 3
        assert timer.stage_calls("sim.fingerprint") == 0

    def test_reassigned_tasks_bypass_a_stale_handle(self, compiled_mlp):
        """``replace_tasks`` is how a program is edited; the edited program
        must not replay the compiled form cached for the original."""
        program = compiled_mlp.program
        executor = Executor()
        before = executor.simulate(program)
        edited = program.replace_tasks({
            name: dataclasses.replace(task, duration=task.duration * 2)
            for name, task in program.tasks.items()
        })
        assert edited.task_graph is not program.task_graph
        assert edited.dense_form() is not program.dense_form()
        after = executor.simulate(edited)
        assert after.iteration_time > before.iteration_time
        assert executor.simulate(program) == before


class TestPerfIsolation:
    def test_thread_local_sinks_do_not_cross_threads(self, compiled_mlp):
        """A worker thread's active timer must not leak into another's."""
        import threading

        program = compiled_mlp.program
        timers = {}

        def worker(name):
            executor = Executor(ExecutorConfig(profile=True))
            executor.simulate(program)
            timers[name] = executor.profile_timer

        threads = [
            threading.Thread(target=worker, args=(f"t{i}",)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for timer in timers.values():
            # Each thread saw exactly its own simulate call.
            assert timer.stage_calls("sim.run") == 1
        # This thread's sink stayed untouched.
        assert perf.active_timer() is None
