"""The frozen ("trusted immutable") program handle.

Freezing a lowered program computes the task-graph fingerprint once and
reuses it, so warm simulations skip the per-call content hash — results
must stay identical to the unfrozen path, and thawing must restore the
always-fingerprint safety."""

from __future__ import annotations

import dataclasses

import pytest

from repro import compile as repro_compile, perf
from repro.models.mlp import build_mlp
from repro.runtime.core import Executor, ExecutorConfig
from repro.sim.engine import FrozenTaskGraph, TaskGraphSimulator


@pytest.fixture(scope="module")
def compiled_mlp():
    graph = build_mlp(
        batch_size=8, input_dim=32, hidden_dim=64, num_layers=2, num_classes=16
    ).graph
    return repro_compile(graph, "tofu", num_workers=4)


class TestFrozenTaskGraph:
    def test_fingerprint_is_computed_once(self, compiled_mlp):
        frozen = FrozenTaskGraph(compiled_mlp.program.tasks)
        first = frozen.fingerprint
        assert frozen.fingerprint is first

    def test_frozen_matches_plain_fingerprint(self, compiled_mlp):
        from repro.sim.engine import task_graph_fingerprint

        tasks = compiled_mlp.program.tasks
        assert FrozenTaskGraph(tasks).fingerprint == task_graph_fingerprint(
            tasks
        )

    def test_simulator_accepts_a_frozen_handle(self, compiled_mlp):
        program = compiled_mlp.program
        sim = TaskGraphSimulator(program.machine)
        plain = sim.run(program.tasks)
        frozen = sim.run(FrozenTaskGraph(program.tasks))
        assert frozen.iteration_time == plain.iteration_time
        assert frozen.oom == plain.oom


class TestProgramFreeze:
    def test_freeze_is_explicit_and_reversible(self, compiled_mlp):
        program = compiled_mlp.program
        assert not program.frozen
        assert program.simulation_tasks is program.tasks
        try:
            assert program.freeze() is program
            assert program.frozen
            handle = program.simulation_tasks
            assert isinstance(handle, FrozenTaskGraph)
            assert handle.tasks is program.tasks
        finally:
            assert program.thaw() is program
        assert not program.frozen
        assert program.simulation_tasks is program.tasks

    def test_frozen_simulation_matches_unfrozen(self, compiled_mlp):
        program = compiled_mlp.program
        executor = Executor()
        cold = executor.simulate(program)
        try:
            program.freeze()
            warm = executor.simulate(program)
        finally:
            program.thaw()
        assert warm.iteration_time == cold.iteration_time
        assert warm.per_device_idle_time == cold.per_device_idle_time
        assert warm.oom == cold.oom

    def test_frozen_run_skips_the_fingerprint_stage(self, compiled_mlp):
        program = compiled_mlp.program
        executor = Executor(ExecutorConfig(profile=True))
        timer = executor.profile_timer
        executor.simulate(program)
        assert timer.stage_calls("sim.fingerprint") == 1
        try:
            program.freeze()
            executor.simulate(program)
            executor.simulate(program)
            # Frozen runs reuse the precomputed fingerprint: no new calls.
            assert timer.stage_calls("sim.fingerprint") == 1
        finally:
            program.thaw()
        executor.simulate(program)
        assert timer.stage_calls("sim.fingerprint") == 2

    def test_freeze_rewraps_a_replaced_task_dict(self, compiled_mlp):
        program = compiled_mlp.program
        try:
            program.freeze()
            first = program.simulation_tasks
            # Replacing the dict (not mutating it) and re-freezing must
            # produce a fresh handle over the new dict.
            program.tasks = dict(program.tasks)
            program.freeze()
            second = program.simulation_tasks
            assert second is not first
            assert second.tasks is program.tasks
        finally:
            program.thaw()

    def test_reassigned_tasks_bypass_a_stale_handle(self, compiled_mlp):
        """Reassigning ``tasks`` is how a program is edited; a handle frozen
        over the old dict must not keep replaying the old graph."""
        program = compiled_mlp.program
        original = program.tasks
        executor = Executor()
        before = executor.simulate(program)
        try:
            program.freeze()
            program.tasks = {
                name: dataclasses.replace(task, duration=task.duration * 2)
                for name, task in original.items()
            }
            assert not program.frozen
            assert program.simulation_tasks is program.tasks
            after = executor.simulate(program)
            assert after.iteration_time > before.iteration_time
        finally:
            program.tasks = original
            program.thaw()


class TestCompiledModelFreeze:
    def test_model_freeze_freezes_the_program(self, compiled_mlp):
        try:
            assert compiled_mlp.freeze() is compiled_mlp
            assert compiled_mlp.program.frozen
        finally:
            compiled_mlp.program.thaw()

    def test_metadata_only_model_freeze_is_a_noop(self, tmp_path, compiled_mlp):
        from repro.compiler import CompiledModel

        path = str(tmp_path / "model.json")
        compiled_mlp.save(path)
        reloaded = CompiledModel.load(path)
        assert reloaded.program is None
        assert reloaded.freeze() is reloaded


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
