"""What freezing a program used to buy, now true of every program.

A lowered program's dense task graph is immutable once built and compiles
once per machine, so there is no explicit freeze step any more: repeat
simulations reuse the cached compiled form and its replay with no per-call
content work, give results identical to the first run, and an edited
program (a copy given a new task dict) never replays the stale graph of the
one it came from."""

from __future__ import annotations

import dataclasses

import pytest

from repro import compile as repro_compile
from repro import perf
from repro.models.mlp import build_mlp
from repro.runtime.core import Executor
from repro.sim.device import k80_8gpu_machine
from tests.support.sim_oracle import run_reference


@pytest.fixture(scope="module")
def compiled_mlp():
    graph = build_mlp(
        batch_size=8, input_dim=32, hidden_dim=64, num_layers=2, num_classes=16
    ).graph
    return repro_compile(graph, "tofu", k80_8gpu_machine(4))


class TestProgramFreeze:
    def test_frozen_simulation_matches_unfrozen(self, compiled_mlp):
        program = compiled_mlp.program
        executor = Executor()
        cold = executor.simulate(program)
        warm = executor.simulate(program)
        copied = executor.simulate(program.copy())
        reference = run_reference(
            program.machine, program.tasks,
            peak_memory=program.per_device_memory,
        )
        for result in (warm, copied, reference):
            assert result.iteration_time == cold.iteration_time
            assert result.per_device_idle_time == cold.per_device_idle_time
            assert result.oom == cold.oom
            assert result == cold

    def test_frozen_run_skips_the_fingerprint_stage(self, compiled_mlp):
        program = compiled_mlp.program
        executor = Executor()
        timer = perf.StageTimer()
        with perf.activation(timer):
            executor.simulate(program)
            executor.simulate(program)
            executor.simulate(program.copy())
        # The compile that made the program compiled and replayed its dense
        # form once: repeat runs neither compile nor replay it again, and
        # hash nothing.
        assert timer.stage_calls("sim.compile") == 0
        assert timer.stage_calls("sim.run") == 0
        assert timer.stage_calls("sim.fingerprint") == 0

    def test_reassigned_tasks_bypass_a_stale_handle(self, compiled_mlp):
        """A copy given a new task dict is how a program is edited; the
        edited program must not replay the compiled form cached for the
        original."""
        program = compiled_mlp.program
        executor = Executor()
        before = executor.simulate(program)
        edited = dataclasses.replace(program.copy(), tasks={
            name: dataclasses.replace(task, duration=task.duration * 2)
            for name, task in program.tasks.items()
        })
        assert edited.task_graph is not program.task_graph
        assert edited.dense_form() is not program.dense_form()
        after = executor.simulate(edited)
        assert after.iteration_time > before.iteration_time
        assert executor.simulate(program) == before

