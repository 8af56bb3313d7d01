"""Profiling layer: stage timers thread through compile/lower/simulate, and
a fully warm ``repro.compile`` skips every planning and lowering pass.

The warm-skip property: with the plan cache and the program cache hot (a
program-cache hit shares the cached program's dense task graph, already
compiled and replayed for the machine), a repeat compile does no work
proportional to the model — the profile shows nothing from ``pass.*`` /
``lower.*`` / ``planner.search.*`` / ``sim.compile`` / ``sim.run``.
"""

from __future__ import annotations

import json
import time

import pytest

import repro
from repro import perf
from repro.runtime import Executor, ExecutorConfig
from repro.sim.device import k80_8gpu_machine


def test_stage_timer_records_and_snapshots():
    timer = perf.StageTimer()
    with perf.activation(timer):
        with perf.stage("pass.demo"):
            pass
        perf.count("demo.counter")
        perf.count("demo.counter", 2)
    assert timer.stage_calls("pass.demo") == 1
    assert timer.counter("demo.counter") == 3
    snapshot = timer.snapshot()
    assert json.loads(json.dumps(snapshot)) == snapshot  # JSON-serialisable


def test_a_stage_nested_in_itself_records_once():
    """Every spelling of a stage opened inside an open stage of the same name
    records nothing: the outer call already counts that time."""
    timer = perf.StageTimer()

    @perf.timed("pass.demo")
    def inner():
        with perf.stage("pass.demo"):
            pass

    with perf.activation(timer):
        with timer.stage("pass.demo"):
            inner()
        inner()
    assert timer.stage_calls("pass.demo") == 2


def test_hybrid_emission_is_one_lower_emit_call(mlp_bundle):
    """A hybrid program emits its inner program's rows inside its own
    ``lower.emit``; the stage counts that once, within the wall time."""
    timer = perf.StageTimer()
    executor = Executor(ExecutorConfig(cache_programs=False))
    start = time.perf_counter()
    with perf.activation(timer):
        repro.compile(mlp_bundle.graph, "dp:2/tofu", executor=executor)
    wall = time.perf_counter() - start
    assert timer.stage_calls("lower.emit") == 1
    assert timer.seconds["lower.emit"] <= wall


def test_inactive_by_default():
    """Without an activated timer, stages and counters are no-ops — the hot
    path pays nothing when profiling is off."""
    perf.count("orphan.counter")
    with perf.stage("orphan.stage"):
        pass
    assert perf.active_timer() is None


def test_nested_activation_none_keeps_previous_sink():
    timer = perf.StageTimer()
    with perf.activation(timer):
        with perf.activation(None):  # an unprofiled block nested inside
            perf.count("kept")
    assert timer.counter("kept") == 1


def test_executor_profile_captures_lowering_stages(mlp_bundle):
    timer = perf.StageTimer()
    with perf.activation(timer):
        Executor().lower(
            mlp_bundle.graph, machine=k80_8gpu_machine(4), backend="pipeline",
            backend_options={"num_stages": 2, "num_microbatches": 4},
        )
    snapshot = timer.snapshot()
    assert "lower.pipeline" in snapshot["stages"]
    assert any(name.startswith("pass.") for name in snapshot["stages"])


@pytest.mark.parametrize("strategy", ["pipeline:2:1f1b:4/tofu"])
def test_warm_compile_skips_every_pass(mlp_bundle, strategy):
    """Cold compile runs planner search, lowering passes, and a simulator
    compile; the warm repeat is cache hits — nothing else, not even the
    replay, which the cold compile left on the shared dense form."""
    machine = k80_8gpu_machine(4)

    # A private program cache: an equal plan searched by another test would
    # otherwise share the process-wide entry and turn the cold compile warm.
    executor = Executor(ExecutorConfig(program_cache_capacity=4))
    timer = perf.StageTimer()
    with perf.activation(timer):
        cold = repro.compile(
            mlp_bundle.graph, strategy, machine, executor=executor,
        )
    cold_stages = set(timer.snapshot()["stages"])
    assert any(s.startswith("lower.") for s in cold_stages)
    assert any(s.startswith("pass.") for s in cold_stages)
    assert "sim.compile" in cold_stages

    timer.clear()
    with perf.activation(timer):
        warm = repro.compile(
            mlp_bundle.graph, strategy, machine, executor=executor,
        )
    profile = timer.snapshot()
    warm_stages = set(profile["stages"])

    assert not any(s.startswith("pass.") for s in warm_stages)
    assert not any(s.startswith("lower.") for s in warm_stages)
    assert not any(s.startswith("planner.search") for s in warm_stages)
    assert profile["counters"].get("program_cache.hit") == 1
    # The hit shares the dense form the cold compile built and replayed for
    # an equal machine: no re-sort and no replay.
    assert "sim.compile" not in warm_stages
    assert "sim.run" not in warm_stages
    assert (
        warm.result.iteration_time == cold.result.iteration_time
    )


def test_profile_metadata_absent_without_flag(mlp_bundle):
    model = repro.compile(
        mlp_bundle.graph, "tofu", k80_8gpu_machine(2), executor=Executor()
    )
    assert "profile" not in model.metadata
