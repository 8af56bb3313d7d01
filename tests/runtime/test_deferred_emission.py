"""Deferred task emission: a lowering computes its memory report, comm
volume and metadata eagerly and emits its task rows on the first read.

A memory screen that rejects a candidate therefore never pays for the
rows; every reader of tasks (the simulator, the verifier, ``summary()``)
forces the one emission, and program-cache copies share it.
"""

from __future__ import annotations

import pytest

import repro
from repro import perf
from repro.models.rnn import build_rnn
from repro.perf import StageTimer
from repro.planner.core import Planner
from repro.runtime import Executor, ExecutorConfig
from repro.sim.device import DeviceSpec, MachineSpec
from repro.tuner import Tuner
from repro.tuner.result import STATUS_EVALUATED

#: One strategy per deferring backend: tofu-partitioned, single-device,
#: pipeline and hybrid.
DEFERRED = ("tofu", "single", "pipeline:2:1f1b:4", "dp:2/pipeline:2:1f1b:4/tofu")


def _uncached() -> Executor:
    return Executor(ExecutorConfig(cache_programs=False))


@pytest.mark.parametrize("strategy", DEFERRED)
def test_lowering_emits_no_rows_until_the_simulation_reads_them(
    rnn_bundle, strategy
):
    timer = StageTimer()
    with perf.activation(timer):
        model = repro.compile(
            rnn_bundle.graph, strategy, executor=_uncached(), lower_only=True
        )
        assert model.program.per_device_peak_bytes > 0
        assert timer.stage_calls("lower.emit") == 0
        model.simulate()
        emitted = timer.stage_calls("lower.emit")
        model.simulate()
        len(model.program.tasks)
    assert emitted >= 1
    assert timer.stage_calls("lower.emit") == emitted  # emitted once


@pytest.mark.parametrize("strategy", DEFERRED)
def test_deferred_simulation_matches_a_direct_compile(rnn_bundle, strategy):
    graph = rnn_bundle.graph
    direct = repro.compile(graph, strategy, executor=_uncached())
    deferred = repro.compile(
        graph, strategy, executor=_uncached(), lower_only=True
    )
    deferred.simulate()
    assert deferred.result == direct.result
    assert deferred.program.task_graph.rows == direct.program.task_graph.rows


def test_cache_hits_share_the_one_emission(mlp_bundle):
    executor = Executor(ExecutorConfig(program_cache_capacity=8))

    def lower():
        return repro.compile(
            mlp_bundle.graph, "tofu", executor=executor, lower_only=True
        ).program

    original = lower()
    emitted = original.task_graph
    # A hit taken after the original was forced.
    assert lower().task_graph is emitted
    # A hit taken before either is forced: forcing one forces both.
    executor.program_cache.clear()
    first, second = lower(), lower()
    assert second.task_graph is first.task_graph
    assert first.task_graph.rows == emitted.rows


def test_tuner_emits_rows_only_for_the_candidates_it_simulates():
    """A weight-dominated RNN on a machine only sharded strategies fit:
    most candidates are lowered and then screened on their memory report,
    and none of those emits a row."""
    graph = build_rnn(
        num_layers=2, hidden_size=2048, seq_len=4, batch_size=16
    ).graph
    capacity = int(0.5 * graph.weight_bytes())
    machine = MachineSpec(
        devices=[
            DeviceSpec(name=f"gpu{i}", memory_bytes=capacity) for i in range(8)
        ]
    )
    timer = StageTimer()
    with perf.activation(timer):
        result = Tuner().tune(
            graph, machine, planner=Planner(),
            executor=Executor(ExecutorConfig(program_cache_capacity=64)),
        )
    lowered = sum(
        calls for name, calls in timer.calls.items()
        if name.startswith("lower.") and name != "lower.emit"
    )
    evaluated = [o for o in result.outcomes if o.status == STATUS_EVALUATED]
    assert timer.stage_calls("lower.emit") == len(evaluated) >= 1
    assert lowered > len(evaluated)  # screened after a lowering, unemitted
