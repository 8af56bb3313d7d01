"""The compile memo's scope: open only while a compile runs, never on the graph.

``repro.graph.memo`` holds pure functions of a frozen graph for the length
of one (outermost) compile.  These tests pin its lifetime — empty once
``repro.compile`` or ``Tuner.tune`` returns or raises — that it leaves no
trace on the graph, and that the static verifier re-derives what it checks
instead of reading lowering's answers back from the memo.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro
from repro.analysis import verify_program
from repro.compiler import collector_paused
from repro.errors import ExecutionError, StrategyError
from repro.graph import memo
from repro.graph.memory_planner import plan_memory
from repro.models.mlp import build_mlp
from repro.planner.core import Planner
from repro.runtime.core import Executor, ExecutorConfig
from repro.runtime.passes import stage_memory_report
from repro.sim.device import DeviceSpec, MachineSpec, k80_8gpu_machine
from repro.tuner import Tuner

MACHINE = k80_8gpu_machine(4)


def _executor():
    """An executor with a private program cache: every compile lowers."""
    return Executor(ExecutorConfig(program_cache_capacity=8))


def _graph():
    return build_mlp(batch_size=32, input_dim=128, hidden_dim=128, num_layers=3,
                     num_classes=16).graph


def _compile(graph, strategy="tofu", **kwargs):
    return repro.compile(graph, strategy, MACHINE, planner=Planner(),
                         executor=_executor(), **kwargs)


def test_memo_is_closed_outside_a_compile_and_open_inside():
    graph = _graph()
    assert memo._entries is None
    with collector_paused():
        _compile(graph)
        assert {key for (owner, key) in memo._entries if owner is graph} >= {
            "topo_order", "roofline_inputs",
        }
        with collector_paused():  # a nested compile shares the outer memo
            entries = memo._entries
            _compile(graph, "dp:2/tofu")
            assert memo._entries is entries
        assert memo._entries is entries
    assert memo._entries is None


def test_memo_is_empty_after_compile_and_tune_return():
    graph = _graph()
    _compile(graph)
    assert memo._entries is None
    Tuner().tune(graph, MACHINE, candidates=["tofu", "dp:2/tofu"],
                 planner=Planner(), executor=_executor())
    assert memo._entries is None


def test_memo_is_empty_after_compile_raises(monkeypatch):
    graph = _graph()

    def failing_lower(self, *args, **kwargs):
        # The plan was searched and priced: the memo holds entries by now.
        assert memo._entries
        raise ExecutionError("lowering failed")

    monkeypatch.setattr(Executor, "lower", failing_lower)
    with pytest.raises(ExecutionError, match="lowering failed"):
        _compile(graph)
    assert memo._entries is None


def test_memo_is_empty_after_tune_raises():
    graph = _graph()
    tiny = MachineSpec(devices=[
        DeviceSpec(name=f"gpu{i}", memory_bytes=graph.weight_bytes() // 100)
        for i in range(4)
    ])
    with pytest.raises(StrategyError, match="no executable candidate"):
        Tuner().tune(graph, tiny, candidates=["tofu", "dp:2/tofu"],
                     planner=Planner(), executor=_executor())
    assert memo._entries is None


def test_a_compile_adds_no_attribute_to_the_graph_besides_its_signature():
    graph = _graph()
    before = set(vars(graph))
    _compile(graph)
    # Freezing sets the read-only flag along with the signature.
    assert set(vars(graph)) - before == {"frozen", "signature"}
    signed = dict(vars(graph))
    _compile(graph, "pipeline:2:1f1b:2")
    Tuner().tune(graph, MACHINE, candidates=["tofu", "dp:2/tofu"],
                 planner=Planner(), executor=_executor())
    assert vars(graph).keys() == signed.keys()
    assert all(vars(graph)[name] is value for name, value in signed.items())


def test_an_unfrozen_graph_is_derived_afresh_inside_a_scope():
    graph = _graph()
    assert not graph.frozen
    with collector_paused():
        assert plan_memory(graph) is not plan_memory(graph)
        assert not memo._entries


def test_a_frozen_graphs_default_memory_plan_is_shared_inside_a_scope():
    graph = _graph()
    graph.freeze()
    assert plan_memory(graph) is not plan_memory(graph)
    with collector_paused():
        assert plan_memory(graph) is plan_memory(graph)
        assert plan_memory(graph, allow_reuse=False) is not plan_memory(
            graph, allow_reuse=False)


def test_a_checker_run_in_an_open_scope_re_derives_its_memory_plan():
    graph = _graph()
    with collector_paused():
        model = _compile(graph, "pipeline:2:1f1b:2")
        program = model.program
        assert program.backend == "pipeline"
        slot = (graph, "memory_plan")
        plan = memo._entries[slot]
        # Corrupt lowering's memory plan in the memo: a check that read it
        # back would now disagree with the program's report.
        bogus = dataclasses.replace(plan, buffer_sizes={
            buffer: size * 2 for buffer, size in plan.buffer_sizes.items()
        })
        memo._entries[slot] = bogus
        schedule = program.schedule
        misread = stage_memory_report(
            graph, program.stage_of_node, schedule.num_stages,
            num_microbatches=program.num_microbatches, schedule=schedule,
        )
        assert sorted(misread.values()) != sorted(
            program.per_device_memory.values())
        entries = dict(memo._entries)

        report = verify_program(program, graph=graph, checkers=["memory-plan"])

        assert report.ok, report.summary()
        assert memo._entries == entries
        assert memo._entries[slot] is bogus
