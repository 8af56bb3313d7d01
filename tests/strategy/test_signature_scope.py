"""One graph serialisation per compile.

``repro.compile`` opens a :func:`repro.caching.graph_signature_scope`, so the
plan-cache key, the program-cache key and every autotuner candidate share a
single serialisation of the graph.  The memo ends with the compile: a graph
edited between two compiles is serialised afresh and misses the caches.
"""

from __future__ import annotations

import pytest

import repro
from repro import caching
from repro.caching import graph_signature, graph_signature_scope
from repro.models.mlp import build_mlp
from repro.planner import Planner, PlannerConfig
from repro.runtime import Executor, ExecutorConfig
from repro.sim.device import k80_8gpu_machine
from repro.tuner import Tuner, TunerBudget

MACHINE = k80_8gpu_machine(4)


@pytest.fixture
def graph():
    """A fresh small MLP per test (one of them edits it)."""
    return build_mlp(
        batch_size=32, input_dim=256, hidden_dim=256, num_layers=3,
        num_classes=64,
    ).graph


@pytest.fixture
def serialisations(monkeypatch):
    """Every graph ``graph_signature`` serialises, in call order."""
    calls = []
    original = caching.graph_to_dict

    def counting(graph):
        calls.append(graph)
        return original(graph)

    monkeypatch.setattr(caching, "graph_to_dict", counting)
    return calls


def _private_caches():
    return (
        Planner(PlannerConfig(cache_capacity=8)),
        Executor(ExecutorConfig(program_cache_capacity=8)),
    )


def test_one_serialisation_per_compile(graph, serialisations):
    planner, executor = _private_caches()
    for _ in ("cold", "warm"):
        serialisations.clear()
        repro.compile(graph, "tofu", MACHINE, planner=planner, executor=executor)
        assert len(serialisations) == 1
    assert executor.program_cache.info()["hits"] == 1
    assert planner.cache.info()["hits"] == 1


def test_one_serialisation_per_auto_sweep(graph, serialisations):
    planner, executor = _private_caches()
    model = repro.compile(
        graph, "auto", MACHINE, planner=planner, executor=executor,
        tuner=Tuner(budget=TunerBudget(max_candidates=6)),
    )
    assert model.metadata["tuner"]["counts"]["evaluated"] > 1
    assert len(serialisations) == 1


def test_graph_edited_between_compiles_misses(graph):
    planner, executor = _private_caches()
    repro.compile(graph, "tofu", MACHINE, planner=planner, executor=executor)
    before = graph_signature(graph)
    next(iter(graph.nodes.values())).attrs["note"] = "edited"
    repro.compile(graph, "tofu", MACHINE, planner=planner, executor=executor)
    assert graph_signature(graph) != before
    info = executor.program_cache.info()
    assert info["misses"] == 2 and info["hits"] == 0


def test_memo_lives_exactly_as_long_as_the_scope(graph, serialisations):
    with graph_signature_scope():
        first = graph_signature(graph)
        with graph_signature_scope():  # nested scopes share the memo
            assert graph_signature(graph) == first
        assert graph_signature(graph) == first
    assert len(serialisations) == 1
    assert graph_signature(graph) == first
    assert len(serialisations) == 2
