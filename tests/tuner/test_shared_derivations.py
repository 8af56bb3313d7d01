"""Sharing the compile memo across a sweep's candidates changes no result.

Inside one ``Tuner.tune`` the candidates read each fact about the frozen
graph from the compile memo (:mod:`repro.graph.memo`): roofline inputs,
topological order, the default memory plan, and the recursive search's
steps, keyed by factor prefix.  The sweep must decide exactly what
compiling each candidate alone decides.  Step sharing rests on the
recursive search's prefix property (Sec 5.2): step ``i`` reads only the
shapes steps ``1..i-1`` left, so the plan for 2 workers is the first step of
the plan for 4, which is the first two steps of the plan for 8.
"""

from __future__ import annotations

import pytest

from repro.compiler import collector_paused
from repro.models.mlp import build_mlp
from repro.partition import recursive
from repro.partition.plan import plan_to_dict
from repro.planner.backends import get_backend
from repro.planner.core import Planner
from repro.runtime.core import Executor, ExecutorConfig
from repro.sim.device import k80_8gpu_machine
from repro.tuner import Tuner

MACHINE = k80_8gpu_machine(8)
CANDIDATES = (
    "tofu",
    "dp:2/tofu",
    "dp:4/tofu",
    "pipeline:2:1f1b:4",
    "dp:2/pipeline:2:gpipe:2",
)


@pytest.fixture(scope="module")
def graph():
    return build_mlp(
        batch_size=64, input_dim=256, hidden_dim=256, num_layers=3,
        num_classes=64,
    ).graph


def _tune(graph, candidates):
    return Tuner().tune(
        graph, MACHINE, candidates=list(candidates), planner=Planner(),
        executor=Executor(ExecutorConfig(program_cache_capacity=8)),
    )


def _decided(outcome):
    return (outcome.strategy, outcome.status, outcome.reason,
            outcome.iteration_time, outcome.peak_memory)


@pytest.fixture
def dp_steps(monkeypatch):
    """Counts the recursive search's DP steps."""
    calls = []
    step = recursive.dp_partition_step

    def counted(*args, **kwargs):
        calls.append(args[3])
        return step(*args, **kwargs)

    monkeypatch.setattr(recursive, "dp_partition_step", counted)
    return calls


def test_sweep_outcomes_equal_each_candidate_compiled_alone(graph, dp_steps):
    alone = [_tune(graph, [candidate]) for candidate in CANDIDATES]
    steps_alone = len(dp_steps)
    dp_steps.clear()

    sweep = _tune(graph, CANDIDATES)

    # tofu searches [2, 2, 2]; dp:2/tofu's [2, 2] and dp:4/tofu's [2] are
    # its prefixes, so the sweep runs 3 distinct steps where alone runs 6.
    assert steps_alone == 6
    assert dp_steps == [2, 2, 2]
    assert [_decided(o) for o in sweep.outcomes] == [
        _decided(result.outcomes[0]) for result in alone
    ]
    assert sum(o.viable for o in sweep.outcomes) >= 2
    winner = min(
        range(len(alone)),
        key=lambda i: (alone[i].outcomes[0].iteration_time, i),
    )
    assert sweep.winner_key() == alone[winner].winner_key()


@pytest.mark.parametrize("backend", ["tofu", "icml18"])
def test_fewer_workers_plan_is_a_step_prefix_of_more(graph, backend):
    search = get_backend(backend).fn
    plans = {workers: search(graph, workers) for workers in (2, 4, 8)}
    assert [step.parts for step in plans[8].steps] == [2, 2, 2]
    assert plans[2].steps == plans[8].steps[:1]
    assert plans[4].steps == plans[8].steps[:2]


def test_shared_steps_build_the_plans_fresh_searches_build(graph, dp_steps):
    def plans():
        out = {}
        for backend in ("tofu", "icml18"):
            search = get_backend(backend).fn
            for workers in (8, 2, 4):
                payload = plan_to_dict(search(graph, workers))
                payload.pop("search_time_seconds")
                out[backend, workers] = payload
        return out

    fresh = plans()
    assert len(dp_steps) == 2 * (3 + 1 + 2)
    dp_steps.clear()
    graph.freeze()
    with collector_paused():
        shared = plans()
    # One compile scope: each backend searches its three steps once.
    assert dp_steps == [2, 2, 2, 2, 2, 2]
    assert shared == fresh
