"""Cost-model threading through caches, the ``use_cost_model`` scope and
``repro.compile``.  Default-priced cache keys must be byte-identical to the
pre-cost-model ones; only a *non-default* model may change a program-cache
key, and no model changes a plan or its key."""

from __future__ import annotations

import threading

import pytest

import repro
from repro.costmodel import (
    active_cost_model,
    cost_model_cache_token,
    default_roofline,
    use_cost_model,
)
from repro.partition.plan import plan_to_dict
from repro.planner import Planner
from repro.planner.backends import available_backends, get_backend
from repro.planner.cache import plan_cache_key
from repro.runtime import Executor, ExecutorConfig, program_from_dict, program_to_dict
from repro.runtime.cache import lowered_cache_key
from repro.sim.device import k80_8gpu_machine
from tests.costmodel.fakes import ScaledRoofline

MACHINE = k80_8gpu_machine(4)


@pytest.fixture(scope="module")
def scaled_model():
    return ScaledRoofline(2.0)


# ------------------------------------------------------------- cache keys
def test_default_cache_keys_unchanged(mlp_bundle, scaled_model):
    """``cost_model=None`` must be a no-op on the program-cache key: every
    pre-existing cache entry keeps its exact address.  Plan keys carry no
    pricing at all, so an active model leaves them alone too."""
    without = lowered_cache_key(mlp_bundle.graph, MACHINE, "single-device", {})
    with_none = lowered_cache_key(
        mlp_bundle.graph, MACHINE, "single-device", {}, cost_model=None
    )
    assert without == with_none

    factors = (2, 2)
    p_default = plan_cache_key(mlp_bundle.graph, factors, MACHINE, "tofu", {})
    with use_cost_model(scaled_model):
        p_priced = plan_cache_key(mlp_bundle.graph, factors, MACHINE, "tofu", {})
    assert p_default == p_priced


def test_non_default_model_changes_cache_keys(mlp_bundle, scaled_model):
    token = cost_model_cache_token(scaled_model)
    assert token is not None and token.startswith("scaled-roofline:")
    assert token != cost_model_cache_token(ScaledRoofline(3.0))
    base = lowered_cache_key(mlp_bundle.graph, MACHINE, "single-device", {})
    keyed = lowered_cache_key(
        mlp_bundle.graph, MACHINE, "single-device", {}, cost_model=token
    )
    assert keyed != base


def test_roofline_token_is_none():
    assert cost_model_cache_token(None) is None
    assert cost_model_cache_token(default_roofline()) is None


# --------------------------------------------------------------- executor
def _run_single(executor, graph):
    return executor.run(graph, machine=MACHINE, backend="single-device")


def test_non_default_model_changes_timings(mlp_bundle, scaled_model):
    executor = Executor(ExecutorConfig(cache_programs=False))
    default_run = _run_single(executor, mlp_bundle.graph)
    with use_cost_model(scaled_model):
        scaled_run = _run_single(executor, mlp_bundle.graph)
    assert (
        scaled_run.result.iteration_time != default_run.result.iteration_time
    )
    assert scaled_run.program.cost_model == cost_model_cache_token(scaled_model)
    assert default_run.program.cost_model is None


def test_context_model_reaches_lowering(mlp_bundle, scaled_model):
    """No precedence rule: the innermost scope prices the lowering, and
    leaving it restores the outer one."""
    executor = Executor(ExecutorConfig(cache_programs=False))
    default_run = _run_single(executor, mlp_bundle.graph)
    with use_cost_model(scaled_model):
        scaled_run = _run_single(executor, mlp_bundle.graph)
        with use_cost_model(default_roofline()):
            inner_run = _run_single(executor, mlp_bundle.graph)
        after_run = _run_single(executor, mlp_bundle.graph)
    assert (
        scaled_run.result.iteration_time != default_run.result.iteration_time
    )
    assert inner_run.result.iteration_time == default_run.result.iteration_time
    assert after_run.result.iteration_time == scaled_run.result.iteration_time


def test_scope_is_isolated_per_thread(mlp_bundle, scaled_model):
    """A scope opened on one thread prices nothing on another: both threads
    lower while the priced thread's scope is open."""
    executor = Executor(ExecutorConfig(cache_programs=False))
    inside = threading.Barrier(2)
    seen = {}

    def run(label, model):
        with use_cost_model(model):
            inside.wait(timeout=30)
            seen[label] = (active_cost_model(),
                           _run_single(executor, mlp_bundle.graph))
            inside.wait(timeout=30)

    threads = [threading.Thread(target=run, args=("priced", scaled_model)),
               threading.Thread(target=run, args=("default", None))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert active_cost_model() is None
    assert seen["priced"][0] is scaled_model and seen["default"][0] is None
    default_run = _run_single(executor, mlp_bundle.graph)
    assert seen["default"][1].result.iteration_time == (
        default_run.result.iteration_time
    )
    assert seen["priced"][1].program.cost_model == (
        cost_model_cache_token(scaled_model)
    )


def test_program_cache_separates_models(mlp_bundle, scaled_model):
    """One executor on the shared program cache, two models: the second run
    must not replay the first run's cached program."""
    executor = Executor()
    default_run = _run_single(executor, mlp_bundle.graph)
    with use_cost_model(scaled_model):
        scaled_run = _run_single(executor, mlp_bundle.graph)
    assert (
        scaled_run.result.iteration_time != default_run.result.iteration_time
    )


def test_program_codec_round_trips_cost_model_fields(mlp_bundle, scaled_model):
    with use_cost_model(scaled_model):
        run = _run_single(
            Executor(ExecutorConfig(cache_programs=False)), mlp_bundle.graph
        )
    clone = program_from_dict(program_to_dict(run.program))
    assert clone.cost_model == run.program.cost_model
    for name, task in run.program.tasks.items():
        assert clone.tasks[name].comm_time == task.comm_time


# ------------------------------------------------ pricing never moves a plan
@pytest.mark.parametrize("workers", [2, 4])
@pytest.mark.parametrize("bundle", ["mlp_bundle", "rnn_bundle"])
def test_pricing_never_moves_a_plan(request, bundle, workers):
    """The search minimises communication bytes, so no pricing model can
    change the plan any search backend returns."""
    graph = request.getfixturevalue(bundle).graph

    def searched(spec):
        plan = plan_to_dict(spec.search(graph, workers))
        plan.pop("search_time_seconds")  # wall clock, not the plan
        return plan

    for backend in available_backends():
        spec = get_backend(backend)
        roofline = searched(spec)
        for factor in (0.5, 2.0):
            with use_cost_model(ScaledRoofline(factor)):
                assert searched(spec) == roofline, (backend, factor)


def test_priced_compile_hits_the_roofline_plan(mlp_bundle, scaled_model):
    planner = Planner()
    default_model = repro.compile(mlp_bundle.graph, "tofu", MACHINE, planner=planner)
    assert planner.cache_info()["hits"] == 0
    with use_cost_model(scaled_model):
        priced = repro.compile(mlp_bundle.graph, "tofu", MACHINE, planner=planner)
    assert planner.cache_info()["hits"] == 1
    assert planner.cache_info()["size"] == 1
    assert priced.iteration_time != default_model.iteration_time
    assert priced.program.cost_model == cost_model_cache_token(scaled_model)
    assert default_model.program.cost_model is None
