"""Cost-model threading through caches, the ``use_cost_model`` scope,
``repro.compile`` and the CLI.  Default-priced cache keys must be
byte-identical to the pre-cost-model ones; only a *non-default* model may
change a program-cache key, and no model changes a plan or its key."""

from __future__ import annotations

import json
import os

import pytest

import repro
from repro.costmodel import (
    cost_model_cache_token,
    default_roofline,
    fit_cost_model,
    load_trace,
    save_cost_model,
    use_cost_model,
)
from repro.partition.plan import plan_to_dict
from repro.planner import Planner
from repro.planner.backends import available_backends, get_backend
from repro.planner.cache import plan_cache_key
from repro.runtime import Executor, ExecutorConfig, program_from_dict, program_to_dict
from repro.runtime.cache import lowered_cache_key
from repro.sim.device import k80_8gpu_machine

REPO_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..")
SAMPLE_TRACE = os.path.join(REPO_ROOT, "benchmarks", "data", "sample_trace.json")

MACHINE = k80_8gpu_machine(4)


@pytest.fixture(scope="module")
def table_model():
    return fit_cost_model(load_trace(SAMPLE_TRACE), "table")


# ------------------------------------------------------------- cache keys
def test_default_cache_keys_unchanged(mlp_bundle, table_model):
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
    with use_cost_model(table_model):
        p_priced = plan_cache_key(mlp_bundle.graph, factors, MACHINE, "tofu", {})
    assert p_default == p_priced


def test_non_default_model_changes_cache_keys(mlp_bundle, table_model):
    token = cost_model_cache_token(table_model)
    assert token is not None and token.startswith("table:")
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


def test_configured_table_model_changes_timings(mlp_bundle, table_model):
    executor = Executor(ExecutorConfig(cache_programs=False))
    default_run = _run_single(executor, mlp_bundle.graph)
    with use_cost_model(table_model):
        table_run = _run_single(executor, mlp_bundle.graph)
    assert (
        table_run.result.iteration_time != default_run.result.iteration_time
    )
    assert table_run.program.cost_model == cost_model_cache_token(table_model)
    assert default_run.program.cost_model is None


def test_context_model_reaches_lowering(mlp_bundle, table_model):
    """No precedence rule: the innermost scope prices the lowering, and
    leaving it restores the outer one."""
    executor = Executor(ExecutorConfig(cache_programs=False))
    default_run = _run_single(executor, mlp_bundle.graph)
    with use_cost_model(table_model):
        table_run = _run_single(executor, mlp_bundle.graph)
        with use_cost_model(default_roofline()):
            inner_run = _run_single(executor, mlp_bundle.graph)
        after_run = _run_single(executor, mlp_bundle.graph)
    assert (
        table_run.result.iteration_time != default_run.result.iteration_time
    )
    assert inner_run.result.iteration_time == default_run.result.iteration_time
    assert after_run.result.iteration_time == table_run.result.iteration_time


def test_program_cache_separates_models(mlp_bundle, table_model):
    """One executor on the shared program cache, two models: the second run
    must not replay the first run's cached program."""
    executor = Executor()
    default_run = _run_single(executor, mlp_bundle.graph)
    with use_cost_model(table_model):
        table_run = _run_single(executor, mlp_bundle.graph)
    assert (
        table_run.result.iteration_time != default_run.result.iteration_time
    )


def test_program_codec_round_trips_cost_model_fields(mlp_bundle, table_model):
    with use_cost_model(table_model):
        run = _run_single(
            Executor(ExecutorConfig(cache_programs=False)), mlp_bundle.graph
        )
    clone = program_from_dict(program_to_dict(run.program))
    assert clone.cost_model == run.program.cost_model
    for name, task in run.program.tasks.items():
        assert clone.tasks[name].comm_time == task.comm_time


# ----------------------------------------------------------- repro.compile
def test_compile_accepts_cost_model(mlp_bundle, table_model):
    default_model = repro.compile(mlp_bundle.graph, "single", MACHINE)
    priced = repro.compile(
        mlp_bundle.graph, "single", MACHINE, cost_model=table_model
    )
    assert priced.iteration_time != default_model.iteration_time
    assert priced.program.cost_model == cost_model_cache_token(table_model)
    assert default_model.program.cost_model is None


def test_compile_accepts_saved_model_path(mlp_bundle, table_model, tmp_path):
    path = tmp_path / "table.json"
    save_cost_model(table_model, str(path))
    priced = repro.compile(
        mlp_bundle.graph, "single", MACHINE, cost_model=str(path)
    )
    assert priced.program.cost_model == cost_model_cache_token(table_model)


# ------------------------------------------------ pricing never moves a plan
@pytest.fixture(scope="module")
def fitted_model():
    return fit_cost_model(load_trace(SAMPLE_TRACE), "fitted")


@pytest.mark.parametrize("workers", [2, 4])
@pytest.mark.parametrize("bundle", ["mlp_bundle", "rnn_bundle"])
def test_pricing_never_moves_a_plan(
    request, bundle, workers, table_model, fitted_model
):
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
        for model in (table_model, fitted_model):
            with use_cost_model(model):
                assert searched(spec) == roofline, (backend, model.name)


def test_calibrated_compile_hits_the_roofline_plan(mlp_bundle, table_model):
    planner = Planner()
    repro.compile(mlp_bundle.graph, "tofu", MACHINE, planner=planner)
    assert planner.cache_info()["hits"] == 0
    repro.compile(
        mlp_bundle.graph, "tofu", MACHINE, planner=planner,
        cost_model=table_model,
    )
    assert planner.cache_info()["hits"] == 1
    assert planner.cache_info()["size"] == 1


# -------------------------------------------------------------------- CLI
def test_cli_replay_smoke(tmp_path, capsys):
    from repro.cli import main

    output = tmp_path / "report.json"
    code = main([
        "replay", "--trace", SAMPLE_TRACE, "--models", "roofline,table",
        "--output", str(output),
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "roofline" in text and "table" in text
    report = json.loads(output.read_text(encoding="utf-8"))
    assert report["format"] == "tofu-replay-report"
    assert (
        report["models"]["table"]["overall"]["mape"]
        < report["models"]["roofline"]["overall"]["mape"]
    )


def test_cli_replay_fit_saves_model(tmp_path, capsys):
    from repro.cli import main

    saved = tmp_path / "model.json"
    code = main([
        "replay", "--trace", SAMPLE_TRACE, "--models", "roofline",
        "--fit", "table", "--save-model", str(saved),
    ])
    assert code == 0
    capsys.readouterr()
    payload = json.loads(saved.read_text(encoding="utf-8"))
    assert payload["format"] == "tofu-cost-model"
    assert payload["cost_model"]["model"] == "table"


def test_cli_replay_fit_requires_save_model(capsys):
    from repro.cli import main

    code = main(["replay", "--trace", SAMPLE_TRACE, "--fit", "table"])
    assert code == 1
    assert "save-model" in capsys.readouterr().err


def test_cli_simulate_accepts_cost_model(tmp_path, capsys):
    from repro.cli import main

    code = main([
        "simulate", "--model", "mlp", "--workers", "4",
        "--cost-model", f"table:trace={SAMPLE_TRACE}",
    ])
    assert code == 0
    assert capsys.readouterr().out
