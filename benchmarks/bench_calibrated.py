"""Calibrated pricing — what changes when the simulator's roofline is
replaced by a trace-fitted model.

Not a paper figure: this benchmark exercises the PR's cost-model subsystem
end to end.  It replays the checked-in 50-record sample trace under the
analytic roofline, a fitted ``table`` model, and a fitted ``fitted`` model,
then compiles the reference MLP under each pricing.  The shape to hold: the
calibrated models have strictly lower replay error than the roofline (the
table model near zero, since it interpolates the very curve it was fitted
on), and swapping the pricing changes simulated iteration time without
changing the lowered program's structure (same tasks, same comm volume).
"""

import os

from common import once, print_header
from repro.costmodel import (
    fit_cost_model,
    load_trace,
    replay_trace,
    resolve_cost_model,
    use_cost_model,
)
from repro.models.mlp import build_mlp
from repro.runtime import Executor, ExecutorConfig
from repro.sim.device import k80_8gpu_machine

SAMPLE_TRACE = os.path.join(os.path.dirname(__file__), "data", "sample_trace.json")

ORDER = ["roofline", "table", "fitted"]


def _models(trace):
    return {
        "roofline": resolve_cost_model("roofline"),
        "table": fit_cost_model(trace, "table"),
        "fitted": fit_cost_model(trace, "fitted"),
    }


def _replay(trace):
    report = replay_trace(trace, _models(trace))
    return {
        label: {
            "mape": entry["overall"]["mape"],
            "p95": entry["overall"]["p95"],
            "makespan_err": entry["makespan"]["error_pct"],
        }
        for label, entry in report["models"].items()
    }


def _compile_under(trace):
    bundle = build_mlp(batch_size=32, input_dim=256, hidden_dim=256,
                       num_layers=3, num_classes=64)
    machine = k80_8gpu_machine()
    rows = {}
    executor = Executor(ExecutorConfig(cache_programs=False))
    for label, model in _models(trace).items():
        with use_cost_model(model):
            report = executor.run(
                bundle.graph, machine=machine, backend="single-device"
            )
        rows[label] = {
            "iteration_time": report.result.iteration_time,
            "num_tasks": len(report.program.tasks),
            "comm_bytes": report.program.total_comm_bytes,
        }
    return rows


def bench_calibrated_replay_error(benchmark):
    trace = load_trace(SAMPLE_TRACE)
    rows = once(benchmark, lambda: _replay(trace))
    print_header("Calibrated pricing — replay error on the sample trace")
    print(f"{'model':<12}{'MAPE %':>10}{'p95 %':>10}{'makespan err %':>16}")
    for label in ORDER:
        r = rows[label]
        print(
            f"{label:<12}{r['mape']:>10.3f}{r['p95']:>10.3f}"
            f"{r['makespan_err']:>16.3f}"
        )
    assert rows["table"]["mape"] < rows["roofline"]["mape"]
    assert rows["fitted"]["mape"] < rows["roofline"]["mape"]
    assert rows["table"]["makespan_err"] <= rows["roofline"]["makespan_err"]


def bench_calibrated_compile(benchmark):
    trace = load_trace(SAMPLE_TRACE)
    rows = once(benchmark, lambda: _compile_under(trace))
    print_header("Calibrated pricing — MLP compile under each model")
    print(f"{'model':<12}{'iter time (s)':>16}{'tasks':>8}{'comm bytes':>12}")
    for label in ORDER:
        r = rows[label]
        print(
            f"{label:<12}{r['iteration_time']:>16.6f}{r['num_tasks']:>8}"
            f"{r['comm_bytes']:>12}"
        )
    # Pricing changes timing, never structure.
    for label in ("table", "fitted"):
        assert rows[label]["num_tasks"] == rows["roofline"]["num_tasks"]
        assert rows[label]["comm_bytes"] == rows["roofline"]["comm_bytes"]
        assert (
            rows[label]["iteration_time"] != rows["roofline"]["iteration_time"]
        )
