"""Checks of the benchmark itself, on a tiny MLP workload (a few seconds).

Run with ``python -m pytest benchmarks/e2e -q`` from the repository root.
"""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import agree  # noqa: E402
import harness  # noqa: E402
from workloads import WORKLOADS, Config, Model, Workload  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def check_trace(document):
    """Problems with a trace-event document written by :meth:`Tracer.write`:
    malformed events, a span whose parent is missing, negative self time."""
    problems = []
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is not a list"]
    spans = {}
    for event in events:
        if not isinstance(event, dict) or "ph" not in event or "name" not in event:
            problems.append(f"malformed event {event!r}")
            continue
        if event["ph"] != "X":
            continue
        for key in ("ts", "dur", "pid", "tid", "args"):
            if key not in event:
                problems.append(f"span {event['name']!r} has no {key!r}")
        if event.get("dur", 0) < 0:
            problems.append(f"span {event['name']!r} has negative duration")
        spans[event["args"]["id"]] = event
    covered = {span_id: 0.0 for span_id in spans}
    for span_id, event in spans.items():
        parent = event["args"]["parent"]
        if parent is None:
            continue
        if parent not in spans:
            problems.append(f"span {span_id} ({event['name']}) has no parent {parent}")
            continue
        covered[parent] += event["dur"]
    for span_id, event in spans.items():
        # Whole nanoseconds held as float microseconds: allow float rounding.
        if event["dur"] - covered[span_id] < -1e-6:
            problems.append(f"span {span_id} ({event['name']}) has negative self time")
    return problems


def _mlp(batch):
    from repro.models.mlp import build_mlp

    return build_mlp(batch_size=batch, input_dim=256, hidden_dim=256,
                     num_layers=2, num_classes=64)


# ``paper`` is a stand-in reference so the fidelity path runs.
MLP = Model("MLP-tiny", _mlp, paper=0.9)
TINY = Workload(
    name="tiny",
    configs=(Config(MLP, 32), Config(MLP, 32, "dp:2/tofu")),
)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    record = harness.run_workload(TINY, seed=3, seconds=0, trace=True, out_dir=str(out))
    return record, out


def _check_result(result, trace):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = harness.declared_metrics(trace)
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert name in declared, name
        assert metric["unit"] == declared[name]
        assert isinstance(metric["value"], (int, float))


def test_benchmark_json_lists_the_workloads():
    spec = json.loads(harness.BENCHMARK.read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for section in ("end_to_end", "per_layer"):
        for metric in spec[section]:
            assert NAME.fullmatch(metric["name"]), metric["name"]


def test_plain_run_reports_every_end_to_end_metric():
    result = harness.run_workload(TINY, seed=3, seconds=0, trace=False)["result"]
    _check_result(result, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(harness.declared_metrics(False))
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric(traced):
    record, _ = traced
    result = record["result"]
    _check_result(result, trace=True)
    assert result["correct"], record["detail"]["failures"]
    assert set(result["metrics"]) == set(harness.declared_metrics(True))
    assert record["detail"]["missing_entry_points"] == []
    assert result["metrics"]["compile.unattributed_frac"]["value"] <= 0.05


def test_trace_is_trace_event_json_with_nested_spans(traced):
    _, out = traced
    document = json.loads((out / "tiny.seed3.trace.json").read_text(encoding="utf-8"))
    assert check_trace(document) == []
    names = {e["name"] for e in document["traceEvents"] if e["ph"] == "X"}
    assert {"compile", "graph.build", "planner.search", "partition.dp_step",
            "runtime.lower", "sim.compile", "sim.run", "replay"} <= names
    assert all(e["args"]["self_us"] >= 0 for e in document["traceEvents"] if e["ph"] == "X")


def test_check_trace_rejects_orphans_and_negative_self_time():
    def span(span_id, parent, ts, dur):
        return {"name": "s", "ph": "X", "ts": ts, "dur": dur, "pid": 1, "tid": 1,
                "args": {"id": span_id, "parent": parent}}

    assert check_trace({"traceEvents": [span(0, None, 0, 10), span(1, 0, 1, 5)]}) == []
    assert check_trace({"traceEvents": [span(1, 7, 0, 1)]})
    assert check_trace({"traceEvents": [span(0, None, 0, 2), span(1, 0, 0, 3)]})
    assert check_trace({"events": []})


def test_a_compile_that_raises_is_counted_not_fatal():
    broken = Workload(
        name="broken",
        configs=(Config(MLP, 32), Config(MLP, 32, "dp:3/tofu")),
    )
    record = harness.run_workload(broken, seed=1, seconds=0, trace=False)
    result = record["result"]
    _check_result(result, trace=False)
    assert not result["correct"]
    # The good config's cold and warm compiles plus the broken cold compile.
    assert result["attempted"] == 1 + harness.WARM_SAMPLES + 1
    assert result["failed"] == 1
    assert record["detail"]["failures"][0]["what"] == "cold compile raised"
    assert "compile_cold_s" in result["metrics"]


def test_agreement_verdicts():
    metric = {"name": "compile_cold_s", "better": "lower", "bound": 0.1}
    steady = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98]
    assert agree.verdict(steady, steady, metric) == "agree"
    assert agree.verdict(steady, [v * 1.2 for v in steady], metric) == "disagree"
    assert agree.verdict(steady, [0.5, 1.5, 1.0, 0.7, 1.3, 1.0], metric) == "unresolved"
    setup = dict(metric, name="setup_s")
    assert agree.verdict(steady, [0.8, 1.2, 1.0, 0.9, 1.1, 1.0], setup) == "agree"
