"""Table/fitted model behaviour, save/load round-trips, and the registry."""

from __future__ import annotations

import copy
import json
import math

import pytest

from repro.costmodel import (
    CostModelError,
    FittedCostModel,
    OpSample,
    RooflineCostModel,
    TableCostModel,
    Trace,
    TraceRecord,
    available_cost_models,
    cost_model_from_dict,
    fit_cost_model,
    get_cost_model_spec,
    load_cost_model,
    register_cost_model,
    resolve_cost_model,
    save_cost_model,
    unregister_cost_model,
)
from repro.sim.device import k80_8gpu_machine

MACHINE = k80_8gpu_machine()
DEVICE = MACHINE.device(0)


def _sample(op="matmul", category="matmul", flops=0.0, mem_bytes=0.0,
            out_elements=0.0):
    return OpSample(op=op, category=category, flops=flops,
                    mem_bytes=mem_bytes, out_elements=out_elements)


def _compute(name, duration, *, op="matmul", category="matmul", flops=0.0,
             mem_bytes=0.0):
    return TraceRecord(name=name, kind="compute", duration=duration, op=op,
                       category=category, flops=flops, mem_bytes=mem_bytes)


def _comm(name, duration, comm_bytes, channel="p2p"):
    return TraceRecord(name=name, kind="comm", duration=duration,
                       comm_bytes=comm_bytes, channel=channel)


# ------------------------------------------------------------- table model
def test_table_interpolates_between_measured_sizes():
    trace = Trace(records=(
        _compute("a", 1.0, flops=1.0e9),
        _compute("b", 3.0, flops=3.0e9),
    ))
    model = TableCostModel.fit(trace)
    mid = model.op_time(_sample(flops=2.0e9), DEVICE, MACHINE)
    assert mid == pytest.approx(2.0)


def test_table_scales_proportionally_beyond_curve_ends():
    trace = Trace(records=(_compute("a", 1.0, flops=1.0e9),))
    model = TableCostModel.fit(trace)
    assert model.op_time(_sample(flops=2.0e9), DEVICE, MACHINE) == (
        pytest.approx(2.0)
    )
    assert model.op_time(_sample(flops=0.5e9), DEVICE, MACHINE) == (
        pytest.approx(0.5)
    )


def test_table_falls_back_op_to_category_to_roofline():
    trace = Trace(records=(
        _compute("a", 1.0, op="matmul", category="matmul", flops=1.0e9),
        _compute("b", 5.0, op="conv2d", category="matmul", flops=1.0e9),
    ))
    model = TableCostModel.fit(trace)
    # Exact op curve wins over the category curve.
    assert model.op_time(
        _sample(op="matmul", flops=1.0e9), DEVICE, MACHINE
    ) == pytest.approx(1.0)
    # Unknown op in a known category: category curve (average of both ops).
    assert model.op_time(
        _sample(op="einsum", category="matmul", flops=1.0e9), DEVICE, MACHINE
    ) == pytest.approx(3.0)
    # Unknown category entirely: roofline fallback, not a crash.
    roofline = RooflineCostModel().op_time(
        _sample(op="relu", category="elementwise", flops=1.0e6,
                mem_bytes=8.0e6), DEVICE, MACHINE,
    )
    assert model.op_time(
        _sample(op="relu", category="elementwise", flops=1.0e6,
                mem_bytes=8.0e6), DEVICE, MACHINE,
    ) == pytest.approx(roofline)


def test_table_keys_on_mem_bytes_for_zero_flop_ops():
    trace = Trace(records=(
        _compute("a", 1.0, op="copy", category="mem", flops=0.0,
                 mem_bytes=1.0e6),
        _compute("b", 2.0, op="copy", category="mem", flops=0.0,
                 mem_bytes=2.0e6),
    ))
    model = TableCostModel.fit(trace)
    got = model.op_time(
        _sample(op="copy", category="mem", mem_bytes=1.5e6), DEVICE, MACHINE
    )
    assert got == pytest.approx(1.5)


def test_table_comm_curve_and_unmeasured_channel():
    trace = Trace(records=(
        _compute("a", 1.0, flops=1.0e9),
        _comm("x0", 1.0, 1024.0),
        _comm("x1", 2.0, 2048.0),
    ))
    model = TableCostModel.fit(trace)
    assert model.comm_time(1536.0, channel="p2p") == pytest.approx(1.5)
    # A channel the trace never measured defers to the link pricing (None).
    assert model.comm_time(1536.0, channel="nvlink") is None


def test_table_rejects_empty_trace():
    with pytest.raises(CostModelError):
        TableCostModel.fit(Trace(records=()))


# ------------------------------------------------------------ fitted model
def test_fitted_recovers_linear_law():
    # duration = 2e-9 * flops + 0.5, exactly — the fit must recover it.
    records = tuple(
        _compute(f"n{i}", 2.0e-9 * f + 0.5, flops=f)
        for i, f in enumerate((1.0e9, 2.0e9, 4.0e9, 8.0e9))
    )
    model = FittedCostModel.fit(Trace(records=records))
    got = model.op_time(_sample(flops=3.0e9), DEVICE, MACHINE)
    assert got == pytest.approx(2.0e-9 * 3.0e9 + 0.5, rel=1e-6)


def test_fitted_unknown_category_uses_global_then_roofline():
    records = tuple(
        _compute(f"n{i}", 1.0e-9 * f, flops=f)
        for i, f in enumerate((1.0e9, 2.0e9, 3.0e9))
    )
    model = FittedCostModel.fit(Trace(records=records))
    # Unknown category falls back to the global fit over all compute records.
    got = model.op_time(
        _sample(op="x", category="never-seen", flops=2.0e9), DEVICE, MACHINE
    )
    assert got == pytest.approx(2.0, rel=1e-6)


def test_fitted_comm_fit_is_affine_in_bytes():
    records = (
        _compute("a", 1.0, flops=1.0e9),
        _comm("x0", 1.0, 1000.0),
        _comm("x1", 2.0, 2000.0),
        _comm("x2", 3.0, 3000.0),
    )
    model = FittedCostModel.fit(Trace(records=records))
    assert model.comm_time(1500.0, channel="p2p") == pytest.approx(1.5)
    assert model.comm_time(1500.0, channel="never-seen") is None


def test_fitted_predictions_never_negative():
    records = (
        _compute("a", 0.1, flops=1.0e9),
        _compute("b", 0.05, flops=2.0e9),  # negative slope
    )
    model = FittedCostModel.fit(Trace(records=records))
    assert model.op_time(_sample(flops=1.0e12), DEVICE, MACHINE) >= 0.0


# ------------------------------------------------------- save/load, dicts
@pytest.mark.parametrize("kind", ["table", "fitted"])
def test_save_load_round_trip(tmp_path, kind):
    records = (
        _compute("a", 1.0, flops=1.0e9),
        _compute("b", 3.0, flops=3.0e9),
        _comm("x0", 1.0, 1024.0),
        _comm("x1", 2.0, 2048.0),
    )
    model = fit_cost_model(Trace(records=records), kind)
    path = tmp_path / f"{kind}.json"
    save_cost_model(model, str(path))
    reloaded = load_cost_model(str(path))
    assert reloaded.signature() == model.signature()
    probe = _sample(flops=2.0e9)
    assert reloaded.op_time(probe, DEVICE, MACHINE) == (
        model.op_time(probe, DEVICE, MACHINE)
    )
    assert reloaded.comm_time(1536.0, channel="p2p") == (
        model.comm_time(1536.0, channel="p2p")
    )


def test_cost_model_from_dict_rejects_unknown_model():
    with pytest.raises(CostModelError, match="unknown"):
        cost_model_from_dict({"model": "oracle"})


def _valid_payload(kind):
    records = (
        _compute("a", 1.0, flops=1.0e9),
        _compute("b", 3.0, flops=3.0e9),
        _comm("x0", 1.0, 1024.0),
        _comm("x1", 2.0, 2048.0),
    )
    return fit_cost_model(Trace(records=records), kind).to_dict()


def _setter(*path_and_value):
    *path, value = path_and_value

    def mutate(payload):
        node = payload
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return mutate


#: (kind, mutation) pairs, each turning a valid saved payload into one the
#: decoder must refuse with a CostModelError — never an uncoded error, never
#: a model that loads and prices wrong.
MALFORMED_PAYLOADS = {
    "table-curve-is-a-string": ("table", _setter("op_curves", "matmul", "x")),
    "table-curve-is-null": ("table", _setter("op_curves", "matmul", None)),
    "table-short-point": ("table", _setter("op_curves", "matmul", [[1.0e9]])),
    "table-string-size": ("table", _setter("op_curves", "matmul", [["1e9", 1.0]])),
    "table-bool-time": ("table", _setter("op_curves", "matmul", [[1.0e9, True]])),
    "table-negative-op-time": (
        "table", _setter("op_curves", "matmul", [[1.0e9, -1.0]])
    ),
    "table-negative-size": (
        "table", _setter("op_curves", "matmul", [[-1.0e9, 1.0]])
    ),
    "table-nan-category-time": (
        "table", _setter("category_curves", "matmul", [[1.0e9, math.nan]])
    ),
    "table-inf-comm-size": (
        "table", _setter("comm_curves", "p2p", [[math.inf, 1.0]])
    ),
    "table-curves-not-an-object": ("table", _setter("op_curves", [])),
    "fitted-empty-global-fit": ("fitted", _setter("global_fit", {})),
    "fitted-unknown-feature": (
        "fitted", _setter("global_fit", "features", ["flops", "bogus"])
    ),
    "fitted-unhashable-feature": (
        "fitted", _setter("global_fit", "features", [["flops"], "const"])
    ),
    "fitted-features-not-a-list": (
        "fitted", _setter("global_fit", "features", 5)
    ),
    "fitted-weight-count-mismatch": (
        "fitted", _setter("global_fit", "weights", [1.0])
    ),
    "fitted-nan-weight": (
        "fitted", _setter("global_fit", "weights", [math.nan, 0.0])
    ),
    "fitted-string-weight": (
        "fitted", _setter("global_fit", "weights", ["1", 0.0])
    ),
    "fitted-category-fit-not-an-object": (
        "fitted", _setter("category_fits", "matmul", "x")
    ),
    "fitted-short-comm-fit": ("fitted", _setter("comm_fits", "p2p", [1.0])),
    "fitted-inf-comm-fit": (
        "fitted", _setter("comm_fits", "p2p", [1.0, math.inf])
    ),
    "fitted-comm-fits-not-an-object": ("fitted", _setter("comm_fits", [])),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_PAYLOADS))
def test_malformed_payloads_raise_cost_model_error(case, tmp_path):
    kind, mutate = MALFORMED_PAYLOADS[case]
    payload = copy.deepcopy(_valid_payload(kind))
    mutate(payload)
    with pytest.raises(CostModelError):
        cost_model_from_dict(payload)
    # The same payload saved to disk (json writes NaN/Infinity) is refused
    # on load, the path every ``cost_model=`` file takes.
    path = tmp_path / "model.json"
    path.write_text(
        json.dumps({"format": "tofu-cost-model", "version": 1,
                    "cost_model": payload}),
        encoding="utf-8",
    )
    with pytest.raises(CostModelError):
        load_cost_model(str(path))


@pytest.mark.parametrize("kind", ["table", "fitted"])
def test_valid_payloads_decode_to_the_same_model(kind):
    payload = _valid_payload(kind)
    assert cost_model_from_dict(copy.deepcopy(payload)).to_dict() == payload


def test_fit_cost_model_rejects_unknown_kind():
    with pytest.raises(CostModelError):
        fit_cost_model(Trace(records=(_compute("a", 1.0, flops=1.0),)), "oracle")


def test_load_cost_model_rejects_wrong_envelope(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else", "version": 1}',
                    encoding="utf-8")
    with pytest.raises(CostModelError, match="format"):
        load_cost_model(str(path))


# ---------------------------------------------------------------- registry
def test_builtin_registry_lists_all_three():
    assert {"roofline", "table", "fitted"} <= set(available_cost_models())


def test_resolve_roofline_and_passthrough():
    roofline = resolve_cost_model("roofline")
    assert roofline.name == "roofline"
    model = RooflineCostModel()
    assert resolve_cost_model(model) is model


def test_resolve_table_without_trace_is_a_helpful_error():
    with pytest.raises(CostModelError, match="trace"):
        resolve_cost_model("table")


def test_resolve_spec_string_with_trace_option(tmp_path):
    from repro.costmodel import save_trace

    trace = Trace(records=(
        _compute("a", 1.0, flops=1.0e9),
        _compute("b", 3.0, flops=3.0e9),
    ))
    path = tmp_path / "trace.json"
    save_trace(trace, str(path))
    model = resolve_cost_model(f"table:trace={path}")
    assert isinstance(model, TableCostModel)


def test_resolve_unknown_name_lists_known_ones():
    with pytest.raises(CostModelError, match="roofline"):
        resolve_cost_model("oracle")


def test_register_and_unregister_custom_model():
    from repro.costmodel import CostModelSpec

    class Flat(RooflineCostModel):
        name = "flat"

    register_cost_model(
        CostModelSpec(name="flat", factory=Flat, description="test model",
                      option_names=())
    )
    try:
        assert "flat" in available_cost_models()
        assert get_cost_model_spec("flat").description == "test model"
        assert resolve_cost_model("flat").name == "flat"
    finally:
        unregister_cost_model("flat")
    assert "flat" not in available_cost_models()


def test_spec_without_option_names_rejects_every_option():
    from repro.costmodel import CostModelSpec

    calls = []

    def factory(**options):
        calls.append(options)
        return RooflineCostModel()

    spec = CostModelSpec(name="no-options", factory=factory,
                         description="test model")
    assert spec.option_names == ()
    register_cost_model(spec)
    try:
        with pytest.raises(CostModelError, match="unknown options"):
            resolve_cost_model("no-options:anything=1")
        assert calls == []
        assert isinstance(resolve_cost_model("no-options"), RooflineCostModel)
    finally:
        unregister_cost_model("no-options")
