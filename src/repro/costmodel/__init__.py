"""Pluggable per-op cost models for the simulator.

The simulator prices every kernel and transfer through a *cost model*.  The
default is the analytic roofline the paper's evaluation uses (bit-exact
with the pre-subsystem pricing); ``table`` and ``fitted`` models calibrate
that pricing from measured traces, and further kinds register in-process
with :func:`register_cost_model`.  The written
contract — interface, trace schema, cache-key semantics, registration —
lives in ``docs/cost-models.md`` and ``docs/trace-schema.md``.

Typical calibration loop::

    from repro.costmodel import fit_cost_model, load_trace, replay_trace

    trace = load_trace("trace.json")
    table = fit_cost_model(trace, "table")
    report = replay_trace(trace, {"roofline": resolve_cost_model("roofline"),
                                  "table": table})

then activate the calibrated model with the one pricing scope::

    with use_cost_model(table):
        result = repro.compile(graph, "tofu", machine, num_workers=8)

``repro.compile(..., cost_model=table)`` and the CLI's ``--cost-model`` are
spellings of the same scope.  Pricing never moves a plan (the search
minimises communication bytes), so plans are shared across models and only
program-cache keys carry the model's signature.
"""

from repro.costmodel.base import (
    CostModel,
    OpSample,
    active_cost_model,
    use_cost_model,
)
from repro.costmodel.calibrate import (
    cost_model_from_dict,
    fit_cost_model,
    load_cost_model,
    save_cost_model,
)
from repro.costmodel.fitted import FittedCostModel
from repro.costmodel.registry import (
    CostModelSpec,
    available_cost_models,
    configured_cost_model,
    cost_model_cache_token,
    get_cost_model_spec,
    register_cost_model,
    resolve_cost_model,
    unregister_cost_model,
)
from repro.costmodel.replay import render_report, replay_trace, write_report
from repro.costmodel.roofline import RooflineCostModel, default_roofline
from repro.costmodel.table import TableCostModel
from repro.costmodel.trace import (
    Trace,
    TraceRecord,
    load_trace,
    save_trace,
    trace_from_dict,
    trace_to_dict,
)
from repro.errors import CostModelError, TraceError

__all__ = [
    "CostModel",
    "CostModelError",
    "CostModelSpec",
    "FittedCostModel",
    "OpSample",
    "RooflineCostModel",
    "TableCostModel",
    "Trace",
    "TraceError",
    "TraceRecord",
    "active_cost_model",
    "available_cost_models",
    "configured_cost_model",
    "cost_model_cache_token",
    "cost_model_from_dict",
    "default_roofline",
    "fit_cost_model",
    "get_cost_model_spec",
    "load_cost_model",
    "load_trace",
    "register_cost_model",
    "render_report",
    "replay_trace",
    "resolve_cost_model",
    "save_cost_model",
    "save_trace",
    "trace_from_dict",
    "trace_to_dict",
    "unregister_cost_model",
    "use_cost_model",
    "write_report",
]
