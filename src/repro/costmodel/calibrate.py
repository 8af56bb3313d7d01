"""Calibration: fit a cost model from a measured trace and persist it.

:func:`fit_cost_model` turns a trace into a ``table`` or ``fitted`` model;
:func:`save_cost_model` / :func:`load_cost_model` round-trip any model
through a versioned JSON envelope (``"format": "tofu-cost-model"``), so a
model calibrated once can price later compiles via
``repro.compile(..., cost_model="/path/to/model.json")`` or the CLI's
``--cost-model`` flag, both spellings of ``use_cost_model``.  The
quickstart lives in the README ("Calibrating the simulator"); the benchmark
that re-runs Fig-10 pricing under a calibrated model is
``benchmarks/bench_calibrated.py``.
"""

from __future__ import annotations

import json
import os
from typing import Dict

from repro.costmodel.base import CostModel
from repro.costmodel.fitted import FittedCostModel
from repro.costmodel.roofline import RooflineCostModel
from repro.costmodel.table import TableCostModel
from repro.costmodel.trace import Trace, load_trace
from repro.errors import CostModelError

__all__ = [
    "MODEL_FORMAT",
    "MODEL_VERSION",
    "cost_model_from_dict",
    "fit_cost_model",
    "load_cost_model",
    "save_cost_model",
]

#: Value of the ``"format"`` tag every saved cost model carries.
MODEL_FORMAT = "tofu-cost-model"

#: Current saved-model envelope version.
MODEL_VERSION = 1

_FITTABLE = {"table": TableCostModel.fit, "fitted": FittedCostModel.fit}


def fit_cost_model(trace: "Trace | str | os.PathLike[str]", kind: str) -> CostModel:
    """Calibrate a cost model of ``kind`` from a measured trace.

    Args:
        trace: A validated :class:`Trace`, or a path to a trace JSON file.
        kind: ``"table"`` or ``"fitted"``.

    Returns:
        The calibrated model.

    Raises:
        CostModelError: For an unknown ``kind`` or a trace the model kind
            cannot be fitted from.
        TraceError: When ``trace`` is a path to a malformed trace file.
    """
    if kind not in _FITTABLE:
        known = ", ".join(sorted(_FITTABLE))
        raise CostModelError(
            f"cannot fit a cost model of kind {kind!r} (fittable kinds: {known})"
        )
    if not isinstance(trace, Trace):
        trace = load_trace(trace)
    return _FITTABLE[kind](trace)


def cost_model_from_dict(payload: Dict[str, object]) -> CostModel:
    """Rebuild a cost model from its ``to_dict`` payload.

    Dispatches on the payload's ``"model"`` key (``roofline`` / ``table`` /
    ``fitted``).

    Raises:
        CostModelError: For an unknown or missing model kind, or a payload
            the named kind rejects — any decoder failure, so a malformed
            saved model never escapes as an uncoded error.
    """
    if not isinstance(payload, dict):
        raise CostModelError(
            f"cost-model payload must be an object, got {type(payload).__name__}"
        )
    kind = payload.get("model")
    try:
        if kind == "roofline":
            return RooflineCostModel()
        if kind == "table":
            return TableCostModel.from_dict(payload)
        if kind == "fitted":
            return FittedCostModel.from_dict(payload)
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise CostModelError(
            f"malformed {kind} cost-model payload: {type(exc).__name__}: {exc}"
        ) from exc
    raise CostModelError(
        f"cost-model payload names unknown model kind {kind!r} "
        f"(known: fitted, roofline, table)"
    )


def save_cost_model(model: CostModel, path: "str | os.PathLike[str]") -> None:
    """Write ``model`` to ``path`` as a versioned JSON envelope.

    The envelope is ``{"format": "tofu-cost-model", "version": 1,
    "cost_model": <model.to_dict()>}``, serialised deterministically.
    """
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "cost_model": model.to_dict(),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_cost_model(path: "str | os.PathLike[str]") -> CostModel:
    """Read a cost model saved by :func:`save_cost_model`.

    Args:
        path: Filesystem path of the saved model.

    Returns:
        The reconstructed model.

    Raises:
        CostModelError: When the file cannot be read, is not valid JSON,
            the envelope tags are wrong, or the inner payload is malformed.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            try:
                payload = json.load(handle)
            except json.JSONDecodeError as exc:
                raise CostModelError(
                    f"cost-model file {os.fspath(path)!r} is not valid JSON: {exc}"
                )
    except OSError as exc:
        raise CostModelError(
            f"cannot read cost-model file {os.fspath(path)!r}: {exc}"
        )
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise CostModelError(
            f"file {os.fspath(path)!r} is not a saved cost model "
            f"(expected format tag {MODEL_FORMAT!r})"
        )
    if payload.get("version") != MODEL_VERSION:
        raise CostModelError(
            f"saved cost model has version {payload.get('version')!r}; this "
            f"build reads version {MODEL_VERSION}"
        )
    return cost_model_from_dict(payload.get("cost_model"))
