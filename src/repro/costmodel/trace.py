"""Measured-trace payloads: the versioned JSON schema and its validator.

A *trace* is a list of per-task measurements — compute records carrying the
operator features the cost models consume (flops, bytes, output elements)
and comm records carrying transfer volume — each with a measured duration in
seconds.  The on-disk format is JSON with ``{"format": "tofu-trace",
"version": 1, "records": [...]}``; the full schema, field-by-field, lives in
``docs/trace-schema.md``.

Validation is strict and structured: every malformed record raises
:class:`repro.errors.TraceError` with a ``record #i (name='...')`` message
plus ``index``/``record_name`` attributes, so a 10k-record trace with one
NaN timing is debuggable from the exception alone.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import TraceError

__all__ = [
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "Trace",
    "TraceRecord",
    "load_trace",
    "save_trace",
    "trace_from_dict",
    "trace_to_dict",
]

#: Value of the ``"format"`` tag every trace payload must carry.
TRACE_FORMAT = "tofu-trace"

#: Current (and only) trace schema version.
TRACE_VERSION = 1

_RECORD_KINDS = ("compute", "comm")


@dataclass(frozen=True)
class TraceRecord:
    """One measured task.

    Attributes:
        name: Unique-ish label of the task (node or transfer name).
        kind: ``"compute"`` or ``"comm"``.
        duration: Measured wall time in seconds (finite, >= 0).
        op: Operator name (compute records; ``""`` for comm).
        category: Operator cost category (compute records; ``""`` for comm).
        flops: Floating-point operations (compute records).
        mem_bytes: Bytes read + written (compute records).
        out_elements: Output tensor elements (compute records).
        comm_bytes: Transfer volume in bytes (comm records).
        channel: Transfer channel name (comm records; e.g. ``"p2p"``).
        device: Optional device label the task ran on.
        deps: Names of records this task waited on (used by replay to
            rebuild the DAG; empty means source task).
    """

    name: str
    kind: str
    duration: float
    op: str = ""
    category: str = ""
    flops: float = 0.0
    mem_bytes: float = 0.0
    out_elements: float = 0.0
    comm_bytes: float = 0.0
    channel: str = "p2p"
    device: str = ""
    deps: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form of this record (inverse of
        :meth:`from_dict`); omits empty optional fields for compactness."""
        payload: Dict[str, object] = {
            "name": self.name,
            "kind": self.kind,
            "duration": self.duration,
        }
        if self.kind == "compute":
            payload["op"] = self.op
            payload["category"] = self.category
            payload["flops"] = self.flops
            payload["mem_bytes"] = self.mem_bytes
            payload["out_elements"] = self.out_elements
        else:
            payload["comm_bytes"] = self.comm_bytes
            payload["channel"] = self.channel
        if self.device:
            payload["device"] = self.device
        if self.deps:
            payload["deps"] = list(self.deps)
        return payload


@dataclass(frozen=True)
class Trace:
    """A validated sequence of :class:`TraceRecord`, plus free-form metadata.

    Attributes:
        records: The measured tasks, in file order.
        metadata: Optional provenance (hardware, framework, date, ...);
            carried through save/load untouched.
    """

    records: Tuple[TraceRecord, ...]
    metadata: Dict[str, object] = field(default_factory=dict)

    def compute_records(self) -> List[TraceRecord]:
        """The compute-kind records, in file order."""
        return [r for r in self.records if r.kind == "compute"]

    def comm_records(self) -> List[TraceRecord]:
        """The comm-kind records, in file order."""
        return [r for r in self.records if r.kind == "comm"]


def _record_error(index: int, name: object, problem: str) -> TraceError:
    label = name if isinstance(name, str) else "?"
    return TraceError(
        f"record #{index} (name='{label}'): {problem}",
        index=index,
        record_name=label if isinstance(name, str) else None,
    )


def _require_finite_number(
    value: object, *, index: int, name: object, fieldname: str, minimum: float = 0.0
) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _record_error(
            index, name, f"field '{fieldname}' must be a number, got {value!r}"
        )
    value = float(value)
    if math.isnan(value) or math.isinf(value):
        raise _record_error(
            index, name, f"field '{fieldname}' must be finite, got {value!r}"
        )
    if value < minimum:
        raise _record_error(
            index, name, f"field '{fieldname}' must be >= {minimum}, got {value!r}"
        )
    return value


def _record_from_dict(payload: object, index: int) -> TraceRecord:
    if not isinstance(payload, dict):
        raise _record_error(
            index, None, f"record must be an object, got {type(payload).__name__}"
        )
    name = payload.get("name")
    if not isinstance(name, str) or not name:
        raise _record_error(index, name, "missing required field 'name'")
    kind = payload.get("kind")
    if kind not in _RECORD_KINDS:
        raise _record_error(
            index,
            name,
            f"field 'kind' must be one of {list(_RECORD_KINDS)}, got {kind!r}",
        )
    if "duration" not in payload:
        raise _record_error(index, name, "missing required field 'duration'")
    duration = _require_finite_number(
        payload["duration"], index=index, name=name, fieldname="duration"
    )
    deps_raw = payload.get("deps", [])
    if not isinstance(deps_raw, list) or not all(
        isinstance(d, str) for d in deps_raw
    ):
        raise _record_error(index, name, "field 'deps' must be a list of strings")
    device = payload.get("device", "")
    if not isinstance(device, str):
        raise _record_error(index, name, "field 'device' must be a string")

    if kind == "compute":
        op = payload.get("op")
        if not isinstance(op, str) or not op:
            raise _record_error(
                index, name, "compute record missing required field 'op'"
            )
        category = payload.get("category", "general")
        if not isinstance(category, str) or not category:
            raise _record_error(index, name, "field 'category' must be a string")
        numbers = {
            fieldname: _require_finite_number(
                payload.get(fieldname, 0.0),
                index=index,
                name=name,
                fieldname=fieldname,
            )
            for fieldname in ("flops", "mem_bytes", "out_elements")
        }
        return TraceRecord(
            name=name,
            kind="compute",
            duration=duration,
            op=op,
            category=category,
            device=device,
            deps=tuple(deps_raw),
            **numbers,
        )

    comm_bytes = _require_finite_number(
        payload.get("comm_bytes", 0.0), index=index, name=name, fieldname="comm_bytes"
    )
    channel = payload.get("channel", "p2p")
    if not isinstance(channel, str) or not channel:
        raise _record_error(index, name, "field 'channel' must be a string")
    return TraceRecord(
        name=name,
        kind="comm",
        duration=duration,
        comm_bytes=comm_bytes,
        channel=channel,
        device=device,
        deps=tuple(deps_raw),
    )


def trace_from_dict(payload: object) -> Trace:
    """Validate a parsed JSON payload into a :class:`Trace`.

    Args:
        payload: The parsed ``{"format", "version", "records", ...}`` object.

    Returns:
        The validated trace.

    Raises:
        TraceError: On a wrong format tag, an unsupported version, or any
            malformed record (message names the record: ``record #i
            (name='x'): ...``).
    """
    if not isinstance(payload, dict):
        raise TraceError(
            f"trace payload must be an object, got {type(payload).__name__}"
        )
    fmt = payload.get("format")
    if fmt != TRACE_FORMAT:
        raise TraceError(
            f"trace payload has format {fmt!r}, expected {TRACE_FORMAT!r}"
        )
    version = payload.get("version")
    if version != TRACE_VERSION:
        raise TraceError(
            f"trace payload has version {version!r}; this build reads "
            f"version {TRACE_VERSION}"
        )
    records_raw = payload.get("records")
    if not isinstance(records_raw, list):
        raise TraceError("trace payload is missing the 'records' list")
    records = tuple(
        _record_from_dict(record, index) for index, record in enumerate(records_raw)
    )
    seen: Dict[str, int] = {}
    for index, record in enumerate(records):
        if record.name in seen:
            raise _record_error(
                index,
                record.name,
                f"duplicate record name (first used by record #{seen[record.name]})",
            )
        seen[record.name] = index
    for index, record in enumerate(records):
        for dep in record.deps:
            if dep not in seen:
                raise _record_error(
                    index, record.name, f"dep '{dep}' names no record in this trace"
                )
    metadata = payload.get("metadata", {})
    if not isinstance(metadata, dict):
        raise TraceError("trace 'metadata' must be an object when present")
    return Trace(records=records, metadata=dict(metadata))


def trace_to_dict(trace: Trace) -> Dict[str, object]:
    """Serialise a :class:`Trace` to its JSON payload (inverse of
    :func:`trace_from_dict`)."""
    payload: Dict[str, object] = {
        "format": TRACE_FORMAT,
        "version": TRACE_VERSION,
        "records": [record.to_dict() for record in trace.records],
    }
    if trace.metadata:
        payload["metadata"] = dict(trace.metadata)
    return payload


def load_trace(path: "str | os.PathLike[str]") -> Trace:
    """Read and validate a trace JSON file.

    Args:
        path: Filesystem path of the trace.

    Returns:
        The validated :class:`Trace`.

    Raises:
        TraceError: When the file cannot be read, is not valid JSON, or
            fails schema validation.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            try:
                payload = json.load(handle)
            except json.JSONDecodeError as exc:
                raise TraceError(
                    f"trace file {os.fspath(path)!r} is not valid JSON: {exc}"
                )
    except OSError as exc:
        raise TraceError(f"cannot read trace file {os.fspath(path)!r}: {exc}")
    return trace_from_dict(payload)


def save_trace(trace: Trace, path: "str | os.PathLike[str]") -> None:
    """Write a trace as deterministic (sorted-key, indented) JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace_to_dict(trace), handle, indent=2, sort_keys=True)
        handle.write("\n")
