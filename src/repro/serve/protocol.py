"""Wire protocol of the compile service.

One compile request is (graph, strategy, machine, options); one response is
the :meth:`repro.compiler.CompiledModel.to_dict` payload — byte-identical to
what ``CompiledModel.save()`` writes — plus bookkeeping: the request's
content address, whether the answer was deduplicated against an in-flight
identical request, per-stage timings, and cache counters.

Everything crosses the wire as JSON (one object per line on the TCP
front end), built from codecs the caches already trust:
:func:`repro.graph.serialization.graph_to_dict` for graphs,
:func:`repro.sim.device.machine_to_dict` for machines, canonical strategy
strings for strategies.  The request's :meth:`CompileRequest.key` is a
SHA-256 content address over exactly those canonical encodings — the same
hashing discipline as the plan/program caches — which is what makes
singleflight deduplication safe: two requests share one search only when
every compile-relevant input hashes identically.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Union

from repro.caching import content_key, graph_signature, machine_signature
from repro.errors import StrategyError
from repro.graph.graph import Graph
from repro.graph.serialization import graph_from_dict, graph_to_dict
from repro.sim.device import Topology, machine_from_dict, machine_to_dict
from repro.strategy.algebra import Strategy, parse

__all__ = [
    "CompileRequest",
    "CompileResponse",
    "REQUEST_FORMAT",
    "RESPONSE_FORMAT",
    "WIRE_VERSION",
    "request_from_wire",
    "request_to_wire",
    "response_from_wire",
    "response_to_wire",
]

REQUEST_FORMAT = "tofu-compile-request"
RESPONSE_FORMAT = "tofu-compile-response"
WIRE_VERSION = 1


@dataclass
class CompileRequest:
    """One compile job: everything ``repro.compile`` needs, serialisable.

    ``strategy`` is a :class:`Strategy` tree, its canonical string, or
    ``"auto"``; ``machine`` is optional exactly as in ``repro.compile``
    (``num_workers`` sizes the default box).  ``tuner`` configures the
    ``"auto"`` sweep — a JSON object of ``max_candidates`` /
    ``max_seconds``, applied as a :class:`repro.tuner.TunerBudget`; ``None``
    keeps the default bounded sweep.  ``request_id`` is an opaque client token echoed
    back in the response so a pipelining client can match out-of-order
    completions.
    """

    graph: Graph
    strategy: Union[Strategy, str] = "tofu"
    machine: Optional[Topology] = None
    num_workers: Optional[int] = None
    plan_options: Optional[Dict[str, object]] = None
    backend_options: Optional[Dict[str, object]] = None
    simulate: bool = True
    tuner: Optional[Dict[str, object]] = None
    request_id: Optional[str] = None

    def strategy_text(self) -> str:
        """The canonical strategy string (``"auto"`` passes through).

        Canonicalisation matters for dedup: ``"dp:2/tofu"`` spelled with
        stray whitespace or built as a tree must produce one key.
        """
        if isinstance(self.strategy, Strategy):
            return str(self.strategy)
        text = str(self.strategy).strip()
        if text.lower() == "auto":
            return "auto"
        return str(parse(text))

    def key(self) -> str:
        """Content address of the request — the singleflight/dedup identity.

        Covers every input that can change the compiled artefact: graph
        content, canonical strategy, machine model, worker count, planner
        and backend options, the simulate flag, and (when set) the tuner
        options — tuned and default auto sweeps can pick different winners,
        so they must not dedup onto one key.  The field is folded in only
        when present, keeping every pre-tuner key stable.  Raises
        ``TypeError`` for non-JSON-serialisable options (such requests
        cannot be deduped and run unshared).
        """
        return content_key(
            {
                "graph": graph_signature(self.graph),
                "strategy": self.strategy_text(),
                "machine": machine_signature(self.machine),
                "num_workers": self.num_workers,
                "plan_options": self.plan_options,
                "backend_options": self.backend_options,
                "simulate": bool(self.simulate),
                **(
                    {"tuner": self.tuner} if self.tuner is not None else {}
                ),
            }
        )


@dataclass
class CompileResponse:
    """Outcome of one request.

    ``model`` is the :meth:`CompiledModel.to_dict` payload (``None`` on
    error) — reconstruct with :meth:`CompiledModel.from_dict`.  ``deduped``
    marks a follower that shared an in-flight leader's search; ``stats``
    carries the per-request cache/search counters, ``timings`` the
    per-request profile snapshot (stage seconds and call counts).
    """

    status: str  # "ok" | "error"
    model: Optional[Dict[str, object]] = None
    error: Optional[str] = None
    request_key: str = ""
    request_id: Optional[str] = None
    deduped: bool = False
    elapsed_seconds: float = 0.0
    stats: Dict[str, float] = field(default_factory=dict)
    timings: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Whether the compile succeeded (``error`` is unset)."""
        return self.status == "ok"

    def as_dedup_follower(self, request_id: Optional[str] = None) -> "CompileResponse":
        """A copy marked as served by singleflight dedup (leader unchanged)."""
        return dataclasses.replace(
            self, deduped=True, request_id=request_id or self.request_id
        )


# ---------------------------------------------------------------------------
# Wire codecs
# ---------------------------------------------------------------------------
def request_to_wire(request: CompileRequest) -> Dict[str, object]:
    """JSON-serialisable form of a request; inverse of
    :func:`request_from_wire`."""
    return {
        "format": REQUEST_FORMAT,
        "version": WIRE_VERSION,
        "graph": graph_to_dict(request.graph),
        "strategy": request.strategy_text(),
        "machine": (
            None if request.machine is None else machine_to_dict(request.machine)
        ),
        "num_workers": request.num_workers,
        "plan_options": request.plan_options,
        "backend_options": request.backend_options,
        "simulate": bool(request.simulate),
        "tuner": request.tuner,
        "id": request.request_id,
    }


def request_from_wire(payload: Mapping[str, object]) -> CompileRequest:
    """Rebuild a request from :func:`request_to_wire` output.

    Raises :class:`StrategyError` on an unrecognised format or version, or
    on a field of the wrong type (a graph that is not an object, a
    ``num_workers`` that is not a positive int, options that are not an
    object, a ``simulate`` that is not a bool), so the server can answer
    with a structured error instead of a stack trace.
    """
    if not isinstance(payload, Mapping):
        raise StrategyError("compile request must be a JSON object")
    if payload.get("format") != REQUEST_FORMAT:
        raise StrategyError(
            f"not a {REQUEST_FORMAT} payload (format={payload.get('format')!r})"
        )
    if payload.get("version") != WIRE_VERSION:
        raise StrategyError(
            f"unsupported compile-request version {payload.get('version')!r} "
            f"(this server speaks version {WIRE_VERSION})"
        )
    if "graph" not in payload or payload["graph"] is None:
        raise StrategyError("compile request carries no graph")
    if not isinstance(payload["graph"], Mapping):
        raise StrategyError("compile request's graph must be a JSON object")
    num_workers = payload.get("num_workers")
    if num_workers is not None and (
        isinstance(num_workers, bool)
        or not isinstance(num_workers, int)
        or num_workers < 1
    ):
        raise StrategyError(
            f"num_workers must be null or a positive integer, got {num_workers!r}"
        )
    for name in ("plan_options", "backend_options"):
        value = payload.get(name)
        if value is not None and not isinstance(value, Mapping):
            raise StrategyError(
                f"{name} must be a JSON object or null, got {value!r}"
            )
    simulate = payload.get("simulate", True)
    if not isinstance(simulate, bool):
        raise StrategyError(f"simulate must be true or false, got {simulate!r}")
    machine_payload = payload.get("machine")
    return CompileRequest(
        graph=graph_from_dict(payload["graph"]),
        strategy=str(payload.get("strategy", "tofu")),
        machine=(
            None if machine_payload is None else machine_from_dict(machine_payload)
        ),
        num_workers=num_workers,
        plan_options=payload.get("plan_options"),
        backend_options=payload.get("backend_options"),
        simulate=simulate,
        tuner=payload.get("tuner"),
        request_id=payload.get("id"),
    )


def response_to_wire(response: CompileResponse) -> Dict[str, object]:
    """JSON-serialisable form of a response; inverse of
    :func:`response_from_wire`."""
    return {
        "format": RESPONSE_FORMAT,
        "version": WIRE_VERSION,
        "status": response.status,
        "model": response.model,
        "error": response.error,
        "request_key": response.request_key,
        "id": response.request_id,
        "deduped": response.deduped,
        "elapsed_seconds": response.elapsed_seconds,
        "stats": response.stats,
        "timings": response.timings,
    }


def response_from_wire(payload: Mapping[str, object]) -> CompileResponse:
    """Rebuild a response from :func:`response_to_wire` output."""
    if payload.get("format") != RESPONSE_FORMAT:
        raise StrategyError(
            f"not a {RESPONSE_FORMAT} payload (format={payload.get('format')!r})"
        )
    return CompileResponse(
        status=str(payload.get("status", "error")),
        model=payload.get("model"),
        error=payload.get("error"),
        request_key=str(payload.get("request_key", "")),
        request_id=payload.get("id"),
        deduped=bool(payload.get("deduped", False)),
        elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
        stats=dict(payload.get("stats") or {}),
        timings=dict(payload.get("timings") or {}),
    )
