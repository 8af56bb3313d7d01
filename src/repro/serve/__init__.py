"""Compile-as-a-service: a long-lived, concurrent planning server.

A single partition search is expensive; a fleet of trainers asking for the
same model at once should not pay it N times.  This package turns
``repro.compile`` into a shared service with three tiers of reuse —
in-flight singleflight dedup, the plan/program caches, and (only then) a
cold search:

* :class:`CompileService` — the in-process API: a thread pool of compile
  workers over one shared planner and program cache, with singleflight
  deduplication by request content address.
* :class:`CompileServer` / :class:`CompileClient` — a JSON-lines TCP front
  end (``tofu-repro serve``) and its blocking client.
* :mod:`repro.serve.protocol` — the wire format: requests carry the graph,
  canonical strategy string, and machine model; responses stream the
  ``CompiledModel.save()`` payload plus dedup/cache/timing bookkeeping.
"""

from repro.serve.protocol import (
    CompileRequest,
    CompileResponse,
    request_from_wire,
    request_to_wire,
    response_from_wire,
    response_to_wire,
)
from repro.serve.server import CompileClient, CompileServer
from repro.serve.service import CompileService, PendingCompile

__all__ = [
    "CompileClient",
    "CompileRequest",
    "CompileResponse",
    "CompileServer",
    "CompileService",
    "PendingCompile",
    "request_from_wire",
    "request_to_wire",
    "response_from_wire",
    "response_to_wire",
]
