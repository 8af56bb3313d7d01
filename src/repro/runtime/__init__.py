"""Unified runtime subsystem — the execution twin of :mod:`repro.planner`.

One staged lowering pipeline — ``Graph`` (+ optional ``PartitionPlan``) →
:class:`LoweredProgram` of device-assigned compute/comm tasks + memory report
→ simulated :class:`repro.sim.engine.SimResult` — behind the
:class:`Executor` facade, with pluggable execution backends
(:mod:`repro.runtime.backends`) selected by string key, mirroring the
planner's search-backend registry.

Stages and where they come from in the paper:

===========================  ==============================================
Stage                        Paper section
===========================  ==============================================
Topo scheduling              Sec 6 — dependency-driven execution order
                             (MXNet's scheduler the evaluation relies on)
Liveness + memory planning   Sec 6 — static buffer reuse under control
                             dependencies; per-worker footprint of Sec 5
Kernel-time costing          Sec 7.1 — the simulated K80 roofline that
                             prices each sharded kernel
Comm-task emission           Sec 6 — remote fetch (MultiFetch) and
                             spread-out reduction traffic, priced by the
                             link each transfer crosses (PCI-e / shared CPU
                             link of Sec 7.1, or the inter-machine network
                             of a hierarchical ``ClusterSpec``)
Simulation                   Sec 7 — one training iteration under per-link
                             contention (:mod:`repro.sim.engine`)
===========================  ==============================================

Built-in execution backends: ``tofu-partitioned`` (Sec 6), ``single-device``
(Ideal/SmallBatch, Sec 7.1), ``placement`` (operator placement, Sec 7.1),
``data-parallel`` (a full replica per device, ring all-reduce), ``swap``
(the LRU swapping baseline, Sec 7.1/7.2), ``pipeline`` (GPipe/1F1B
micro-batch pipelining) and ``hybrid`` (data-parallel replica groups over
any inner backend).  Further backends register in-process with
:func:`register_execution_backend`.
"""

from repro.runtime.backends import (
    ExecutionBackend,
    ExecutionBackendSpec,
    available_execution_backends,
    get_execution_backend,
    register_execution_backend,
    unregister_execution_backend,
)
from repro.runtime.cache import (
    ProgramCache,
    default_program_cache,
    lowered_cache_key,
)
from repro.runtime.core import Executor, ExecutorConfig
from repro.runtime.program import LoweredProgram

__all__ = [
    "ExecutionBackend",
    "ExecutionBackendSpec",
    "Executor",
    "ExecutorConfig",
    "LoweredProgram",
    "ProgramCache",
    "available_execution_backends",
    "default_program_cache",
    "get_execution_backend",
    "lowered_cache_key",
    "register_execution_backend",
    "unregister_execution_backend",
]
