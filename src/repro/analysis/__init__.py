"""``repro.analysis`` — static verification of compiler artifacts.

A registry of string-keyed checkers (the :mod:`repro.runtime.backends` spec
pattern) that run over plans, lowered programs, schedules, and machine
models *without simulating*: shard-tiling conservation, schedule soundness
and pipeline deadlock-freedom, comm-link validity, memory-plan
reproducibility, and cache-key completeness.  The checkers back two
surfaces:

* :func:`verify_program` (a lowered program, with its graph and plan when
  available) and :func:`verify_model` (a ``CompiledModel``) — library
  calls returning a :class:`VerifyReport`;
* ``tofu-repro verify <saved-model>`` — offline verification of a model
  saved with ``compile --save``.

Each finding carries a stable error code (``ANA003_CYCLIC_SCHEDULE``
style); the catalogue lives in :data:`ERROR_CODES` and ``docs/verifier.md``.
"""

from repro.analysis.base import CheckContext, Finding, VerifyReport
from repro.analysis.codes import ERROR_CODES, describe_code
from repro.analysis.registry import (
    CheckerSpec,
    available_checkers,
    get_checker_spec,
    register_checker,
    unregister_checker,
)
from repro.analysis.verify import verify_model, verify_program
from repro.errors import AnalysisError

__all__ = [
    "AnalysisError",
    "CheckContext",
    "CheckerSpec",
    "ERROR_CODES",
    "Finding",
    "VerifyReport",
    "available_checkers",
    "describe_code",
    "get_checker_spec",
    "register_checker",
    "unregister_checker",
    "verify_model",
    "verify_program",
]
