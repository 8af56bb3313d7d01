"""``repro.analysis`` — static verification of compiler artifacts.

A registry of string-keyed checkers (the :mod:`repro.runtime.backends` spec
pattern) that run over plans, lowered programs, schedules, and machine
models *without simulating*: shard-tiling conservation, schedule soundness
and pipeline deadlock-freedom, comm-link validity, memory-plan
reproducibility, and cache-key completeness.  The checkers back two
surfaces:

* ``ExecutorConfig(verify="off"|"warn"|"strict")`` — a post-lowering pass
  in ``Executor.lower`` (skipped on program-cache hits);
* ``tofu-repro verify <saved-model-or-cache-key>`` — offline verification
  of saved artifacts.

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
from repro.analysis.verify import (
    VERIFY_MODES,
    run_verify_pass,
    validate_verify_mode,
    verify_model,
    verify_program,
)
from repro.errors import AnalysisError

__all__ = [
    "AnalysisError",
    "CheckContext",
    "CheckerSpec",
    "ERROR_CODES",
    "Finding",
    "VERIFY_MODES",
    "VerifyReport",
    "available_checkers",
    "describe_code",
    "get_checker_spec",
    "register_checker",
    "run_verify_pass",
    "unregister_checker",
    "validate_verify_mode",
    "verify_model",
    "verify_program",
]
