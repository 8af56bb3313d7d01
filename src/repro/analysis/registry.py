"""The string-keyed registry of static checkers.

Follows the exact spec pattern of :mod:`repro.runtime.backends`: built-in
checkers register at import time (:mod:`repro.analysis.verify` pulls them
in), and a new checker is one in-process :func:`register_checker` call.  A
checker is a function ``(CheckContext) -> List[Finding]`` — see
:mod:`repro.analysis.base` for the contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.analysis.base import CheckContext, Finding
from repro.errors import AnalysisError
from repro.plugins import BackendRegistry

__all__ = [
    "CheckerSpec",
    "available_checkers",
    "get_checker_spec",
    "register_checker",
    "unregister_checker",
]

@dataclass(frozen=True)
class CheckerSpec:
    """Registry entry for one static checker.

    Attributes:
        name: Registry key (what ``verify_program(checkers=[...])`` names).
        check: The checker function; takes a
            :class:`~repro.analysis.base.CheckContext`, returns findings.
        description: One line for ``available_checkers`` listings and the
            registry-hygiene lint.
        codes: The error codes this checker can emit (documentation and
            test cross-referencing; not enforced at run time).
    """

    name: str
    check: Callable[[CheckContext], List[Finding]]
    description: str = ""
    codes: Optional[Sequence[str]] = None


_REGISTRY = BackendRegistry(kind="analysis-checker", error_cls=AnalysisError)


def register_checker(spec: CheckerSpec, *, replace: bool = False) -> CheckerSpec:
    """Register a static checker.

    Args:
        spec: The spec to add.
        replace: Allow overriding an existing checker of the same name.

    Returns:
        The spec, for decorator-style use.

    Raises:
        AnalysisError: When the name is taken and ``replace`` is false.
    """
    return _REGISTRY.register(spec, replace=replace)


def unregister_checker(name: str) -> None:
    """Remove a checker (no-op when absent)."""
    _REGISTRY.unregister(name)


def get_checker_spec(name: str) -> CheckerSpec:
    """Look up a checker by name.

    Raises:
        AnalysisError: For an unknown checker (message lists what is
            registered).
    """
    return _REGISTRY.get(name)


def available_checkers() -> List[str]:
    """Sorted names of every registered checker."""
    return _REGISTRY.available()
