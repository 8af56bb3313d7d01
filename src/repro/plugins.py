"""The string-keyed registry shared by the three backend registries.

Search backends (:mod:`repro.planner.backends`), execution backends
(:mod:`repro.runtime.backends`) and analysis checkers
(:mod:`repro.analysis.registry`) are all filled the same way: an in-process
``register_*`` call with a spec.  Built-ins register at import time;
anything else registers by calling the same function.  A spec's unknown
options are rejected by :func:`reject_unknown_options`.
"""

from __future__ import annotations

from typing import Collection, Dict, Iterable, List


class BackendRegistry:
    """String-keyed spec registry: register, unregister, look up, list.

    One implementation behind every registry, so registration, lookup and
    listing behave identically everywhere (one fix applies to all three).
    """

    def __init__(self, *, kind: str, error_cls: type):
        self.kind = kind
        self.error_cls = error_cls
        self.specs: Dict[str, object] = {}

    def register(self, spec, *, replace: bool = False):
        name = spec.name
        if name in self.specs and not replace:
            raise self.error_cls(
                f"{self.kind} backend {name!r} is already registered"
            )
        self.specs[name] = spec
        return spec

    def unregister(self, name: str) -> None:
        self.specs.pop(name, None)

    def get(self, name: str):
        try:
            return self.specs[name]
        except KeyError:
            known = ", ".join(sorted(self.specs))
            raise self.error_cls(
                f"unknown {self.kind} backend {name!r} (registered: {known})"
            ) from None

    def available(self) -> List[str]:
        return sorted(self.specs)


def reject_unknown_options(
    options: Iterable[str],
    accepted: Collection[str],
    *,
    owner: str,
    error_cls: type,
) -> None:
    """Raise ``error_cls`` naming ``owner`` when an option name is not in
    ``accepted`` (the supported names are listed, or ``none``)."""
    unknown = sorted(set(options) - set(accepted))
    if unknown:
        supported = ", ".join(sorted(accepted)) or "none"
        raise error_cls(
            f"{owner} does not accept option(s) {unknown} "
            f"(supported: {supported})"
        )
