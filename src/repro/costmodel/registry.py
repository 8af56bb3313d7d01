"""The string-keyed cost-model registry and ``cost_model=`` resolution.

Built-in kinds — ``roofline`` (parameterless), ``table`` and ``fitted``
(need a ``trace=`` path or a saved-model path to construct) — register at
import time; a new kind is one in-process :func:`register_cost_model` call,
exactly like planner/runtime backends (see ``docs/cost-models.md`` for the
registration recipe).

:func:`resolve_cost_model` is the one spelling-normaliser: it accepts a
:class:`~repro.costmodel.base.CostModel` instance, a registry name
(``"table:trace=/path.json"`` passes constructor options inline), or a path
to a saved-model JSON.  :func:`configured_cost_model` maps the default
spelling to "no scope", and :func:`cost_model_cache_token` makes the
default ``"roofline"`` contribute *nothing* to program-cache keys.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Union

from repro.costmodel.base import CostModel
from repro.costmodel.calibrate import fit_cost_model, load_cost_model
from repro.costmodel.roofline import (
    DEFAULT_COST_MODEL_SIGNATURE,
    RooflineCostModel,
    default_roofline,
)
from repro.errors import CostModelError
from repro.plugins import BackendRegistry

__all__ = [
    "CostModelSpec",
    "available_cost_models",
    "configured_cost_model",
    "cost_model_cache_token",
    "get_cost_model_spec",
    "register_cost_model",
    "resolve_cost_model",
    "unregister_cost_model",
]

@dataclass(frozen=True)
class CostModelSpec:
    """Registry entry for one cost-model kind.

    Attributes:
        name: Registry key (what configs and ``--cost-model`` name).
        factory: Callable building a :class:`CostModel`; keyword options
            come from the ``name:key=value,...`` spelling.
        description: One line for ``available_cost_models`` listings.
        option_names: Keyword options the factory accepts, used for early
            validation (the default accepts none).
    """

    name: str
    factory: Callable[..., CostModel]
    description: str = ""
    option_names: Sequence[str] = ()


_REGISTRY = BackendRegistry(kind="cost-model", error_cls=CostModelError)


def register_cost_model(spec: CostModelSpec, *, replace: bool = False) -> CostModelSpec:
    """Register a cost-model kind.

    Args:
        spec: The spec to add.
        replace: Allow overriding an existing kind of the same name.

    Returns:
        The spec, for decorator-style use.

    Raises:
        CostModelError: When the name is taken and ``replace`` is false.
    """
    return _REGISTRY.register(spec, replace=replace)


def unregister_cost_model(name: str) -> None:
    """Remove a cost-model kind (no-op when absent)."""
    _REGISTRY.unregister(name)


def get_cost_model_spec(name: str) -> CostModelSpec:
    """Look up a kind by name.

    Raises:
        CostModelError: For an unknown kind (message lists what is
            registered).
    """
    return _REGISTRY.get(name)


def available_cost_models() -> List[str]:
    """Sorted names of every registered cost-model kind."""
    return _REGISTRY.available()


# ---------------------------------------------------------------- built-ins
def _roofline_factory(**options) -> CostModel:
    if options:
        raise CostModelError(
            f"the roofline cost model takes no options, got {sorted(options)}"
        )
    return default_roofline()


def _needs_trace_factory(kind: str) -> Callable[..., CostModel]:
    def factory(*, trace: Optional[str] = None, **options) -> CostModel:
        if options:
            raise CostModelError(
                f"cost model {kind!r} got unknown options {sorted(options)} "
                f"(accepted: trace)"
            )
        if trace is None:
            raise CostModelError(
                f"cost model {kind!r} must be fitted from a measured trace; "
                f"spell it {kind}:trace=/path/to/trace.json, or fit and save "
                f"one with `tofu-repro replay --fit {kind} --save-model ...` "
                f"and point cost_model at the saved file"
            )
        return fit_cost_model(trace, kind)

    return factory


register_cost_model(
    CostModelSpec(
        name="roofline",
        factory=_roofline_factory,
        description="analytic roofline pricing (the default; bit-exact)",
        option_names=(),
    )
)
register_cost_model(
    CostModelSpec(
        name="table",
        factory=_needs_trace_factory("table"),
        description="piecewise-linear lookup fitted from a trace "
        "(table:trace=/path.json)",
        option_names=("trace",),
    )
)
register_cost_model(
    CostModelSpec(
        name="fitted",
        factory=_needs_trace_factory("fitted"),
        description="per-category least-squares fitted from a trace "
        "(fitted:trace=/path.json)",
        option_names=("trace",),
    )
)


# ------------------------------------------------------------- resolution
def _parse_spec_string(text: str) -> CostModel:
    name, _, option_text = text.partition(":")
    options = {}
    if option_text:
        for item in option_text.split(","):
            key, sep, value = item.partition("=")
            if not sep or not key:
                raise CostModelError(
                    f"malformed cost-model option {item!r} in {text!r} "
                    f"(expected key=value)"
                )
            options[key.strip()] = value.strip()
    spec = get_cost_model_spec(name.strip())
    unknown = sorted(set(options) - set(spec.option_names))
    if unknown:
        raise CostModelError(
            f"cost model {spec.name!r} got unknown options {unknown} "
            f"(accepted: {sorted(spec.option_names) or 'none'})"
        )
    model = spec.factory(**options)
    if not isinstance(model, CostModel):
        raise CostModelError(
            f"cost-model factory {spec.name!r} returned "
            f"{type(model).__name__}, not a CostModel"
        )
    return model


def resolve_cost_model(value: Union[str, CostModel, None]) -> CostModel:
    """Normalise any cost-model spelling to a :class:`CostModel` instance.

    Accepted spellings:

    * a :class:`CostModel` instance — returned as-is;
    * ``None`` or ``"roofline"`` — the default roofline;
    * a registry name, optionally with options:
      ``"table:trace=/path/to/trace.json"``;
    * a filesystem path to a saved model
      (``save_cost_model`` / ``tofu-repro replay --save-model`` output).

    Raises:
        CostModelError: For unknown names, malformed option strings, or
            unreadable saved-model files.
    """
    if value is None:
        return default_roofline()
    if isinstance(value, CostModel):
        return value
    if not isinstance(value, str):
        raise CostModelError(
            f"cost_model must be a CostModel, a registry name, or a path; "
            f"got {type(value).__name__}"
        )
    # "name:key=value,..." wins over the path heuristic so that a path in an
    # option ("table:trace=/path.json") is not mistaken for a saved model.
    head, sep, _ = value.partition(":")
    if sep and "=" in value:
        try:
            get_cost_model_spec(head.strip())
        except CostModelError:
            pass
        else:
            return _parse_spec_string(value)
    if value.endswith(".json") or os.path.sep in value or os.path.isfile(value):
        return load_cost_model(value)
    return _parse_spec_string(value)


def configured_cost_model(value: Union[str, CostModel, None]) -> Optional[CostModel]:
    """Resolve a ``cost_model=`` / ``--cost-model`` value to the model to
    activate with ``use_cost_model``.

    The default spelling (``None`` / ``"roofline"``) resolves to ``None``,
    leaving the surrounding scope in force.  To force roofline pricing
    *inside* a non-default scope, pass a :class:`RooflineCostModel`
    instance rather than the string.
    """
    if value is None or (isinstance(value, str) and value == "roofline"):
        return None
    model = resolve_cost_model(value)
    if isinstance(model, RooflineCostModel) and not isinstance(value, CostModel):
        # A saved-roofline file is still the default pricing: no override.
        return None
    return model


def cost_model_cache_token(model: Optional[CostModel]) -> Optional[str]:
    """The cache-key contribution of a cost model: its signature, or ``None``
    for the default roofline (so default-priced entries keep their exact
    pre-cost-model cache keys — the compatibility guarantee the README's
    migration note documents)."""
    if model is None:
        return None
    signature = model.signature()
    if signature == DEFAULT_COST_MODEL_SIGNATURE:
        return None
    return signature
