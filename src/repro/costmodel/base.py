"""The :class:`CostModel` contract — what a pricing model must implement.

A cost model answers two questions the lowering passes ask while pricing a
program: how long does one kernel launch take (:meth:`CostModel.op_time`,
fed an :class:`repro.sim.costmodel.OpSample` of operator features), and —
optionally — how long does one transfer take (:meth:`CostModel.comm_time`;
returning ``None`` keeps the simulator's link-bandwidth pricing).  Models
are content-addressed (:meth:`CostModel.signature`) so the program cache can
fold "which model priced this" into its keys.  The full written contract
lives in ``docs/cost-models.md``.

Activation is scoped, not global: :func:`use_cost_model` sets the model for
the current context (a :mod:`contextvars` context, so concurrent compile
threads do not leak models into each other).  It is the one mechanism for
choosing a model; :func:`active_cost_model` reports what is in effect
(``None`` for the built-in roofline).
"""

from __future__ import annotations

import abc
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from repro.caching import content_key
from repro.errors import CostModelError
from repro.sim.costmodel import _ACTIVE_COST_MODEL, OpSample, active_cost_model
from repro.sim.device import DeviceSpec, Link, MachineSpec

__all__ = [
    "CostModel",
    "OpSample",
    "active_cost_model",
    "use_cost_model",
]


class CostModel(abc.ABC):
    """Per-op (and optionally per-transfer) pricing for the simulator.

    Subclasses implement :meth:`op_time` and :meth:`to_dict`; everything
    else has a sensible default.  Instances must be immutable once priced
    into a program — the caches trust :meth:`signature` to capture the whole
    model.
    """

    #: Provenance label of this model kind (the prefix of its signature).
    name: str = "abstract"

    @abc.abstractmethod
    def op_time(
        self, sample: OpSample, device: DeviceSpec, machine: MachineSpec
    ) -> float:
        """Predicted execution time (seconds) of one kernel launch.

        Args:
            sample: Operator features, already scaled to the per-device
                shard under partitioned execution.
            device: The device the kernel runs on.
            machine: The machine (or cluster) model, for launch overheads.

        Returns:
            The predicted kernel time in seconds (must be finite and
            non-negative).
        """

    def comm_time(
        self,
        comm_bytes: float,
        *,
        link: Optional[Link] = None,
        channel: Optional[str] = None,
    ) -> Optional[float]:
        """Predicted transfer time (seconds) of one communication task.

        Args:
            comm_bytes: Transfer volume in bytes.
            link: The resolved :class:`repro.sim.device.Link` the transfer
                crosses, when the emitter knows it.
            channel: The channel name (``"p2p"``/``"cpu"``/``"net"``) under
                the legacy spelling.

        Returns:
            The predicted transfer time, or ``None`` to keep the default
            link pricing (``link.transfer_time(comm_bytes)``) — which is
            what this base implementation always does.
        """
        return None

    @abc.abstractmethod
    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable content of the model (must carry a ``"model"``
        key naming the kind); :meth:`signature` hashes it."""

    def signature(self) -> str:
        """Content address of this model: ``"<name>:<sha256 of to_dict()>"``.

        Folded into plan/program cache keys when the model prices
        differently from the default roofline, so two models that differ
        anywhere can never collide on one cache entry.
        """
        return f"{self.name}:{content_key(self.to_dict())}"

    def __repr__(self) -> str:
        return f"{type(self).__name__}(signature={self.signature()!r})"


@contextmanager
def use_cost_model(model: Optional[CostModel]) -> Iterator[Optional[CostModel]]:
    """Activate ``model`` for the duration of the ``with`` block.

    Every kernel-costing and comm-emission pass running inside the block
    prices through ``model``; the previous model (usually none) is restored
    on exit, even across exceptions.  ``None`` is a no-op context, so
    callers can write ``with use_cost_model(maybe_model):`` unconditionally.

    Args:
        model: The model to activate, or ``None`` to leave pricing as-is.

    Yields:
        The model passed in (for ``with ... as model`` spellings).

    Raises:
        CostModelError: When ``model`` is neither a :class:`CostModel` nor
            ``None``.
    """
    if model is None:
        yield None
        return
    if not isinstance(model, CostModel):
        raise CostModelError(
            f"use_cost_model needs a CostModel instance, got "
            f"{type(model).__name__}"
        )
    token = _ACTIVE_COST_MODEL.set(model)
    try:
        yield model
    finally:
        _ACTIVE_COST_MODEL.reset(token)
