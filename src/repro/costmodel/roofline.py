"""The built-in roofline cost model — the default pricing, as a plugin.

:class:`RooflineCostModel` wraps :func:`repro.sim.costmodel.kernel_time`
behind the :class:`~repro.costmodel.base.CostModel` interface, producing
bit-identical numbers to the inline default path (same arithmetic, same
constants).  It exists so callers can force roofline pricing inside a scope
where another model is active, and so a model can subclass the roofline.

:data:`DEFAULT_COST_MODEL_SIGNATURE` is the signature of the parameterless
roofline; :func:`cost_model_cache_token` maps it (and no model at all) to
``None``, so default-priced programs contribute nothing to cache keys, which
is what keeps every pre-existing cache entry valid.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.costmodel.base import CostModel, OpSample
from repro.sim.costmodel import kernel_time
from repro.sim.device import DeviceSpec, MachineSpec

__all__ = [
    "DEFAULT_COST_MODEL_SIGNATURE",
    "RooflineCostModel",
    "cost_model_cache_token",
    "default_roofline",
]


class RooflineCostModel(CostModel):
    """Analytic roofline pricing (the simulator's default, bit-exact).

    ``op_time`` is ``max(flops / (peak_flops · efficiency),
    mem_bytes / mem_bandwidth) + launch_overhead`` with per-category
    efficiency factors and a saturation ramp on small outputs — exactly the
    arithmetic of :func:`repro.sim.costmodel.kernel_time`.  ``comm_time``
    returns ``None``: transfers keep the simulator's link pricing.
    """

    name = "roofline"

    def op_time(
        self, sample: OpSample, device: DeviceSpec, machine: MachineSpec
    ) -> float:
        """Roofline kernel-time estimate for ``sample`` on ``device``.

        Args:
            sample: Operator features (flops/bytes/output parallelism).
            device: Device whose peak FLOPs and bandwidth bound the kernel.
            machine: Machine model supplying the launch overhead.

        Returns:
            The estimated kernel time in seconds.
        """
        return kernel_time(
            sample.flops,
            sample.mem_bytes,
            device,
            machine,
            category=sample.category,
            parallel_elements=sample.out_elements,
        )

    def to_dict(self) -> Dict[str, object]:
        """Serialised form: ``{"model": "roofline"}`` (the model has no
        parameters beyond the machine spec it is handed at pricing time)."""
        return {"model": self.name}


_DEFAULT = RooflineCostModel()


def default_roofline() -> RooflineCostModel:
    """The shared default :class:`RooflineCostModel` instance."""
    return _DEFAULT


#: Signature of the parameterless roofline — a model with this signature
#: leaves cache keys untouched.
DEFAULT_COST_MODEL_SIGNATURE = _DEFAULT.signature()


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
