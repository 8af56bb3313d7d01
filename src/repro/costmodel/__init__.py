"""The simulator's pricing seam.

The simulator prices every kernel and transfer through a *cost model*.  The
default is the analytic roofline the paper's evaluation uses; a different
model is a :class:`CostModel` subclass activated with the one pricing
scope::

    with use_cost_model(MyModel()):
        result = repro.compile(graph, "tofu", machine, num_workers=8)

The written contract lives in ``docs/cost-models.md``.  Pricing never moves
a plan (the search minimises communication bytes), so plans are shared
across models and only program-cache keys carry the model's signature
(:func:`cost_model_cache_token`).
"""

from repro.costmodel.base import (
    CostModel,
    OpSample,
    active_cost_model,
    use_cost_model,
)
from repro.costmodel.roofline import (
    RooflineCostModel,
    cost_model_cache_token,
    default_roofline,
)
from repro.errors import CostModelError

__all__ = [
    "CostModel",
    "CostModelError",
    "OpSample",
    "RooflineCostModel",
    "active_cost_model",
    "cost_model_cache_token",
    "default_roofline",
    "use_cost_model",
]
