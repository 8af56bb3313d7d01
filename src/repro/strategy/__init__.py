"""The strategy mini-language: one algebra for every way a model is split.

``repro.strategy`` is the public face of the partitioning abstraction: a
small immutable tree of combinators (``machines``, ``dp``, ``pipeline``,
``tofu``, ``single``, ``placement``, ``swap``) composable with ``/``, with one
encoding: the canonical string form (:func:`parse` / ``str``), which saved
models store and plan-cache keys fold in.  :func:`repro.compile` interprets a
strategy onto the planner + runtime machinery via
:func:`lower_strategy`; ``strategy="auto"`` hands the choice to the
autotuner (:mod:`repro.tuner`).
"""

from repro.strategy.algebra import (
    PIPELINE_SCHEDULES,
    Strategy,
    combinator_descriptions,
    combinator_names,
    dp,
    machines,
    normalize,
    parse,
    pipeline,
    placement,
    single,
    swap,
    tofu,
)
from repro.strategy.lowering import StrategyLowering, lower_strategy, weight_shards

# The root namespace re-exports the parser under an unambiguous name.
parse_strategy = parse

__all__ = [
    "PIPELINE_SCHEDULES",
    "Strategy",
    "StrategyLowering",
    "combinator_descriptions",
    "combinator_names",
    "dp",
    "lower_strategy",
    "machines",
    "normalize",
    "parse",
    "parse_strategy",
    "pipeline",
    "placement",
    "single",
    "swap",
    "tofu",
    "weight_shards",
]
