"""Built-in TDL reducers: ``Sum``, ``Max``, ``Min``, ``Prod``.

A reducer is a commutative and associative aggregation over one or more
reduction index variables (Sec 4.1).  Reducers are what make the
``partition-n-reduce`` *reduce* step possible: partitioning along a reduction
dimension produces partial outputs that are combined with the reducer.
"""

from __future__ import annotations

import inspect
from typing import Callable

from repro.errors import TDLError
from repro.tdl.expr import Expr, IndexVar, Reduce, wrap


def _make_reducer(name: str) -> Callable:
    def reducer(body_fn: Callable) -> Reduce:
        """Build a :class:`Reduce` node from ``lambda r1, r2, ...: expr``."""
        if not callable(body_fn):
            raise TDLError(f"{name} expects a lambda, got {body_fn!r}")
        signature = inspect.signature(body_fn)
        var_names = list(signature.parameters)
        if not var_names:
            raise TDLError(f"{name} lambda must take at least one reduction variable")
        variables = tuple(IndexVar(v, kind="reduction") for v in var_names)
        body = wrap(body_fn(*variables))
        if not isinstance(body, Expr):
            raise TDLError(f"{name} lambda must return a TDL expression")
        return Reduce(name.lower(), variables, body)

    reducer.__name__ = name
    reducer.__qualname__ = name
    return reducer


Sum = _make_reducer("Sum")
Max = _make_reducer("Max")
Min = _make_reducer("Min")
Prod = _make_reducer("Prod")

#: Mapping from reducer name to the identity element of the reduction, used by
#: the partitioned-graph generator when emitting aggregation operators.
REDUCER_IDENTITY = {
    "sum": 0.0,
    "prod": 1.0,
    "max": float("-inf"),
    "min": float("inf"),
}
