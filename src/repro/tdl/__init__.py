"""Tensor Description Language (TDL).

The public surface mirrors the paper's examples::

    from repro import tdl
    from repro.tdl import Sum

    @tdl.op
    def conv1d(data, filters):
        return lambda b, co, x: Sum(
            lambda ci, dx: data[b, ci, x + dx] * filters[ci, co, dx])
"""

from repro.tdl.expr import (
    BinaryOp,
    Call,
    Const,
    Expr,
    FullSlice,
    IndexVar,
    OpaqueCall,
    Reduce,
    TensorAccess,
    TensorArg,
    find_reductions,
    find_tensor_accesses,
    walk,
)
from repro.tdl.lang import Opaque, TDLOperator, build_description, elementwise, op
from repro.tdl.reducers import Max, Min, Prod, Sum
from repro.tdl.registry import (
    DescriptionEntry,
    DescriptionRegistry,
    GLOBAL_REGISTRY,
    get_description,
)

__all__ = [
    "BinaryOp",
    "Call",
    "Const",
    "DescriptionEntry",
    "DescriptionRegistry",
    "Expr",
    "FullSlice",
    "GLOBAL_REGISTRY",
    "IndexVar",
    "Max",
    "Min",
    "Opaque",
    "OpaqueCall",
    "Prod",
    "Reduce",
    "Sum",
    "TDLOperator",
    "TensorAccess",
    "TensorArg",
    "build_description",
    "elementwise",
    "find_reductions",
    "find_tensor_accesses",
    "get_description",
    "op",
    "walk",
]
