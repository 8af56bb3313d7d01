"""The ``@tdl.op`` decorator and the :class:`TDLOperator` description object.

A TDL description is written as a Python function whose arguments are the
operator's input tensors and whose return value is a lambda from output index
variables to a TDL expression, exactly like the examples in Figure 3 of the
paper::

    @tdl.op
    def conv1d(data, filters):
        return lambda b, co, x: Sum(
            lambda ci, dx: data[b, ci, x + dx] * filters[ci, co, dx])

    @tdl.op
    def batch_cholesky(batch_mat):
        cholesky = tdl.Opaque("cholesky")
        return lambda b, i, j: cholesky(batch_mat[b, :, :])[i, j]
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.errors import TDLError
from repro.tdl.expr import (
    Expr,
    FullSlice,
    IndexVar,
    OpaqueCall,
    Reduce,
    TensorAccess,
    TensorArg,
    find_opaque_calls,
    find_reductions,
    find_tensor_accesses,
    wrap,
)


class Opaque:
    """Factory for opaque function calls (Sec 4.1, ``tofu.Opaque()``).

    Calling the opaque object with tensor slices produces an
    :class:`OpaqueCall`, which can then be indexed with output variables.
    """

    def __init__(self, name: str = "opaque"):
        self.name = name

    def __call__(self, *slices: TensorAccess) -> OpaqueCall:
        for s in slices:
            if not isinstance(s, TensorAccess):
                raise TDLError("opaque functions take tensor slices as arguments")
        return OpaqueCall(self.name, tuple(slices))


@dataclass
class TDLOperator:
    """The analysed form of a TDL description.

    Attributes:
        name: Operator name.
        input_names: Names of the input tensor arguments, in order.
        output_vars: Output index variables, in output dimension order.
        body: The TDL expression defining one output element.
        reduction_vars: Reduction index variables, in the order encountered.
        has_opaque: Whether the description uses an opaque function.
    """

    name: str
    input_names: List[str]
    output_vars: List[IndexVar]
    body: Expr
    reduction_vars: List[IndexVar] = field(default_factory=list)
    has_opaque: bool = False

    # ------------------------------------------------------------ properties
    def tensor_accesses(self) -> List[TensorAccess]:
        return find_tensor_accesses(self.body)

    def reductions(self) -> List[Reduce]:
        return find_reductions(self.body)

    def is_elementwise(self) -> bool:
        """True when every input is accessed exactly at the output indices.

        Element-wise operators are the ones graph coarsening coalesces
        (Sec 5.1): their inputs and outputs must always be partitioned
        identically, so they never add partition choices of their own.
        """
        if self.has_opaque or self.reduction_vars:
            return False
        out_names = [v.name for v in self.output_vars]
        for access in self.tensor_accesses():
            names = []
            for idx in access.indices:
                if isinstance(idx, FullSlice):
                    return False
                if not isinstance(idx, IndexVar):
                    return False
                names.append(idx.name)
            if names != out_names:
                return False
        return True

    def describable(self) -> bool:
        """Whether this operator can be analysed at all (always true once a
        TDLOperator exists; opaque bodies restrict, not prevent, analysis)."""
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        outs = ", ".join(v.name for v in self.output_vars)
        return f"TDLOperator({self.name}, lambda {outs}: ...)"


def build_description(fn: Callable, name: Optional[str] = None) -> TDLOperator:
    """Execute a TDL description function and capture its AST."""
    op_name = name or fn.__name__
    signature = inspect.signature(fn)
    input_names = list(signature.parameters)
    args = [TensorArg(arg, i) for i, arg in enumerate(input_names)]
    result = fn(*args)
    if not callable(result):
        raise TDLError(
            f"TDL description {op_name!r} must return a lambda over output indices"
        )
    out_sig = inspect.signature(result)
    out_var_names = list(out_sig.parameters)
    output_vars = [IndexVar(v, kind="output") for v in out_var_names]
    body = wrap(result(*output_vars))
    if not isinstance(body, Expr):
        raise TDLError(f"TDL description {op_name!r} produced a non-expression body")

    reduction_vars: List[IndexVar] = []
    seen = set()
    for red in find_reductions(body):
        for var in red.variables:
            if id(var) not in seen:
                seen.add(id(var))
                reduction_vars.append(var)
    has_opaque = bool(find_opaque_calls(body))
    return TDLOperator(
        name=op_name,
        input_names=input_names,
        output_vars=output_vars,
        body=body,
        reduction_vars=reduction_vars,
        has_opaque=has_opaque,
    )


def op(fn: Optional[Callable] = None, *, name: Optional[str] = None):
    """Decorator turning a description function into a :class:`TDLOperator`.

    Can be used bare (``@op``) or with a name override (``@op(name="dot")``).
    """
    if fn is None:
        return lambda f: build_description(f, name=name)
    return build_description(fn, name=name)


def elementwise(name: str, arity: int = 1) -> TDLOperator:
    """Convenience constructor for element-wise operators of any arity.

    The vast majority of MXNet/TensorFlow operators are element-wise (77 of
    the 134 describable MXNet operators per Sec 4.1); this helper keeps the
    catalogue compact without hand-writing 77 identical lambdas.  The
    resulting description accesses every input at exactly the output indices,
    over a canonical 4-dimensional index space (the analysis only cares about
    index-variable structure, not arity of the index space).
    """
    if arity < 1:
        raise TDLError("element-wise operators need at least one input")
    input_names = [f"in{i}" for i in range(arity)]
    out_vars = [IndexVar(v, kind="output") for v in ("i0", "i1", "i2", "i3")]
    args = [TensorArg(n, i) for i, n in enumerate(input_names)]
    body: Expr = args[0][tuple(out_vars)]
    for extra in args[1:]:
        body = body + extra[tuple(out_vars)]
    return TDLOperator(
        name=name,
        input_names=input_names,
        output_vars=out_vars,
        body=body,
        reduction_vars=[],
        has_opaque=False,
    )
