"""Symbolic execution of TDL descriptions (Sec 4.2).

``analyze`` walks the TDL body of an operator with every index variable bound
to its symbolic interval ``[0, X_var]`` and records, for every input tensor
and every dimension of that tensor, the symbolic interval of indices that the
computation reads.  This summary is what partition-strategy discovery and the
graph-level cost model consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List

from repro.errors import NonAffineError, TDLError
from repro.interval.symbolic import Interval
from repro.tdl.expr import (
    BinaryOp,
    Const,
    Expr,
    FullSlice,
    IndexVar,
    OpaqueCall,
    TensorAccess,
    walk,
)
from repro.tdl.lang import TDLOperator


@dataclass
class DimAccess:
    """Access pattern of one dimension of one input tensor.

    ``intervals`` lists the symbolic intervals of every syntactic access to
    this dimension (multiple accesses are kept separate and hulled at concrete
    evaluation time).  ``full`` marks a ``:`` slice.  ``variables`` collects
    the index variables appearing in the dimension's index expressions.
    """

    intervals: List[Interval] = field(default_factory=list)
    full: bool = False
    variables: FrozenSet[str] = frozenset()

    def merge(self, other: "DimAccess") -> "DimAccess":
        return DimAccess(
            intervals=self.intervals + other.intervals,
            full=self.full or other.full,
            variables=self.variables | other.variables,
        )

    def needed_length(self, extents: Dict[str, float], dim_size: int) -> float:
        """Concrete number of indices needed along this dimension."""
        if self.full or not self.intervals:
            return float(dim_size)
        low = min(i.evaluate(extents)[0] for i in self.intervals)
        high = max(i.evaluate(extents)[1] for i in self.intervals)
        length = max(1.0, high - low)
        return min(float(dim_size), length)


@dataclass
class AccessSummary:
    """The result of analysing one operator's TDL description."""

    op_name: str
    output_vars: List[str]
    reduction_vars: List[str]
    var_kinds: Dict[str, str]
    reducer_of: Dict[str, str]
    inputs: Dict[str, List[DimAccess]]
    has_opaque: bool
    blocked_vars: FrozenSet[str] = frozenset()
    elementwise: bool = False

    def dims_driven_by(self, arg: str, var: str) -> List[int]:
        """Dimensions of input ``arg`` whose index expression uses ``var``."""
        return [
            d
            for d, access in enumerate(self.inputs[arg])
            if var in access.variables and not access.full
        ]


def _evaluate_index(expr: Expr, env: Dict[str, Interval]) -> Interval:
    """Evaluate an index expression to a symbolic interval."""
    if isinstance(expr, Const):
        return Interval.point(expr.value)
    if isinstance(expr, IndexVar):
        try:
            return env[expr.name]
        except KeyError:
            raise TDLError(f"unbound index variable {expr.name!r}") from None
    if isinstance(expr, BinaryOp):
        lhs = _evaluate_index(expr.lhs, env)
        rhs = _evaluate_index(expr.rhs, env)
        if expr.op == "+":
            return lhs + rhs
        if expr.op == "-":
            return lhs - rhs
        if expr.op == "*":
            return lhs.multiply(rhs)
        if expr.op == "/":
            return lhs.divide(rhs)
        raise NonAffineError(f"operator {expr.op!r} is not affine in index position")
    raise NonAffineError(f"expression {expr!r} cannot appear in an index")


def _collect_env(description: TDLOperator) -> Dict[str, Interval]:
    env: Dict[str, Interval] = {}
    for var in description.output_vars:
        if var.name in env:
            raise TDLError(f"duplicate index variable name {var.name!r}")
        env[var.name] = Interval.for_variable(var.name)
    for var in description.reduction_vars:
        if var.name in env:
            raise TDLError(
                f"reduction variable {var.name!r} shadows another index variable"
            )
        env[var.name] = Interval.for_variable(var.name)
    return env


def _variables_in(expr: Expr) -> FrozenSet[str]:
    return frozenset(e.name for e in walk(expr) if isinstance(e, IndexVar))


def analyze(description: TDLOperator) -> AccessSummary:
    """Analyse a TDL description and return its :class:`AccessSummary`."""
    env = _collect_env(description)

    reducer_of: Dict[str, str] = {}
    for red in description.reductions():
        for var in red.variables:
            reducer_of[var.name] = red.reducer

    inputs: Dict[str, List[DimAccess]] = {}
    blocked: set = set()

    for node in walk(description.body):
        if isinstance(node, OpaqueCall):
            # Index variables used to address the opaque result cannot be used
            # as partition axes: the opaque body may mix them arbitrarily.
            for idx in node.result_indices:
                blocked |= _variables_in(idx)
        if not isinstance(node, TensorAccess):
            continue
        arg = node.tensor.name
        dims: List[DimAccess] = []
        for idx in node.indices:
            if isinstance(idx, FullSlice):
                dims.append(DimAccess(full=True))
                continue
            interval = _evaluate_index(idx, env)
            dims.append(
                DimAccess(intervals=[interval], variables=_variables_in(idx))
            )
        if arg in inputs:
            previous = inputs[arg]
            if len(previous) != len(dims):
                raise TDLError(
                    f"inconsistent rank for input {arg!r} in {description.name!r}"
                )
            inputs[arg] = [p.merge(d) for p, d in zip(previous, dims)]
        else:
            inputs[arg] = dims

    # Inputs that are never accessed (possible for opaque descriptions that
    # ignore an argument) are treated as fully required.
    for name in description.input_names:
        inputs.setdefault(name, [])

    summary = AccessSummary(
        op_name=description.name,
        output_vars=[v.name for v in description.output_vars],
        reduction_vars=[v.name for v in description.reduction_vars],
        var_kinds={
            **{v.name: "output" for v in description.output_vars},
            **{v.name: "reduction" for v in description.reduction_vars},
        },
        reducer_of=reducer_of,
        inputs=inputs,
        has_opaque=description.has_opaque,
        blocked_vars=frozenset(blocked),
        elementwise=description.is_elementwise(),
    )
    return summary


_SUMMARY_CACHE: Dict[int, AccessSummary] = {}


def analyze_cached(description: TDLOperator) -> AccessSummary:
    """Memoised :func:`analyze`, keyed by description object identity."""
    key = id(description)
    summary = _SUMMARY_CACHE.get(key)
    if summary is None:
        summary = analyze(description)
        _SUMMARY_CACHE[key] = summary
    return summary
