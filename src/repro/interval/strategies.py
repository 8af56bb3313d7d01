"""Partition-n-reduce strategy discovery (Sec 3.1 / Sec 4.2).

A *basic partition strategy* parallelises an operator across ``g`` workers by
splitting one index variable's range into ``g`` pieces:

* **Case 1 — output-dimension partitioning**: the axis is an output index
  variable; every worker produces a slice of the output (concatenation).
* **Case 2 — reduction-dimension partitioning**: the axis is a reduction
  variable; every worker produces a partial output of full shape that must be
  combined with the reducer (the "reduce" step of partition-n-reduce).

The discovery and the per-worker input-region sizes both come out of the
symbolic interval analysis of the operator's TDL description.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import NoStrategyError, TDLError
from repro.interval.analysis import AccessSummary, analyze_cached
from repro.ops.registry import get_op
from repro.tdl.lang import TDLOperator


@dataclass(frozen=True)
class PartitionStrategy:
    """One partition-n-reduce strategy of an operator.

    Attributes:
        op: Operator name.
        axis: Name of the index variable whose range is split.
        kind: ``"output"`` (case 1) or ``"reduction"`` (case 2).
        output_dim: Output dimension that the axis corresponds to, or ``None``
            for reduction strategies (the output is partial, not sliced).
        reducer: Reducer combining partial outputs (reduction strategies only).
        input_dims: For every input argument, the dimension that follows the
            axis, or ``None`` when the worker needs the full input tensor.
    """

    op: str
    axis: str
    kind: str
    output_dim: Optional[int]
    reducer: Optional[str]
    input_dims: Tuple[Tuple[str, Optional[int]], ...]

    def input_dim(self, arg: str) -> Optional[int]:
        for name, dim in self.input_dims:
            if name == arg:
                return dim
        raise KeyError(arg)

    @property
    def needs_reduction(self) -> bool:
        return self.kind == "reduction"

    def describe(self) -> str:
        """Human-readable one-liner used by the CLI and examples."""
        if self.kind == "output":
            where = f"output dim {self.output_dim}"
        else:
            where = f"reduction axis ({self.reducer}-combine)"
        inputs = ", ".join(
            f"{name}:{'full' if dim is None else f'dim {dim}'}"
            for name, dim in self.input_dims
        )
        return f"{self.op}: split {self.axis!r} ({where}); inputs [{inputs}]"


def discover_strategies(
    description: TDLOperator,
    *,
    allow_reduction: bool = True,
    summary: Optional[AccessSummary] = None,
) -> List[PartitionStrategy]:
    """Enumerate every basic partition strategy of ``description``.

    ``allow_reduction=False`` reproduces the ICML18 baseline of the paper,
    which misses output-reduction strategies (Sec 7.3).
    """
    if summary is None:
        summary = analyze_cached(description)

    strategies: List[PartitionStrategy] = []
    candidates: List[str] = list(summary.output_vars)
    if allow_reduction:
        candidates += list(summary.reduction_vars)

    for axis in candidates:
        if axis in summary.blocked_vars:
            continue
        kind = summary.var_kinds[axis]
        input_dims: List[Tuple[str, Optional[int]]] = []
        for arg in summary.inputs:
            driven = summary.dims_driven_by(arg, axis)
            # Under the paper's Assumption 1 each output index addresses at
            # most one dimension of each input; if a description violates it
            # we conservatively replicate the input for this strategy.
            dim = driven[0] if len(driven) == 1 else None
            input_dims.append((arg, dim))
        output_dim = summary.output_vars.index(axis) if kind == "output" else None
        reducer = summary.reducer_of.get(axis) if kind == "reduction" else None
        strategies.append(
            PartitionStrategy(
                op=summary.op_name,
                axis=axis,
                kind=kind,
                output_dim=output_dim,
                reducer=reducer,
                input_dims=tuple(input_dims),
            )
        )

    if not strategies:
        raise NoStrategyError(
            f"operator {summary.op_name!r} has no viable partition strategy"
        )
    return strategies


def describe_operator(op_name: str) -> List[PartitionStrategy]:
    """Partition strategies of a registered operator, from its TDL description.

    The description is the operator definition's own ``tdl`` (the one the
    cost model prices), so re-registering an operator replaces what this
    returns.  Raises :class:`TDLError` naming the operator when it has no
    TDL description — whether it is an undescribable operator class
    (Sec 4.1) or an element-wise operator registered without one — and
    :class:`UnknownOperatorError` when the name is not registered at all.
    """
    description = get_op(op_name).tdl
    if description is None:
        raise TDLError(f"operator {op_name!r} has no TDL description")
    return discover_strategies(description)


# --------------------------------------------------------------------------
# Concrete evaluation: extents and per-worker input regions
# --------------------------------------------------------------------------
def bind_extents(
    summary: AccessSummary,
    output_shape: Sequence[int],
    input_shapes: Mapping[str, Sequence[int]],
) -> Dict[str, float]:
    """Map every index variable to its concrete extent.

    Output variables take their extents from the output shape positionally.
    Reduction-variable extents are solved from input dimensions: a dimension
    driven by a single variable pins that variable's extent; dimensions mixing
    several variables (halo patterns such as ``x + dx``) are solved once all
    but one of their variables are known.
    """
    if len(output_shape) != len(summary.output_vars):
        raise TDLError(
            f"operator {summary.op_name!r}: output rank {len(output_shape)} does "
            f"not match description rank {len(summary.output_vars)}"
        )
    extents: Dict[str, float] = {
        var: float(size) for var, size in zip(summary.output_vars, output_shape)
    }

    unknown = [v for v in summary.reduction_vars if v not in extents]
    # Iterate a few times so chains of dependencies resolve.
    for _ in range(3):
        if not unknown:
            break
        still_unknown: List[str] = []
        for var in unknown:
            solved = _solve_extent(summary, var, input_shapes, extents)
            if solved is None:
                still_unknown.append(var)
            else:
                extents[var] = solved
        if len(still_unknown) == len(unknown):
            break
        unknown = still_unknown
    # Anything left unsolved gets a conservative small extent so evaluation
    # still works (this only happens for exotic descriptions).
    for var in unknown:
        extents[var] = 1.0
    return extents


def _solve_extent(
    summary: AccessSummary,
    var: str,
    input_shapes: Mapping[str, Sequence[int]],
    known: Dict[str, float],
) -> Optional[float]:
    # Prefer dimensions addressed by this variable alone (exact), falling back
    # to mixed-variable (halo) dimensions which are only approximate because
    # interval lengths are continuous.
    candidates = []
    for arg, dims in summary.inputs.items():
        if arg not in input_shapes:
            continue
        shape = input_shapes[arg]
        for d, access in enumerate(dims):
            if access.full or var not in access.variables:
                continue
            if d >= len(shape):
                continue
            candidates.append((len(access.variables) > 1, arg, shape, d, access))
    candidates.sort(key=lambda entry: entry[0])
    for _, arg, shape, d, access in candidates:
        others = access.variables - {var}
        if not others.issubset(known.keys()):
            continue
        # Evaluate the interval's upper bound with the unknown extent set to 0
        # and with it set to 1; the difference is the coefficient.
        probe0 = dict(known)
        probe0[var] = 0.0
        probe1 = dict(known)
        probe1[var] = 1.0
        interval = access.intervals[0]
        high0 = interval.high.evaluate(probe0)
        high1 = interval.high.evaluate(probe1)
        coeff = high1 - high0
        if coeff <= 0:
            continue
        solved = (float(shape[d]) - high0) / coeff
        return max(1.0, solved)
    return None


def worker_input_elements(
    summary: AccessSummary,
    strategy: PartitionStrategy,
    arg: str,
    input_shape: Sequence[int],
    extents: Mapping[str, float],
    parts: int,
) -> float:
    """Number of elements of input ``arg`` one worker needs under ``strategy``.

    The axis variable's extent is shrunk to ``1/parts`` of its full range and
    the access intervals are re-evaluated, which naturally accounts for halo
    regions (e.g. ``x + dx`` accesses need ``X/parts + DX`` indices).
    """
    dims = summary.inputs.get(arg)
    full_elems = 1.0
    for size in input_shape:
        full_elems *= float(size)
    if not dims:
        return full_elems

    local_extents = dict(extents)
    local_extents[strategy.axis] = max(1.0, extents[strategy.axis] / parts)

    elems = 1.0
    for d, access in enumerate(dims):
        size = input_shape[d] if d < len(input_shape) else 1
        elems *= access.needed_length(local_extents, size)
    return min(elems, full_elems)


def worker_output_elements(
    summary: AccessSummary,
    strategy: PartitionStrategy,
    output_shape: Sequence[int],
    parts: int,
) -> float:
    """Number of output elements one worker produces under ``strategy``.

    Output-dimension strategies produce ``1/parts`` of the output; reduction
    strategies produce a full-size partial output.
    """
    total = 1.0
    for size in output_shape:
        total *= float(size)
    if strategy.kind == "output":
        return total / parts
    return total
