"""Partition plan data model.

A plan for ``k = k1 * k2 * ... * km`` workers is a sequence of *steps*
(Sec 5.2 / Appendix A.1): step ``i`` partitions every tensor along exactly one
dimension across ``ki`` worker groups.  Composing the steps gives each tensor
a grid partition and each operator a per-step partition-n-reduce strategy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import PartitionError
from repro.graph.tensor import split_dim


@dataclass
class StepAssignment:
    """The result of one recursive partition step.

    Attributes:
        parts: Number of worker groups this step splits into (``ki``).
        tensor_dims: Partition dimension chosen for every tensor at this step.
        op_strategies: Partition axis chosen for every operator node.  For
            TDL-analysed operators this is the axis variable name; element-wise
            operators use ``"dim<k>"``.
        comm_bytes: Communication cost of this step *within one worker group*
            (the ``cost(p_i)`` of Equation 3).
        weighted_bytes: ``2^{i-1} * cost(p_i)`` — the step's contribution to
            the total cost, i.e. ``delta_i`` of Theorem 2.
    """

    parts: int
    tensor_dims: Dict[str, int]
    op_strategies: Dict[str, str]
    comm_bytes: float
    weighted_bytes: float
    group_count: int = 1

    def dim_of(self, tensor: str) -> int:
        try:
            return self.tensor_dims[tensor]
        except KeyError:
            raise PartitionError(f"step has no assignment for tensor {tensor!r}") from None


#: Plan algorithms whose search has no output-reduction strategies (the
#: ICML18 baseline, ``recursive_partition(allow_reduction=False)``): their
#: plans are priced in that narrower strategy space.
NO_REDUCTION_ALGORITHMS = frozenset({"icml18", "tofu-no-reduction"})


@dataclass
class PartitionPlan:
    """A complete partition plan for ``num_workers`` workers.

    ``fetch_bytes_per_node`` and ``reduce_bytes_per_node`` are the
    cluster-wide bytes of every node as the search itself priced them, so
    lowering need not price the plan again.  They are outside the plan codec
    and equality: a plan decoded by :func:`plan_from_dict`, or made by a
    search that does not record them, has ``None`` and is re-priced.
    """

    num_workers: int
    steps: List[StepAssignment] = field(default_factory=list)
    search_time_seconds: float = 0.0
    algorithm: str = "tofu-recursive"
    fetch_bytes_per_node: Optional[Dict[str, float]] = field(
        default=None, compare=False, repr=False
    )
    reduce_bytes_per_node: Optional[Dict[str, float]] = field(
        default=None, compare=False, repr=False
    )

    # ------------------------------------------------------------ aggregate
    @property
    def num_steps(self) -> int:
        return len(self.steps)

    @property
    def allows_reduction(self) -> bool:
        """Whether the plan's search could pick output-reduction strategies."""
        return self.algorithm not in NO_REDUCTION_ALGORITHMS

    @property
    def total_comm_bytes(self) -> float:
        """Total communication cost (Equation 3)."""
        return sum(step.weighted_bytes for step in self.steps)

    def step_costs(self) -> List[float]:
        """The per-step costs ``delta_i`` used by Theorem 2."""
        return [step.weighted_bytes for step in self.steps]

    # ---------------------------------------------------------- per-tensor
    def tensor_grid(self, tensor: str) -> List[Tuple[int, int]]:
        """The sequence of ``(dimension, parts)`` splits applied to ``tensor``."""
        grid: List[Tuple[int, int]] = []
        for step in self.steps:
            if tensor in step.tensor_dims:
                grid.append((step.tensor_dims[tensor], step.parts))
        return grid

    def shard_shape(
        self, tensor: str, original_shape: Sequence[int]
    ) -> Tuple[int, ...]:
        """Shape of one worker's shard of ``tensor``."""
        shape = tuple(original_shape)
        for dim, parts in self.tensor_grid(tensor):
            shape = split_dim(shape, dim, parts)
        return shape

    def partition_counts(self, tensor: str, ndim: int) -> Tuple[int, ...]:
        """How many ways each dimension of ``tensor`` ends up split."""
        counts = [1] * ndim
        for dim, parts in self.tensor_grid(tensor):
            if dim < ndim:
                counts[dim] *= parts
        return tuple(counts)

    def describe_tensor(self, tensor: str, ndim: int) -> str:
        counts = self.partition_counts(tensor, ndim)
        return "x".join(str(c) for c in counts)

    # -------------------------------------------------------------- reports
    def summary(self) -> str:
        lines = [
            f"PartitionPlan(algorithm={self.algorithm}, workers={self.num_workers}, "
            f"steps={self.num_steps}, total_comm={self.total_comm_bytes / (1 << 30):.3f} GiB, "
            f"search_time={self.search_time_seconds:.2f}s)"
        ]
        for i, step in enumerate(self.steps):
            lines.append(
                f"  step {i}: parts={step.parts} groups={step.group_count} "
                f"cost={step.weighted_bytes / (1 << 30):.3f} GiB"
            )
        return "\n".join(lines)


def single_dimension_plan(
    tensor_dims: Dict[str, int],
    op_strategies: Dict[str, str],
    num_workers: int,
    comm_bytes: float,
    algorithm: str,
) -> PartitionPlan:
    """Wrap a one-shot (non-recursive) assignment into a plan.

    Used by the baseline partition algorithms (AllRow-Greedy, Spartan,
    EqualChop) which partition every tensor along a single dimension across
    all workers at once.
    """
    step = StepAssignment(
        parts=num_workers,
        tensor_dims=dict(tensor_dims),
        op_strategies=dict(op_strategies),
        comm_bytes=comm_bytes,
        weighted_bytes=comm_bytes,
        group_count=1,
    )
    return PartitionPlan(num_workers=num_workers, steps=[step], algorithm=algorithm)


def plan_to_dict(plan: PartitionPlan) -> Dict:
    """Convert a plan to a JSON-serialisable dictionary.

    The inverse is :func:`plan_from_dict`; together they back the planner's
    content-addressed on-disk plan cache and make plans diffable offline.
    """
    return {
        "num_workers": plan.num_workers,
        "algorithm": plan.algorithm,
        "search_time_seconds": plan.search_time_seconds,
        "steps": [
            {
                "parts": step.parts,
                "group_count": step.group_count,
                "comm_bytes": step.comm_bytes,
                "weighted_bytes": step.weighted_bytes,
                "tensor_dims": dict(step.tensor_dims),
                "op_strategies": dict(step.op_strategies),
            }
            for step in plan.steps
        ],
    }


def plan_from_dict(payload: Dict) -> PartitionPlan:
    """Rebuild a plan from :func:`plan_to_dict` output."""
    steps = [
        StepAssignment(
            parts=entry["parts"],
            tensor_dims=dict(entry["tensor_dims"]),
            op_strategies=dict(entry["op_strategies"]),
            comm_bytes=entry["comm_bytes"],
            weighted_bytes=entry["weighted_bytes"],
            group_count=entry.get("group_count", 1),
        )
        for entry in payload["steps"]
    ]
    return PartitionPlan(
        num_workers=payload["num_workers"],
        steps=steps,
        search_time_seconds=payload.get("search_time_seconds", 0.0),
        algorithm=payload.get("algorithm", "tofu-recursive"),
    )


def factorize_workers(num_workers: int) -> List[int]:
    """Factorise ``k`` into ``k1 >= k2 >= ... >= km`` (Sec 5.2).

    Powers of two give the all-2 factorisation; other counts use their prime
    factors in descending order.
    """
    if num_workers < 1:
        raise PartitionError(f"worker count must be >= 1, got {num_workers}")
    factors: List[int] = []
    remaining = num_workers
    divisor = 2
    while remaining > 1:
        while remaining % divisor == 0:
            factors.append(divisor)
            remaining //= divisor
        divisor += 1
    factors.sort(reverse=True)
    return factors
