"""Search-backend protocol and registry.

A *search backend* is a partition-search algorithm behind a uniform callable
interface: ``(graph, num_workers, **options) -> PartitionPlan``.  The registry
maps string keys to :class:`BackendSpec` entries so the :class:`Planner`
facade, the CLI (``--backend``) and the benchmarks can select any registered
algorithm — Tofu's recursive DP, the non-recursive joint DP of Table 1, and
the Figure 10 baselines — without hand-wiring imports.

Backends whose search decomposes into an ordered sequence of per-factor steps
(the recursive family) set ``supports_factor_orders`` and accept a
``factors=`` keyword, so the planner can search every order of the worker
factorisation (:func:`repro.planner.core.search_candidates`).

A new search algorithm is one :func:`register_backend` call with a
:class:`BackendSpec`, made in-process like the built-ins below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Protocol, Sequence

from repro.baselines.partition_algos import (
    allrow_greedy_plan,
    equalchop_plan,
    spartan_plan,
)
from repro.errors import PartitionError
from repro.graph.graph import Graph
from repro.partition.dp import joint_partition
from repro.partition.plan import PartitionPlan
from repro.partition.recursive import recursive_partition
from repro.plugins import BackendRegistry, reject_unknown_options


class SearchBackend(Protocol):
    """Structural type of a partition-search algorithm."""

    def __call__(
        self, graph: Graph, num_workers: int, **options: object
    ) -> PartitionPlan: ...


@dataclass(frozen=True)
class BackendSpec:
    """One registered search backend.

    Attributes:
        name: Registry key (what ``--backend`` and ``PlannerConfig`` select).
        fn: The search entry point.
        description: One-line summary shown by ``tofu-repro backends``.
        supports_factor_orders: Whether the backend's search is a sequence of
            per-factor recursive steps whose order is a degree of freedom;
            such a backend's ``fn`` takes the order as ``factors=``.
        option_names: Keyword options the backend accepts; the planner
            rejects anything else up front with a :class:`PartitionError`
            instead of letting a ``TypeError`` escape from deep inside a
            search.
    """

    name: str
    fn: SearchBackend
    description: str = ""
    supports_factor_orders: bool = False
    option_names: Sequence[str] = ()

    def validate_options(self, options: dict) -> None:
        """Reject unknown keyword options early (raises PartitionError)."""
        reject_unknown_options(
            options, self.option_names,
            owner=f"backend {self.name!r}", error_cls=PartitionError,
        )

    def search(
        self,
        graph: Graph,
        num_workers: int,
        factors: Optional[Sequence[int]] = None,
        **options: object,
    ) -> PartitionPlan:
        """Run the backend, with an explicit factor order when supported."""
        if factors is not None and self.supports_factor_orders:
            return self.fn(graph, num_workers, factors=factors, **options)
        return self.fn(graph, num_workers, **options)


_REGISTRY = BackendRegistry(kind="search", error_cls=PartitionError)


def register_backend(spec: BackendSpec, *, replace: bool = False) -> BackendSpec:
    """Register a backend; ``replace=True`` allows overriding an entry."""
    return _REGISTRY.register(spec, replace=replace)


def unregister_backend(name: str) -> None:
    """Remove a backend (used by tests registering temporary backends)."""
    _REGISTRY.unregister(name)


def get_backend(name: str) -> BackendSpec:
    """Resolve a backend by name; raises :class:`PartitionError` if unknown."""
    return _REGISTRY.get(name)


def available_backends() -> List[str]:
    """Sorted names of all registered backends."""
    return _REGISTRY.available()


# ---------------------------------------------------------------------------
# Built-in backends
# ---------------------------------------------------------------------------
def _icml18(graph, num_workers, *, coarse=None, factors=None):
    """ICML18 (Jia et al. 2018): the recursive search with output-reduction
    strategies removed; Sec 7.3 shows the missing strategies cost memory
    and performance."""
    plan = recursive_partition(
        graph, num_workers, coarse=coarse, factors=factors, allow_reduction=False
    )
    plan.algorithm = "icml18"
    return plan


register_backend(
    BackendSpec(
        name="tofu",
        fn=recursive_partition,
        description="recursive coarsen+DP search (Sec 5.2, the paper's system)",
        supports_factor_orders=True,
        option_names=("coarse",),
    )
)
register_backend(
    BackendSpec(
        name="joint",
        fn=joint_partition,
        description="non-recursive joint DP over all steps (Table 1 comparison)",
        option_names=("coarse",),
    )
)
register_backend(
    BackendSpec(
        name="icml18",
        fn=_icml18,
        description="recursive DP without output-reduction strategies (Jia et al.)",
        supports_factor_orders=True,
        option_names=("coarse",),
    )
)
register_backend(
    BackendSpec(
        name="equalchop",
        fn=equalchop_plan,
        description="single-step DP, one equal chop per tensor (Fig 10)",
        option_names=("coarse",),
    )
)
register_backend(
    BackendSpec(
        name="spartan",
        fn=spartan_plan,
        description="greedy largest-tensor-first tiling heuristic (Fig 10)",
    )
)
register_backend(
    BackendSpec(
        name="allrow-greedy",
        fn=allrow_greedy_plan,
        description="partition everything along dim 0, i.e. data parallelism (Fig 10)",
    )
)
