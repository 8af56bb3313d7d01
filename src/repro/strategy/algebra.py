"""The composable, serializable ``Strategy`` algebra.

A :class:`Strategy` is a small immutable tree describing *how a model is
split* — the abstraction the paper's partition-n-reduce hides behind one
entry point, and what RaNNC-style systems compose into hybrid
data/model/pipeline parallelism.  Six combinators cover the registered
execution styles:

=============================  ============================================
Combinator                     Meaning
=============================  ============================================
``tofu(backend="tofu")``       minimum-communication operator partitioning
                               over the available devices (Sec 5/6); the
                               optional ``backend`` selects any registered
                               *search* backend (``spartan``, ``icml18``…)
``single()``                   the whole graph on one device
``placement()``                whole operators round-robined across devices
``swap()``                     one device plus CPU-memory swapping
``dp(groups)``                 data-parallel replica groups around an inner
                               strategy (ring all-reduce across groups)
``pipeline(stages, schedule,   micro-batch pipelining over contiguous layer
  microbatches)``              stages (``"gpipe"`` or ``"1f1b"``)
``machines(count)``            scope the inner strategy to ``count`` machines
                               of a hierarchical cluster (outermost only)
=============================  ============================================

Wrapper combinators nest with ``/`` — ``dp(2) / pipeline(4, "1f1b", 8) /
tofu()`` reads "2 replica groups, each a 4-stage 1F1B pipeline of 8
micro-batches, each stage Tofu-partitioned over its devices".  The runtime
gives every pipeline stage exactly one device, so a ``tofu`` leaf under
``pipeline`` degenerates to single-device stages (the one-worker partition
*is* the whole stage on its device) — the same collapse ``tofu`` performs on
any one-device machine.  Every
strategy has one encoding, its canonical string form
(``"dp:2/pipeline:4:1f1b:8/tofu"``), which :func:`parse` round-trips: a
saved model stores it and the plan cache keys on it.

Degenerate wrappers collapse at composition time: ``dp(1) / s == s``,
``pipeline(1, sched, 1) / s == s`` and ``machines(1) / s == s``, so
structurally different spellings of the same execution share one canonical
form (and one cache entry).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar, Dict, List, Optional, Tuple, Type

from repro.errors import StrategyError

__all__ = [
    "PIPELINE_SCHEDULES",
    "Strategy",
    "combinator_descriptions",
    "combinator_names",
    "compose",
    "dp",
    "machines",
    "normalize",
    "parse",
    "pipeline",
    "placement",
    "single",
    "swap",
    "tofu",
]

PIPELINE_SCHEDULES = ("1f1b", "gpipe")


@dataclass(frozen=True)
class Strategy:
    """Base node of the strategy tree.  Leaves have ``inner is None`` and
    cannot wrap; wrappers (``dp``, ``pipeline``) carry an optional inner."""

    kind: ClassVar[str] = ""
    is_wrapper: ClassVar[bool] = False

    # Leaves have no ``inner`` field; the class attribute keeps ``.inner``
    # uniformly readable across the tree.
    inner: ClassVar[Optional["Strategy"]] = None

    # ------------------------------------------------------------- compose
    def __truediv__(self, other: object) -> "Strategy":
        if isinstance(other, str):
            other = parse(other)
        if not isinstance(other, Strategy):
            return NotImplemented
        return compose(self, other)

    # ------------------------------------------------------------- queries
    def chain(self) -> List["Strategy"]:
        """The nodes along the inner spine, outermost first."""
        nodes: List[Strategy] = []
        node: Optional[Strategy] = self
        while node is not None:
            nodes.append(node)
            node = node.inner
        return nodes

    # ------------------------------------------------------------ rendering
    def _segment(self) -> str:
        return self.kind

    def __str__(self) -> str:
        return "/".join(node._segment() for node in self.chain())

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"Strategy({str(self)!r})"

    # ----------------------------------------------------------- validation
    def _validate(self) -> None:
        """Checked at construction by the combinator helpers and the parser."""

    def _attach(self, child: "Strategy") -> "Strategy":
        raise StrategyError(
            f"{self._segment()!r} is a leaf combinator and cannot wrap "
            f"{str(child)!r}; only dp(...) and pipeline(...) compose with '/'"
        )


# ---------------------------------------------------------------------------
# Leaves
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Single(Strategy):
    """The whole graph on one device."""

    kind: ClassVar[str] = "single"


@dataclass(frozen=True)
class Tofu(Strategy):
    """Partition every operator across the available devices with a
    registered search backend.

    ``backend=None`` (the bare ``tofu`` spelling) is the ``tofu`` search;
    another search is spelled in the strategy, ``tofu("spartan")`` /
    ``"tofu:spartan"``, so the strategy text alone names the search.
    """

    kind: ClassVar[str] = "tofu"
    backend: Optional[str] = None

    def _validate(self) -> None:
        if self.backend is None:
            return
        if not isinstance(self.backend, str) or not self.backend:
            raise StrategyError(
                f"tofu needs a search-backend name, got {self.backend!r}"
            )
        # The canonical string must spell the name back: no separator the
        # parser splits on, no whitespace it strips.
        if (
            ":" in self.backend
            or "/" in self.backend
            or self.backend != self.backend.strip()
        ):
            raise StrategyError(
                f"tofu search-backend name {self.backend!r} cannot be spelled "
                f"in a strategy string (no ':', '/' or surrounding whitespace)"
            )

    def _segment(self) -> str:
        if self.backend is None:
            return "tofu"
        return f"tofu:{self.backend}"


@dataclass(frozen=True)
class Placement(Strategy):
    """Whole operators round-robined across devices (layer placement)."""

    kind: ClassVar[str] = "placement"


@dataclass(frozen=True)
class Swap(Strategy):
    """Single device plus LRU CPU-memory swapping."""

    kind: ClassVar[str] = "swap"


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class DataParallel(Strategy):
    """``groups`` data-parallel replicas of the inner strategy, gradients
    ring-all-reduced across groups."""

    kind: ClassVar[str] = "dp"
    is_wrapper: ClassVar[bool] = True
    groups: int = 1
    inner: Optional[Strategy] = None

    def _validate(self) -> None:
        _check_positive_int(self, "group count", self.groups)

    def _segment(self) -> str:
        return f"dp:{self.groups}"

    def _attach(self, child: Strategy) -> Strategy:
        _reject_machines_inside(self, child)
        if self.groups == 1:  # degenerate: one replica group is the inner
            return child
        return replace(self, inner=child)


@dataclass(frozen=True)
class Machines(Strategy):
    """Scope the inner strategy to ``count`` machines of a hierarchical
    cluster — the topology level of the algebra.  ``machines(M)`` must be
    the outermost combinator: it slices the cluster to its first ``M``
    machines and hands the whole slice (every device, PCI-e *and* network
    links) to the inner strategy."""

    kind: ClassVar[str] = "machines"
    is_wrapper: ClassVar[bool] = True
    count: int = 1
    inner: Optional[Strategy] = None

    def _validate(self) -> None:
        _check_positive_int(self, "machine count", self.count)

    def _segment(self) -> str:
        return f"machines:{self.count}"

    def _attach(self, child: Strategy) -> Strategy:
        _reject_machines_inside(self, child)
        if self.count == 1:  # degenerate: one machine scopes nothing
            return child
        return replace(self, inner=child)


@dataclass(frozen=True)
class Pipeline(Strategy):
    """``stages`` contiguous layer stages, each iteration split into
    ``microbatches`` micro-batches under ``schedule`` (gpipe / 1f1b)."""

    kind: ClassVar[str] = "pipeline"
    is_wrapper: ClassVar[bool] = True
    stages: int = 1
    schedule: str = "1f1b"
    microbatches: int = 4
    inner: Optional[Strategy] = None

    def _validate(self) -> None:
        _check_positive_int(self, "stage count", self.stages)
        _check_positive_int(self, "micro-batch count", self.microbatches)
        if self.schedule not in PIPELINE_SCHEDULES:
            known = ", ".join(PIPELINE_SCHEDULES)
            raise StrategyError(
                f"unknown pipeline schedule {self.schedule!r} (known: {known})"
            )

    def _segment(self) -> str:
        return f"pipeline:{self.stages}:{self.schedule}:{self.microbatches}"

    def _attach(self, child: Strategy) -> Strategy:
        _reject_machines_inside(self, child)
        if self.stages == 1 and self.microbatches == 1:
            return child  # degenerate: an unstaged, unsplit pipeline is a no-op
        return replace(self, inner=child)


def _check_positive_int(node: Strategy, what: str, value: object) -> None:
    """Reject a wrapper parameter that is not an ``int`` >= 1 (a bool is
    not an integer here)."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise StrategyError(
            f"{node.kind} needs a positive integer {what}, got {value!r}"
        )


def _reject_machines_inside(parent: Strategy, child: Strategy) -> None:
    if isinstance(child, Machines):
        raise StrategyError(
            f"{child._segment()!r} cannot nest inside {parent._segment()!r}; "
            f"machines(...) is the outermost (topology) level of a strategy"
        )


_NODE_TYPES: Dict[str, Type[Strategy]] = {
    cls.kind: cls
    for cls in (Single, Tofu, Placement, Swap, DataParallel, Pipeline, Machines)
}


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------
def compose(left: Strategy, right: Strategy) -> Strategy:
    """``left / right``: attach ``right`` under the deepest wrapper of
    ``left`` (degenerate wrappers collapse to their child)."""
    if left.inner is None:
        return left._attach(right)
    return replace(left, inner=compose(left.inner, right))


def normalize(strategy: Strategy) -> Strategy:
    """Collapse degenerate wrappers and close open wrapper chains with an
    implicit ``single()`` leaf, bottom-up."""
    if strategy.inner is not None:
        inner = normalize(strategy.inner)
        return strategy._attach(inner)
    if strategy.is_wrapper:
        return strategy._attach(Single())
    return strategy


# ---------------------------------------------------------------------------
# Combinator helpers (the public construction surface)
# ---------------------------------------------------------------------------
def dp(groups: int, inner: Optional[Strategy] = None) -> Strategy:
    """``groups`` data-parallel replica groups around ``inner`` (attachable
    later with ``/``).  ``dp(1) / s`` collapses to ``s``."""
    node = DataParallel(groups=groups)
    node._validate()
    return compose(node, inner) if inner is not None else node


def pipeline(
    stages: int,
    schedule: str = "1f1b",
    microbatches: int = 4,
    inner: Optional[Strategy] = None,
) -> Strategy:
    """A ``stages``-stage micro-batch pipeline (``"gpipe"`` or ``"1f1b"``).
    ``pipeline(1, sched, 1) / s`` collapses to ``s``."""
    node = Pipeline(stages=stages, schedule=schedule, microbatches=microbatches)
    node._validate()
    return compose(node, inner) if inner is not None else node


def machines(count: int, inner: Optional[Strategy] = None) -> Strategy:
    """Scope ``inner`` (attachable later with ``/``) to ``count`` machines of
    a hierarchical cluster.  ``machines(1) / s`` collapses to ``s``; the
    combinator must stay outermost (it is the topology level)."""
    node = Machines(count=count)
    node._validate()
    return compose(node, inner) if inner is not None else node


def tofu(backend: Optional[str] = None) -> Strategy:
    """Tofu's minimum-communication operator partitioning; ``backend``
    selects any registered partition-search backend (``None`` is the
    ``tofu`` search)."""
    node = Tofu(backend=backend)
    node._validate()
    return node


def single() -> Strategy:
    """The whole graph on one device."""
    return Single()


def placement() -> Strategy:
    """Whole operators round-robined across devices."""
    return Placement()


def swap() -> Strategy:
    """One device plus LRU CPU-memory swapping."""
    return Swap()


# ---------------------------------------------------------------------------
# Parsing the canonical string form
# ---------------------------------------------------------------------------
def _parse_int(segment: str, name: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise StrategyError(
            f"strategy segment {segment!r}: {name} must be an integer, "
            f"got {value!r}"
        ) from None


def _parse_segment(segment: str) -> Strategy:
    parts = [p.strip() for p in segment.split(":")]
    name, args = parts[0], parts[1:]
    if name == "single" or name == "placement" or name == "swap":
        if args:
            raise StrategyError(
                f"strategy combinator {name!r} takes no arguments, "
                f"got {segment!r}"
            )
        return _NODE_TYPES[name]()
    if name == "tofu":
        if len(args) > 1:
            raise StrategyError(
                f"tofu takes at most one search-backend argument, got {segment!r}"
            )
        return tofu(args[0]) if args else tofu()
    if name == "dp":
        if len(args) != 1:
            raise StrategyError(
                f"dp takes exactly one group-count argument, got {segment!r}"
            )
        return dp(_parse_int(segment, "group count", args[0]))
    if name == "machines":
        if len(args) != 1:
            raise StrategyError(
                f"machines takes exactly one machine-count argument, "
                f"got {segment!r}"
            )
        return machines(_parse_int(segment, "machine count", args[0]))
    if name == "pipeline":
        if not 1 <= len(args) <= 3:
            raise StrategyError(
                "pipeline takes stages[:schedule[:microbatches]], "
                f"got {segment!r}"
            )
        stages = _parse_int(segment, "stage count", args[0])
        schedule = args[1] if len(args) > 1 else "1f1b"
        microbatches = (
            _parse_int(segment, "micro-batch count", args[2])
            if len(args) > 2 else 4
        )
        return pipeline(stages, schedule, microbatches)
    known = ", ".join(sorted(_NODE_TYPES))
    raise StrategyError(
        f"unknown strategy combinator {name!r} in {segment!r} (known: {known})"
    )


def parse(text: str) -> Strategy:
    """Parse the canonical string form, e.g. ``"dp:2/pipeline:4:1f1b:8/tofu"``.

    The inverse of ``str(strategy)``: ``parse(str(s)) == s`` for every
    strategy built from the combinators.  Raises :class:`StrategyError` on
    unknown combinators, malformed arguments, or a leaf in wrapper position.
    """
    if isinstance(text, Strategy):
        return text
    if not isinstance(text, str):
        raise StrategyError(
            f"strategy must be a Strategy or its string form, got "
            f"{type(text).__name__}"
        )
    if text.strip().lower() == "auto":
        raise StrategyError(
            '"auto" is not a parseable strategy; pass strategy="auto" to '
            "repro.compile() to sweep composed strategies instead"
        )
    segments = [s.strip() for s in text.split("/")]
    if not text.strip() or any(not s for s in segments):
        raise StrategyError(f"empty strategy segment in {text!r}")
    result = _parse_segment(segments[0])
    for segment in segments[1:]:
        result = compose(result, _parse_segment(segment))
    return result


def combinator_descriptions() -> Dict[str, str]:
    """One-line summary per combinator (shown by the CLI listings)."""
    return {
        "tofu[:backend]": "partition every operator across devices "
        "(any registered search backend)",
        "single": "whole graph on one device",
        "placement": "whole operators round-robined across devices",
        "swap": "one device + LRU CPU-memory swapping",
        "dp:<groups>": "data-parallel replica groups around the inner strategy",
        "pipeline:<stages>[:<schedule>[:<microbatches>]]":
            "micro-batch pipeline over contiguous layer stages",
        "machines:<count>": "scope the inner strategy to <count> machines of "
        "a hierarchical cluster (outermost only)",
    }


def combinator_names() -> Tuple[str, ...]:
    """The combinator keywords of the strategy mini-language."""
    return tuple(sorted(_NODE_TYPES))
