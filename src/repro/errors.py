"""Exception hierarchy shared across the Tofu reproduction.

Every subsystem raises exceptions derived from :class:`ReproError` so callers
can catch library failures without accidentally swallowing programming errors
such as ``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class GraphError(ReproError):
    """Raised for malformed dataflow graphs (dangling tensors, cycles, ...)."""


class ShapeError(GraphError):
    """Raised when operator shape inference fails or shapes are inconsistent."""


class UnknownOperatorError(GraphError):
    """Raised when a node references an operator that is not registered."""


class TDLError(ReproError):
    """Raised for malformed TDL descriptions."""


class NonAffineError(TDLError):
    """Raised when symbolic interval analysis encounters a non-affine index
    expression (e.g. the product of two index variables), mirroring the error
    described in Figure 4 of the paper."""


class PartitionError(ReproError):
    """Raised when a partition plan cannot be constructed or applied."""


class NoStrategyError(PartitionError):
    """Raised when an operator has no viable partition-n-reduce strategy."""


class SimulationError(ReproError):
    """Raised for malformed simulator inputs.

    :attr:`code` is a stable, greppable identifier (``SIM000_SIMULATION``
    unless a more specific subclass or raise site narrows it); the CLI
    surfaces it as ``error: [CODE] message``.
    """

    code: str = "SIM000_SIMULATION"

    def __init__(self, message: str, *, code: "str | None" = None):
        super().__init__(message)
        if code is not None:
            self.code = code


class ExecutionError(ReproError):
    """Raised when an execution backend cannot lower a graph (unknown
    backend, missing partition plan, unsupported lowering options, ...)."""


class StrategyError(ReproError):
    """Raised for malformed strategy expressions (unknown combinators, bad
    arguments, compositions the runtime cannot lower)."""


class AnalysisError(ReproError):
    """Raised by :mod:`repro.analysis` when a static check fails in strict mode.

    Carries the finding structurally so callers need not parse the message:
    :attr:`code` is the stable check code (``ANA003_CYCLIC_SCHEDULE``-style,
    see ``docs/verifier.md``), :attr:`check` the registry name of the checker
    that fired, and :attr:`task` / :attr:`node` the offending task or graph
    node when one can be named.
    """

    code: str = "ANA000_ANALYSIS"

    def __init__(
        self,
        message: str,
        *,
        code: "str | None" = None,
        check: "str | None" = None,
        task: "str | None" = None,
        node: "str | None" = None,
    ):
        super().__init__(message)
        if code is not None:
            self.code = code
        self.check = check
        self.task = task
        self.node = node


class OutOfMemoryError(SimulationError):
    """Raised (or recorded) when a simulated device exceeds its memory capacity."""

    code = "SIM001_OUT_OF_MEMORY"

    def __init__(self, device: str, required: int, capacity: int):
        super().__init__(
            f"device {device} requires {required} bytes but only has {capacity}"
        )
        self.device = device
        self.required = required
        self.capacity = capacity
