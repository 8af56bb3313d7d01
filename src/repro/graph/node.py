"""Operator nodes of the dataflow graph."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.graph.frozen import FrozenList, freeze_value, frozen_record_class


@dataclass
class OpNode:
    """A single operator application in a dataflow graph.

    Attributes:
        name: Graph-unique node name.
        op: Name of the operator (must be registered in :mod:`repro.ops`).
        inputs: Names of the input tensors, in operator argument order.
        outputs: Names of the output tensors.
        attrs: Static operator attributes (e.g. convolution stride).
    """

    name: str
    op: str
    inputs: List[str]
    outputs: List[str]
    attrs: Dict[str, Any] = field(default_factory=dict)

    def all_tensors(self) -> List[str]:
        """Names of every tensor touched by this node."""
        return list(self.inputs) + list(self.outputs)

    def freeze(self) -> None:
        """Make this node read-only: its fields, ``inputs``, ``outputs`` and
        ``attrs`` raise on every edit from now on."""
        self.inputs = FrozenList(self.inputs)
        self.outputs = FrozenList(self.outputs)
        self.attrs = freeze_value(self.attrs)
        self.__class__ = FrozenOpNode

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OpNode({self.name!r}, op={self.op!r})"


FrozenOpNode = frozen_record_class(OpNode)
