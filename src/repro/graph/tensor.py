"""Tensor metadata used by the dataflow graph substrate.

The Tofu partitioner never touches tensor *values*; it only reasons about
shapes, sizes and roles (weight vs activation vs gradient).  ``TensorSpec``
captures exactly that metadata, playing the role of MXNet/NNVM tensor entries
in the original system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.errors import ShapeError
from repro.graph.frozen import freeze_value, frozen_record_class, thaw_value

#: Number of bytes per element for each supported dtype.
DTYPE_SIZES = {
    "float64": 8,
    "float32": 4,
    "float16": 2,
    "int64": 8,
    "int32": 4,
    "int8": 1,
    "bool": 1,
}

#: Tensor roles.  ``weight`` and ``state`` persist across iterations,
#: ``activation``/``gradient`` are transient, ``data`` is the input batch.
TENSOR_KINDS = (
    "data",
    "weight",
    "state",
    "activation",
    "gradient",
    "output",
)


def validate_shape(shape: Tuple[int, ...]) -> Tuple[int, ...]:
    """Validate and normalise a shape tuple.

    Raises :class:`ShapeError` for negative or non-integer dimensions.
    Scalars are represented by the empty tuple.
    """
    norm = tuple(int(d) for d in shape)
    for d in norm:
        if d <= 0:
            raise ShapeError(f"shape {shape} has a non-positive dimension")
    return norm


@dataclass
class TensorSpec:
    """Metadata describing one tensor in a dataflow graph.

    Attributes:
        name: Graph-unique tensor name.
        shape: Static shape.  All shapes in this system are fully static,
            matching the paper's setting (static dataflow graphs).
        dtype: Element type; must be a key of :data:`DTYPE_SIZES`.
        kind: Role of the tensor, one of :data:`TENSOR_KINDS`.
        producer: Name of the node that produces this tensor, or ``None`` for
            graph inputs (data, weights, optimiser state).
    """

    name: str
    shape: Tuple[int, ...]
    dtype: str = "float32"
    kind: str = "activation"
    producer: Optional[str] = None
    attrs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.shape = validate_shape(self.shape)
        if self.dtype not in DTYPE_SIZES:
            raise ShapeError(f"unknown dtype {self.dtype!r} for tensor {self.name}")
        if self.kind not in TENSOR_KINDS:
            raise ShapeError(f"unknown tensor kind {self.kind!r} for tensor {self.name}")

    # ------------------------------------------------------------------ size
    @property
    def ndim(self) -> int:
        return len(self.shape)

    def num_elements(self) -> int:
        n = 1
        for d in self.shape:
            n *= d
        return n

    def size_bytes(self) -> int:
        return self.num_elements() * DTYPE_SIZES[self.dtype]

    # ------------------------------------------------------------- mutation
    def with_shape(self, shape: Tuple[int, ...]) -> "TensorSpec":
        """Return an editable copy of this spec with a different shape."""
        return TensorSpec(
            name=self.name,
            shape=shape,
            dtype=self.dtype,
            kind=self.kind,
            producer=self.producer,
            attrs=thaw_value(self.attrs),
        )

    def is_persistent(self) -> bool:
        """Persistent tensors (weights, optimiser state) survive iterations."""
        return self.kind in ("weight", "state")

    def freeze(self) -> None:
        """Make this spec read-only: its fields and ``attrs`` raise on every
        edit from now on."""
        self.attrs = freeze_value(self.attrs)
        self.__class__ = FrozenTensorSpec

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TensorSpec({self.name!r}, shape={self.shape}, kind={self.kind})"


FrozenTensorSpec = frozen_record_class(TensorSpec)


def split_dim(shape: Tuple[int, ...], dim: int, parts: int) -> Tuple[int, ...]:
    """Return ``shape`` with dimension ``dim`` divided into ``parts`` pieces.

    Uneven splits round up (the first workers take the larger shards), which is
    how Tofu handles dimensions that are not divisible by the worker count.
    """
    if not 0 <= dim < len(shape):
        raise ShapeError(f"dimension {dim} out of range for shape {shape}")
    if parts <= 0:
        raise ShapeError(f"parts must be positive, got {parts}")
    size = shape[dim]
    shard = (size + parts - 1) // parts
    if shard == 0:
        raise ShapeError(f"cannot split dimension of size {size} into {parts} parts")
    out = list(shape)
    out[dim] = shard
    return tuple(out)
