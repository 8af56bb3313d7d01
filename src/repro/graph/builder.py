"""Symbolic graph construction.

``GraphBuilder`` is the user-facing way to build dataflow graphs: it creates
tensors, applies registered operators (running shape inference as it goes) and
hands back a validated :class:`~repro.graph.graph.Graph`.  The model zoo and
the autodiff pass are both written against this interface.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.graph.graph import Graph
from repro.graph.node import OpNode
from repro.graph.tensor import TensorSpec
from repro.ops.registry import get_op


class GraphBuilder:
    """Incrementally builds a dataflow graph.

    The builder keeps a ``default_kind`` for tensors created by ``apply``;
    the autodiff pass switches it to ``"gradient"`` while emitting backward
    nodes so every generated tensor is tagged with its role.
    """

    def __init__(self, name: str = "graph") -> None:
        self._graph = Graph(name)
        self._counter: Dict[str, int] = {}
        self.default_kind = "activation"

    # ------------------------------------------------------------- tensors
    def input(
        self,
        name: str,
        shape: Sequence[int],
        *,
        kind: str = "data",
        dtype: str = "float32",
    ) -> str:
        """Declare a graph input tensor (data, weight or optimiser state)."""
        spec = TensorSpec(name=name, shape=tuple(shape), dtype=dtype, kind=kind)
        self._graph.add_tensor(spec)
        return name

    def data(self, name: str, shape: Sequence[int], dtype: str = "float32") -> str:
        return self.input(name, shape, kind="data", dtype=dtype)

    def weight(self, name: str, shape: Sequence[int], dtype: str = "float32") -> str:
        return self.input(name, shape, kind="weight", dtype=dtype)

    def state(self, name: str, shape: Sequence[int], dtype: str = "float32") -> str:
        return self.input(name, shape, kind="state", dtype=dtype)

    def tensor_shape(self, name: str) -> Tuple[int, ...]:
        return self._graph.tensor(name).shape

    # --------------------------------------------------------------- nodes
    def _unique_name(self, base: str) -> str:
        if base not in self._graph.nodes and base not in self._counter:
            self._counter[base] = 0
            return base
        self._counter[base] = self._counter.get(base, 0) + 1
        candidate = f"{base}_{self._counter[base]}"
        while candidate in self._graph.nodes:
            self._counter[base] += 1
            candidate = f"{base}_{self._counter[base]}"
        return candidate

    def apply(
        self,
        op: str,
        inputs: Sequence[str],
        *,
        name: Optional[str] = None,
        attrs: Optional[dict] = None,
        kind: Optional[str] = None,
        dtype: str = "float32",
    ) -> Union[str, List[str]]:
        """Apply operator ``op`` to ``inputs`` and return the output tensor(s).

        Shape inference runs immediately; a :class:`ShapeError` here points at
        the model-construction bug rather than surfacing later in a pass.
        """
        opdef = get_op(op)
        attrs = dict(attrs or {})
        input_shapes = [self.tensor_shape(t) for t in inputs]
        output_shapes = opdef.output_shapes(input_shapes, attrs)
        node_name = self._unique_name(name or op)
        out_kind = kind or self.default_kind

        outputs: List[str] = []
        for i, shape in enumerate(output_shapes):
            if len(output_shapes) == 1:
                tensor_name = node_name
            else:
                tensor_name = f"{node_name}:out{i}"
            spec = TensorSpec(
                name=tensor_name, shape=tuple(shape), dtype=dtype, kind=out_kind
            )
            self._graph.add_tensor(spec)
            outputs.append(tensor_name)

        node = OpNode(
            name=node_name, op=op, inputs=list(inputs), outputs=outputs, attrs=attrs
        )
        self._graph.add_node(node)
        if len(outputs) == 1:
            return outputs[0]
        return outputs

    # ------------------------------------------------------- common helpers
    def matmul(self, a: str, b: str, name: Optional[str] = None) -> str:
        return self.apply("matmul", [a, b], name=name)

    def conv2d(
        self,
        data: str,
        weight: str,
        *,
        stride: int = 1,
        pad: Optional[int] = None,
        name: Optional[str] = None,
    ) -> str:
        attrs: dict = {"stride": stride}
        if pad is not None:
            attrs["pad"] = pad
        return self.apply("conv2d", [data, weight], name=name, attrs=attrs)

    def relu(self, x: str, name: Optional[str] = None) -> str:
        return self.apply("relu", [x], name=name)

    def add(self, a: str, b: str, name: Optional[str] = None) -> str:
        return self.apply("add", [a, b], name=name)

    def multiply(self, a: str, b: str, name: Optional[str] = None) -> str:
        return self.apply("multiply", [a, b], name=name)

    def sigmoid(self, x: str, name: Optional[str] = None) -> str:
        return self.apply("sigmoid", [x], name=name)

    def tanh(self, x: str, name: Optional[str] = None) -> str:
        return self.apply("tanh", [x], name=name)

    # -------------------------------------------------------------- result
    @property
    def graph(self) -> Graph:
        return self._graph

    def mark_output(self, tensor_name: str) -> None:
        """Tag a tensor as a graph output so it is never buffer-recycled."""
        spec = self._graph.tensor(tensor_name)
        if spec.kind not in ("weight", "state"):
            spec.kind = "output"

    def finish(self, validate: bool = True) -> Graph:
        if validate:
            self._graph.validate()
        return self._graph
