"""The read-only forms a graph's containers and records take when it freezes.

A graph freezes when its content signature is first computed
(:func:`repro.caching.graph_signature`), so that signature can be stored on
the graph and never go stale.  Freezing converts what
:func:`repro.graph.serialization.graph_to_dict` serialises into the types
below; every edit to them raises a :class:`GraphError` coded
:data:`FROZEN_GRAPH`.  The containers subclass ``dict`` and ``list``, so
readers, ``isinstance`` checks and ``json`` see the same values as before.

A partition plan freezes the same way (:mod:`repro.partition.plan`): its
containers and records subclass these types with an ``edit_error`` that
builds the plan's own coded error instead of :func:`frozen_graph_error`.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable

from repro.errors import GraphError

#: The code of every :class:`GraphError` an edit to a frozen graph raises.
FROZEN_GRAPH = "GRA001_FROZEN_GRAPH"


def frozen_graph_error(owner: str) -> GraphError:
    """The coded error for an edit of ``owner``, a part of a frozen graph."""
    return GraphError(
        f"cannot edit {owner}: the graph is frozen "
        "once signed or compiled; copy it with "
        "graph_from_dict(graph_to_dict(graph)) to edit",
        code=FROZEN_GRAPH,
    )


def read_only(self, *args: Any, **kwargs: Any) -> None:
    """Raise ``self.edit_error`` (by default the frozen graph's error)."""
    raise getattr(self, "edit_error", frozen_graph_error)(type(self).__name__)


class FrozenDict(dict):
    """A ``dict`` that raises on every edit."""

    __slots__ = ()
    __setitem__ = __delitem__ = __ior__ = read_only
    clear = pop = popitem = setdefault = update = read_only

    def __reduce__(self):
        return type(self), (dict(self),)


class FrozenList(list):
    """A ``list`` that raises on every edit."""

    __slots__ = ()
    __setitem__ = __delitem__ = __iadd__ = __imul__ = read_only
    append = clear = extend = insert = pop = remove = reverse = sort = read_only

    def __reduce__(self):
        return type(self), (list(self),)


_CONTAINERS = (dict, list, tuple)
_FROZEN = (FrozenDict, FrozenList)


def freeze_value(value: Any) -> Any:
    """``value`` with every dict and list in it, however deeply nested, copied
    into its read-only form.  Tuples stay tuples of frozen items; other
    values are returned as they are."""
    if not isinstance(value, _CONTAINERS) or isinstance(value, _FROZEN):
        return value
    if isinstance(value, dict):
        return FrozenDict({key: freeze_value(item) for key, item in value.items()})
    if isinstance(value, list):
        return FrozenList([freeze_value(item) for item in value])
    if type(value) is tuple:
        return tuple([freeze_value(item) for item in value])
    return value


def thaw_value(value: Any) -> Any:
    """An editable deep copy of a :func:`freeze_value` result (plain dicts
    and lists; tuples stay tuples)."""
    if isinstance(value, dict):
        return {key: thaw_value(item) for key, item in value.items()}
    if isinstance(value, list):
        return [thaw_value(item) for item in value]
    if type(value) is tuple:
        return tuple(thaw_value(item) for item in value)
    return value


def frozen_record_class(
    cls: type, edit_error: Callable[[str], Exception] = frozen_graph_error
) -> type:
    """The read-only subclass of the record dataclass ``cls``, whose edits
    raise ``edit_error(type name)``.

    Freezing a record swaps its class to this subclass (see
    ``OpNode.freeze``), so building a graph pays nothing for the check.  A
    frozen record still equals an editable one with the same compared
    fields.  Calling the subclass with fields, as ``dataclasses.replace``
    does, builds an editable ``cls``; ``copy`` and ``pickle``, which call it
    without any, get a frozen record back.
    """

    def __new__(frozen: type, *args: Any, **kwargs: Any) -> Any:
        if args or kwargs:
            return cls(*args, **kwargs)
        return object.__new__(frozen)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, cls):
            return NotImplemented
        return all(
            getattr(self, f.name) == getattr(other, f.name)
            for f in dataclasses.fields(self)
            if f.compare
        )

    def freeze(self) -> None:
        """Already frozen."""

    name = f"Frozen{cls.__name__}"
    return type(name, (cls,), {
        "__doc__": f"A read-only :class:`{cls.__name__}`.",
        "__module__": cls.__module__,
        "__qualname__": name,
        "__new__": __new__,
        "__setattr__": read_only,
        "__delattr__": read_only,
        "__eq__": __eq__,
        "__hash__": None,
        "edit_error": staticmethod(edit_error),
        "freeze": freeze,
    })
