"""SAX-like events used by the streaming substrate (System S2).

The streaming evaluator of :mod:`repro.streaming` consumes a flat sequence of
these events instead of a materialized tree, which is the whole point of the
paper: once a location path is reverse-axis-free it can be answered while the
events fly by.

Every event carries the *document-order position* of the node it opens
(``node_id``), assigned incrementally by whatever produces the stream.
Positions are what query answers refer to, and they allow checking that the
streaming evaluator selects exactly the same nodes as the in-memory
evaluator.

Events are immutable values — equal when type and fields are, hashable,
shown as ``Text(value='x', node_id=2)`` — built once per node, so they are
``__slots__`` classes whose constructors store fields through the slot
descriptors: about half what a frozen dataclass's per-field
``object.__setattr__`` costs.  Producers pass the fields positionally.
"""

from __future__ import annotations

from typing import Tuple

#: Attribute payload of a :class:`StartElement`: ``(name, value)`` pairs in
#: document order.  A tuple (not a dict) so events stay immutable and hashable.
Attributes = Tuple[Tuple[str, str], ...]


class Event:
    """Base of the five events.  ``_fields`` lists the fields in constructor
    order; equality, hashing and ``repr`` read them."""

    __slots__ = ("node_id",)
    _fields: Tuple[str, ...] = ("node_id",)

    def __init__(self, node_id: int = 0):
        _set_node_id(self, node_id)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash((type(self).__name__, self._values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} events are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} events are immutable")


class StartDocument(Event):
    """Marks the beginning of the stream; opens the root node (id 0)."""

    __slots__ = ()


class EndDocument(Event):
    """Marks the end of the stream; closes the root node."""

    __slots__ = ()


class StartElement(Event):
    """Opens an element node.

    ``attributes`` holds the ``(name, value)`` pairs in document order.
    Attribute *nodes* take the positions right after their element
    (``node_id + 1`` … ``node_id + len(attributes)``), so producers advance
    their id counter past them; the list is complete at this event, which
    lets the streaming engine decide attribute steps and ``[@a]`` at once.
    """

    __slots__ = ("tag", "attributes")
    _fields = ("tag", "node_id", "attributes")

    def __init__(self, tag: str, node_id: int, attributes: Attributes = ()):
        _set_start_tag(self, tag)
        _set_node_id(self, node_id)
        _set_attributes(self, attributes)


class EndElement(Event):
    """Closes the element node opened by the matching :class:`StartElement`."""

    __slots__ = ("tag",)
    _fields = ("tag", "node_id")

    def __init__(self, tag: str, node_id: int):
        _set_end_tag(self, tag)
        _set_node_id(self, node_id)


class Text(Event):
    """A text node.  Text nodes are leaves, so a single event suffices."""

    __slots__ = ("value",)
    _fields = ("value", "node_id")

    def __init__(self, value: str, node_id: int):
        _set_value(self, value)
        _set_node_id(self, node_id)


_set_node_id = Event.node_id.__set__
_set_start_tag = StartElement.tag.__set__
_set_attributes = StartElement.attributes.__set__
_set_end_tag = EndElement.tag.__set__
_set_value = Text.value.__set__
