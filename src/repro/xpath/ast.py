"""Abstract syntax of the location path language xPath (Section 2.1).

The grammar of the paper::

    path   ::= path | path  |  / path  |  path / path  |  path [ qualif ]
             |  axis :: nodetest  |  ⊥
    qualif ::= qualif and qualif  |  qualif or qualif  |  ( qualif )
             |  path = path  |  path == path  |  path
    axis   ::= reverse_axis | forward_axis
    nodetest ::= tagname | * | text() | node()

The AST normalizes the concrete syntax in the standard way: a path is either
``⊥`` (:class:`Bottom`), a union of paths (:class:`Union`), or a
:class:`LocationPath` — a possibly absolute sequence of :class:`Step` objects
where each step carries its axis, node test and qualifiers.  Qualifiers are
boolean formulas (:class:`AndExpr`/:class:`OrExpr`) over path existence tests
(:class:`PathQualifier`) and joins (:class:`Comparison` with ``=`` for value
equality and ``==`` for node identity).

All nodes are immutable (frozen dataclasses over tuples) and hashable, so the
rewrite engine can share subtrees freely and tests can compare rewritten
paths structurally.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Iterator, Optional, Tuple, Union as TypingUnion

from repro.xpath.axes import Axis


class NodeTestKind(enum.Enum):
    """The four node tests of xPath, plus the attribute extension."""

    NAME = "name"        # a tag name
    WILDCARD = "*"       # any element
    TEXT = "text()"      # any text node
    NODE = "node()"      # any node
    #: Extension: an attribute node, optionally restricted to one name
    #: (``@price`` / ``attribute::price``) or any (``@*``).
    ATTRIBUTE = "attribute"


@dataclass(frozen=True)
class NodeTest:
    """A node test: tag name, ``*``, ``text()``, ``node()`` or ``@name``."""

    kind: NodeTestKind
    name: Optional[str] = None

    def __post_init__(self):
        if self.kind is NodeTestKind.NAME and not self.name:
            raise ValueError("NAME node tests require a tag name")
        if (self.kind not in (NodeTestKind.NAME, NodeTestKind.ATTRIBUTE)
                and self.name is not None):
            raise ValueError(f"{self.kind} node tests carry no name")

    # Convenience constructors ------------------------------------------------
    @staticmethod
    def tag(name: str) -> "NodeTest":
        """Node test matching elements with the given tag name."""
        return NodeTest(NodeTestKind.NAME, name)

    @staticmethod
    def any_element() -> "NodeTest":
        """The ``*`` node test (any element)."""
        return NodeTest(NodeTestKind.WILDCARD)

    @staticmethod
    def text() -> "NodeTest":
        """The ``text()`` node test."""
        return NodeTest(NodeTestKind.TEXT)

    @staticmethod
    def node() -> "NodeTest":
        """The ``node()`` node test (any node)."""
        return NodeTest(NodeTestKind.NODE)

    @staticmethod
    def attribute(name: Optional[str] = None) -> "NodeTest":
        """An attribute node test: ``@name``, or ``@*`` when ``name`` is None."""
        return NodeTest(NodeTestKind.ATTRIBUTE, name)

    @property
    def is_node(self) -> bool:
        """``True`` for the ``node()`` test."""
        return self.kind is NodeTestKind.NODE

    @property
    def is_attribute(self) -> bool:
        """``True`` for attribute node tests (named or ``@*``)."""
        return self.kind is NodeTestKind.ATTRIBUTE

    def __str__(self) -> str:
        if self.kind is NodeTestKind.NAME:
            return self.name or ""
        if self.kind is NodeTestKind.ATTRIBUTE:
            return self.name or "*"
        return self.kind.value


# ---------------------------------------------------------------------------
# Qualifiers
# ---------------------------------------------------------------------------

class Qualifier:
    """Marker base class for qualifier (predicate) expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class PathQualifier(Qualifier):
    """A path used as an existence test: true iff the path selects a node."""

    path: "PathExpr"


@dataclass(frozen=True)
class AndExpr(Qualifier):
    """Conjunction of two qualifiers."""

    left: Qualifier
    right: Qualifier


@dataclass(frozen=True)
class OrExpr(Qualifier):
    """Disjunction of two qualifiers."""

    left: Qualifier
    right: Qualifier


@dataclass(frozen=True)
class Comparison(Qualifier):
    """A join ``left θ right`` with θ ∈ {``=``, ``==``}.

    ``==`` is node-identity equality (the XPath 2.0 ``is``/general ``==`` of
    the paper); ``=`` is XPath 1.0 value equality on string values.
    """

    left: "PathExpr"
    op: str
    right: "PathExpr"

    def __post_init__(self):
        if self.op not in ("=", "=="):
            raise ValueError(f"unsupported comparison operator {self.op!r}")


# ---------------------------------------------------------------------------
# Paths and steps
# ---------------------------------------------------------------------------

class PathExpr:
    """Marker base class for path expressions (location paths, unions, ⊥)."""

    __slots__ = ()


@dataclass(frozen=True)
class Step:
    """A location step ``axis::nodetest[q1][q2]...``."""

    axis: Axis
    node_test: NodeTest
    qualifiers: Tuple[Qualifier, ...] = ()

    @property
    def is_reverse(self) -> bool:
        """Whether the step's axis is a reverse axis."""
        return self.axis.is_reverse

    @property
    def is_forward(self) -> bool:
        """Whether the step's axis is a forward axis."""
        return self.axis.is_forward

    def with_qualifiers(self, qualifiers: Iterable[Qualifier]) -> "Step":
        """Return a copy of the step with ``qualifiers`` replacing the current ones."""
        return replace(self, qualifiers=tuple(qualifiers))

    def add_qualifiers(self, *qualifiers: Qualifier) -> "Step":
        """Return a copy of the step with ``qualifiers`` appended."""
        return replace(self, qualifiers=self.qualifiers + tuple(qualifiers))

    def without_qualifiers(self) -> "Step":
        """Return a copy of the step with no qualifiers."""
        return replace(self, qualifiers=())

    @cached_property
    def attribute_split(self):
        """``(attribute predicate or None, other qualifiers, literal of a
        lone [. = "lit"] or None)`` — see
        :func:`repro.xpath.analysis.split_attribute_qualifiers`; computed
        once per step object, read on every match of the step."""
        from repro.xpath.analysis import split_attribute_qualifiers
        return split_attribute_qualifiers(self.qualifiers)


@dataclass(frozen=True)
class LocationPath(PathExpr):
    """A (possibly absolute) sequence of location steps.

    ``absolute=True`` with no steps denotes the path ``/`` which selects
    exactly the document root.
    """

    absolute: bool
    steps: Tuple[Step, ...] = ()

    def __post_init__(self):
        if not self.absolute and not self.steps:
            raise ValueError("a relative path needs at least one step")

    # Functional updates ------------------------------------------------------
    def with_steps(self, steps: Iterable[Step]) -> "LocationPath":
        """Return a copy with the given steps."""
        return LocationPath(absolute=self.absolute, steps=tuple(steps))

    def append(self, *steps: Step) -> "LocationPath":
        """Return a copy with ``steps`` appended at the end."""
        return LocationPath(absolute=self.absolute, steps=self.steps + tuple(steps))

    def prepend(self, *steps: Step) -> "LocationPath":
        """Return a copy with ``steps`` inserted at the front."""
        return LocationPath(absolute=self.absolute, steps=tuple(steps) + self.steps)

    def concat(self, other: "LocationPath") -> "LocationPath":
        """Return ``self/other`` (``other`` must be relative)."""
        if other.absolute:
            raise ValueError("cannot concatenate an absolute path on the right")
        return LocationPath(absolute=self.absolute, steps=self.steps + other.steps)

    def slice(self, start: int, stop: Optional[int] = None) -> "LocationPath":
        """Return the sub-path ``steps[start:stop]``.

        The result keeps the ``absolute`` flag only when the slice starts at
        step 0; otherwise it is a relative path.
        """
        steps = self.steps[start:stop]
        absolute = self.absolute and start == 0
        if not steps and not absolute:
            raise ValueError("slice would produce an empty relative path")
        return LocationPath(absolute=absolute, steps=steps)

    @property
    def is_root_only(self) -> bool:
        """``True`` for the path ``/`` (absolute, no steps)."""
        return self.absolute and not self.steps

    @property
    def last(self) -> Step:
        """The last step of the path."""
        return self.steps[-1]


@dataclass(frozen=True)
class Union(PathExpr):
    """A union ``p1 | p2 | ... | pk`` of path expressions."""

    members: Tuple[PathExpr, ...]

    def __post_init__(self):
        if len(self.members) < 2:
            raise ValueError("a union needs at least two members")


@dataclass(frozen=True)
class Bottom(PathExpr):
    """The canonical empty path ``⊥`` which never selects any node."""


@dataclass(frozen=True)
class Literal(PathExpr):
    """A string literal, usable only as a ``=`` comparison operand.

    Part of the attribute extension: qualifiers like ``[@id = "42"]``
    compare a node set's string values against a constant.  A literal is not
    a node-selecting path — the parser only accepts it as an operand of a
    value comparison, never on the spine, in a union, or beside ``==``
    (node-identity needs nodes on both sides).  It is context-independent,
    so the analysis helpers treat it like an absolute operand.
    """

    value: str


# ---------------------------------------------------------------------------
# Convenience constructors used pervasively by the rewrite rules and tests
# ---------------------------------------------------------------------------

def step(axis: Axis, node_test: TypingUnion[NodeTest, str],
         *qualifiers: Qualifier) -> Step:
    """Build a step; string node tests are interpreted like the parser does.

    ``"*"`` becomes the wildcard test, ``"node()"`` / ``"text()"`` the
    corresponding kind tests, ``"@name"`` / ``"@*"`` attribute tests, and
    anything else a tag-name test.  On the attribute axis a bare name or
    ``*`` is normalized to the attribute test, as the parser does.
    """
    if isinstance(node_test, str):
        if node_test.startswith("@"):
            name = node_test[1:]
            node_test = NodeTest.attribute(None if name in ("", "*") else name)
        elif axis is Axis.ATTRIBUTE:
            node_test = NodeTest.attribute(None if node_test in ("*", "node()")
                                           else node_test)
        elif node_test == "*":
            node_test = NodeTest.any_element()
        elif node_test == "node()":
            node_test = NodeTest.node()
        elif node_test == "text()":
            node_test = NodeTest.text()
        else:
            node_test = NodeTest.tag(node_test)
    return Step(axis=axis, node_test=node_test, qualifiers=tuple(qualifiers))


def relative(*steps: Step) -> LocationPath:
    """Build a relative location path from steps."""
    return LocationPath(absolute=False, steps=tuple(steps))


def absolute(*steps: Step) -> LocationPath:
    """Build an absolute location path from steps (``/`` when empty)."""
    return LocationPath(absolute=True, steps=tuple(steps))


def root() -> LocationPath:
    """The path ``/`` selecting only the document root."""
    return LocationPath(absolute=True, steps=())


def union_of(*members: PathExpr) -> PathExpr:
    """Build a union, flattening nested unions and dropping ⊥ members.

    Returns ⊥ if every member is ⊥ and the single member when only one
    remains, so callers can use this as a smart constructor.
    """
    flat = []
    for member in members:
        if isinstance(member, Bottom):
            continue
        if isinstance(member, Union):
            flat.extend(m for m in member.members if not isinstance(m, Bottom))
        else:
            flat.append(member)
    if not flat:
        return Bottom()
    if len(flat) == 1:
        return flat[0]
    return Union(members=tuple(flat))


def qualifier(path: PathExpr) -> PathQualifier:
    """Wrap a path as an existence qualifier."""
    return PathQualifier(path=path)


# ---------------------------------------------------------------------------
# Generic traversal helpers
# ---------------------------------------------------------------------------

def iter_union_members(path: PathExpr) -> Iterator[PathExpr]:
    """Yield the top-level members of a (possibly non-union) path expression."""
    if isinstance(path, Union):
        for member in path.members:
            yield from iter_union_members(member)
    else:
        yield path


def qualifier_paths(qual: Qualifier) -> Iterator[PathExpr]:
    """Yield every path expression mentioned by a qualifier (recursively
    through ``and``/``or`` but *not* into nested qualifiers of steps)."""
    if isinstance(qual, PathQualifier):
        yield qual.path
    elif isinstance(qual, (AndExpr, OrExpr)):
        yield from qualifier_paths(qual.left)
        yield from qualifier_paths(qual.right)
    elif isinstance(qual, Comparison):
        yield qual.left
        yield qual.right
    else:  # pragma: no cover - defensive
        raise TypeError(f"not a qualifier: {qual!r}")
