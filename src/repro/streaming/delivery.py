"""The emission layer: what a decided match *delivers* to its subscriber.

The answer shape of :class:`~repro.streaming.matcher.MultiMatcher` is
pluggable: every entry point that builds one takes ``delivery=``, a
:class:`Delivery` naming one of three modes:

``verdict``
    Per-subscription booleans only.  Cheapest; admits early termination.
``ids``
    Sorted matched node ids per subscription (the default).
``substream``
    The matched *content*: each match re-emits its subtree's events,
    re-serialized to XML bytes by
    :mod:`repro.xmlmodel.stream_serialize` — what a content-based router
    actually forwards to the subscriber.

Substream mode is implemented as a **shared single-pass tee**
(:class:`SubtreeTee`).  While at least one capture window is open the
matcher tees every stream event into one shared buffer (a :class:`_Region`);
every subscription whose match overlaps that stretch of the document holds
a ``(start, end)`` *slice* of the same region — matches never get
per-subscriber event copies, no matter how many subscribers capture the
same subtree.  When the last open window closes, the region is dropped and
teeing stops, so the tee costs nothing on stretches of the document nobody
matched.  Serialization of a slice is cached on the region, so ten members
matching the same element pay for one rendering — and keys sharing one
member share its one capture, fanned out at emission.

Payload routing is the broker's choice: with an ``on_payload`` callback the
bytes stream out as each window closes; without one they are buffered and
returned on :class:`~repro.streaming.matcher.SubscriptionResult` as
``payload``.

**Churn safety.**  The tee is *matcher* state, not automaton state: a DFA
transition-cache flush mid-document — whether from the cache cap or from a
live ``add_subscription`` invalidating touched transitions — rebuilds only
the automaton's lookup tables and leaves every open capture window, its
shared region, and its buffered events untouched; the payload delivered at
window close is byte-identical to an unflushed run.  Live *removals* never
reach this layer at all: a retired member's matches are suppressed by the
matcher's dropped sink, so no window is opened for them in the first place,
windows already open for surviving members keep their slices, and a removed
key is skipped when its member's capture is emitted.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from repro.xmlmodel.events import EndElement, Event, StartElement, Text
from repro.xmlmodel.stream_serialize import serialize_events

#: The three delivery modes, in increasing order of what crosses the wire.
VERDICT = "verdict"
NODE_IDS = "ids"
SUBSTREAM = "substream"
DELIVERY_MODES = (VERDICT, NODE_IDS, SUBSTREAM)

#: Signature of a substream payload callback:
#: ``on_payload(subscription_key, node_id, data)``.
PayloadCallback = Callable[[Hashable, int, bytes], None]


class Delivery:
    """What a decided match delivers.  Base of the three concrete modes.

    ``mode``
        One of :data:`DELIVERY_MODES`.
    ``matches_only``
        Whether sinks may collapse to booleans (enables early termination).
    ``captures``
        Whether the matcher must run the :class:`SubtreeTee` and open a
        capture window per match.
    ``on_payload``
        Optional streaming callback for substream mode; ``None`` buffers.
    """

    mode: str = NODE_IDS
    matches_only: bool = False
    captures: bool = False
    on_payload: Optional[PayloadCallback] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"{type(self).__name__}(mode={self.mode!r})"


class VerdictDelivery(Delivery):
    """Booleans only — the SDI routing mode.  Result sinks are existence
    sinks, so a subscription stops costing anything once it is decided and
    the session halts when all are."""

    mode = VERDICT
    matches_only = True


class NodeIdDelivery(Delivery):
    """Sorted matched node ids per subscription (the default)."""

    mode = NODE_IDS


class SubstreamDelivery(Delivery):
    """Matched subtrees re-emitted as serialized XML payload bytes.

    With ``on_payload`` the payload streams out per match as its capture
    window closes (``on_payload(key, node_id, data)``); without it each
    subscription's payloads are concatenated in document order and returned
    as ``SubscriptionResult.payload``.
    """

    mode = SUBSTREAM
    captures = True

    def __init__(self, on_payload: Optional[PayloadCallback] = None) -> None:
        self.on_payload = on_payload


def resolve_delivery(delivery: Optional[Delivery] = None) -> Delivery:
    """The ``delivery=`` argument of the engine entry points as a Delivery:
    ``None`` means :class:`NodeIdDelivery`."""
    if delivery is None:
        return NodeIdDelivery()
    if not isinstance(delivery, Delivery):
        raise TypeError(f"not a Delivery: {delivery!r}")
    return delivery


# ---------------------------------------------------------------------------
# The shared single-pass tee.
# ---------------------------------------------------------------------------

class _Region:
    """One shared capture buffer for a maximal overlapping stretch.

    All capture windows open at the same time share one region *by
    reference*; each window is a ``(start, end)`` slice into
    ``events``.  ``render`` memoizes serialization per slice, so N
    subscribers matching the same subtree share one rendering.
    """

    __slots__ = ("events", "_rendered")

    def __init__(self) -> None:
        self.events: List[Event] = []
        self._rendered: Dict[Tuple[int, int], bytes] = {}

    def render(self, start: int, end: int) -> bytes:
        key = (start, end)
        data = self._rendered.get(key)
        if data is None:
            data = serialize_events(self.events[start:end])
            self._rendered[key] = data
        return data


@dataclass
class _Capture:
    """One member's open (then closed) window into a shared region.

    ``entry`` is the :class:`~repro.streaming.matcher._Entry` the match
    buffered in its sink — emission is gated on ``entry.holds()`` when the
    match carried conditions that were still undecided at window close.
    """

    ordinal: int
    node_id: int
    entry: object
    region: _Region
    start: int
    end: int = -1

    def render(self) -> bytes:
        return self.region.render(self.start, self.end)


@dataclass
class _LeafCapture:
    """A text- or attribute-node match: the payload is just the escaped
    value, rendered immediately (no window — leaves span no events)."""

    ordinal: int
    node_id: int
    entry: object
    data: bytes

    def render(self) -> bytes:
        return self.data


#: A pending claim: ``(ordinal, entry)`` recorded by ``add_candidate``
#: during an element's StartElement processing, turned into a window by
#: ``SubtreeTee.element_start`` before the event is appended.  ``(None,
#: None)`` claims a *held* window; claims recorded at the element's close
#: take it over in ``SubtreeTee.element_end``.
Claim = Tuple[int, object]


class SubtreeTee:
    """Share one pass of the event stream among all open capture windows.

    The matcher calls :meth:`element_start` / :meth:`text` /
    :meth:`element_end` from its feed loop.  Every call is a no-op unless a
    window is open (``region is not None``), which is what keeps substream
    mode zero-cost on unmatched stretches of the document — and is why
    node-id mode, which never opens a window, pays nothing at all.

    A timing invariant of the engine makes the single pass possible: every
    element match — final-step expectation, DFA accept, gate remainder,
    self-axis — fires *during that element's StartElement processing*, so
    the window's ``start`` index can be taken before the StartElement is
    appended and the slice always begins at the matched element's own start
    tag.
    """

    __slots__ = ("region", "open_windows", "_windows_by_node",
                 "_document_windows")

    def __init__(self) -> None:
        #: The shared buffer of the current overlapping stretch, or ``None``
        #: when no window is open (the common case: tee disengaged).
        self.region: Optional[_Region] = None
        self.open_windows = 0
        #: Element windows keyed by matched node id, closed by the matching
        #: EndElement.  A node id maps to the captures of *every*
        #: member that matched that element.
        self._windows_by_node: Dict[int, List[_Capture]] = {}
        #: Root ("/") matches span the whole document; closed by finish().
        self._document_windows: List[_Capture] = []

    # -- opening windows ---------------------------------------------------
    def _open(self, node_id: int, claims: List[Claim]) -> List[_Capture]:
        region = self.region
        if region is None:
            region = self.region = _Region()
        start = len(region.events)
        captures = [_Capture(ordinal=ordinal, node_id=node_id, entry=entry,
                             region=region, start=start)
                    for ordinal, entry in claims]
        self.open_windows += len(captures)
        return captures

    def element_start(self, event: StartElement,
                      claims: List[Claim]) -> None:
        """Tee one StartElement; open a window per claim on this element."""
        if claims:
            self._windows_by_node.setdefault(event.node_id, []).extend(
                self._open(event.node_id, claims))
        if self.region is not None:
            self.region.events.append(event)

    def open_document(self, root_id: int, claims: List[Claim]) -> None:
        """Open whole-document windows for root ("/") matches."""
        if claims:
            self._document_windows.extend(self._open(root_id, claims))

    # -- teeing ------------------------------------------------------------
    def text(self, event: Text) -> None:
        if self.region is not None:
            self.region.events.append(event)

    # -- closing windows ---------------------------------------------------
    def element_end(self, event: EndElement,
                    claims: List[Claim] = ()) -> List[_Capture]:
        """Tee one EndElement; close and return the windows it ends.  A
        *held* window (no member, claimed first) becomes one capture per
        entry of ``claims`` — the matches the close decided — and empties
        it; nothing matched, nothing is captured."""
        region = self.region
        if region is None:
            return ()
        region.events.append(event)
        closed = self._windows_by_node.pop(event.node_id, None)
        if not closed:
            return ()
        end = len(region.events)
        for capture in closed:
            capture.end = end
        self.open_windows -= len(closed)
        if self.open_windows == 0:
            # Last window gone: drop the shared buffer (closed captures
            # keep their region alive by reference) and disengage the tee.
            self.region = None
        if closed[0].ordinal is None:
            held = closed.pop(0)
            closed.extend(replace(held, ordinal=ordinal, entry=entry)
                          for ordinal, entry in claims)
            claims.clear()
        return closed

    def finish(self) -> List[_Capture]:
        """Close the document windows at EndDocument."""
        closed = self._document_windows
        if not closed:
            return closed
        self._document_windows = []
        end = len(self.region.events) if self.region is not None else 0
        for capture in closed:
            capture.end = end
        self.open_windows -= len(closed)
        if self.open_windows == 0:
            self.region = None
        return closed

    def rewind(self) -> None:
        """Forget all per-document state (session reuse across documents)."""
        self.region = None
        self.open_windows = 0
        self._windows_by_node.clear()
        self._document_windows = []
