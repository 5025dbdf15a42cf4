"""Single-pass streaming matcher for reverse-axis-free location paths.

The engine consumes a stream of SAX-like events exactly once and reports the
document-order ids of the nodes selected by a forward-only location path.
It is the kind of progressive processor the paper's conclusion announces
("we are designing and implementing a progressive XPath processor" [12]) —
a compact cousin of the authors' later SPEX system.

How it works
------------

* The engine keeps the stack of currently open elements (the only structural
  state a SAX consumer has for free).
* For every location step that still has to be matched, an *expectation*
  describes which future nodes can match it: nodes related to an *anchor*
  node (the match of the previous step) by the step's forward axis.  Because
  all axes are forward, an expectation only ever has to look at nodes whose
  start event has not arrived yet:

  ========================  =====================================================
  axis                      nodes that can still match once the anchor is known
  ========================  =====================================================
  ``self``                  the anchor itself (resolved immediately)
  ``child``                 nodes starting while the anchor is open, one level deeper
  ``descendant``            nodes starting while the anchor is open
  ``descendant-or-self``    the anchor itself plus descendants
  ``following-sibling``     nodes at the anchor's depth after the anchor closes,
                            while the anchor's parent is open
  ``following``             any node starting after the anchor closes
  ========================  =====================================================

* Live expectations are not kept in one flat list.  They are held in a
  YFilter-style *dispatch index* (:class:`_DispatchIndex`) bucketed by what
  their node test can match: an exact-tag table for named tests, plus
  wildcard, any-node and text-node buckets.  A ``StartElement(tag)`` event
  consults only the ``tag`` bucket and the two element-compatible catch-all
  buckets; a ``Text`` event only the text and any-node buckets.  Each
  consulted expectation then passes a constant-time admissibility check
  (active state plus the depth constraint of ``child``/``following-sibling``)
  before it matches — the node test itself is implied by the bucket.
  Per-event work therefore scales with the expectations that *could* match
  the event, not with all live expectations
  (``StreamStats.expectations_checked``).
* Lifecycle transitions are indexed by node id instead of scanned, in one
  close-event registry: expectations waiting for their anchor to close
  (``following`` / ``following-sibling``) register under the anchor's id
  and enter the dispatch index when that exact element closes;
  ``child``/``descendant`` expectations register under their anchor's id
  too, to expire with it; a ``following-sibling`` window also registers
  under its anchor's *parent* id and is closed when that parent closes.  An
  :class:`EndElement` therefore pops just the affected entries — whatever
  is still waiting activates, the rest expires.  Expectations that can no
  longer deliver anything useful (the existence sink they feed is already
  satisfied — a qualifier witness found, or a verdict-only subscription
  decided) are unlinked *at the moment of satisfaction* through the
  sink-watcher registry rather than re-checked on every event.
* Attribute-only qualifiers (``[@a]``, ``[@a = "v"]``, ``and``/``or`` of
  them) are decided from the start tag the moment their step matches; a
  false one ends the match there.
* A final-step element match whose only other qualifier is
  ``[. = "lit"]`` waits under its literal in the element's string-value
  collector; the closed value's one lookup delivers the matching waiters.
* Other qualifiers and joins become *conditions* attached to candidate
  matches.  Existence qualifiers spawn sub-expectations anchored at the
  candidate; ``==`` joins collect node ids on both sides; ``=`` joins
  additionally buffer string values.  Absolute sub-paths (introduced by
  RuleSet1's rewriting) are matched once from the document root into sinks
  shared by all conditions that mention them.
* At the end of the stream every condition can be decided and the candidates
  whose conditions hold are reported.  Memory therefore scales with the
  number of *pending candidates and conditions* — not with the document —
  which is the property the benchmarks of experiment E9 measure.

Reverse axes are rejected: remove them first with
:func:`repro.rewrite.remove_reverse_axes`.

One class, :class:`MultiMatcher`, runs every document pass: a session over
the subscriptions of a :class:`~repro.streaming.engine.SubscriptionIndex`,
thousands of them or — behind :func:`repro.streaming.stream_evaluate` —
exactly one.

* It owns the event loop, the element stack, the expectation lifecycle,
  conditions, value collection and the shared absolute-sub-path sinks.
  Each expectation carries the remaining steps of its path and the sink
  they feed; whatever matched a step — a dispatched node, an attribute, a
  ``self`` anchor, a node that reached a gate — continues through
  :meth:`MultiMatcher.step_matched`.
* Paths enter through one door.  With ``backend="dfa"`` the lazy
  automaton (:mod:`repro.streaming.automaton`) dispatches structure and
  either *accepts* (a decided match, straight into ``add_candidate``) or
  fires a *gate*, which spawns the member's remaining steps as expectations
  — members the automaton cannot carry are gated at the document root.
  With ``backend="expectations"`` — the differential semantics reference —
  there is no automaton and every path is spawned whole from the root
  (:meth:`MultiMatcher.spawn_root_expr`): N independent single-query
  matchers in one session.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import (TYPE_CHECKING, Dict, Hashable, Iterable, List, Optional,
                    Tuple)

from repro.errors import StreamingError
from repro.streaming.automaton import AutomatonRun, SubscriptionAutomaton
from repro.streaming.delivery import (
    Delivery,
    SubtreeTee,
    _LeafCapture,
    resolve_delivery,
)
from repro.streaming.stats import StreamStats
from repro.xmlmodel.stream_serialize import serialize_events
from repro.xmlmodel.events import (
    EndDocument,
    EndElement,
    Event,
    StartDocument,
    StartElement,
    Text,
)
from repro.xpath import analysis
from repro.xpath.ast import (
    AndExpr,
    Bottom,
    Comparison,
    Literal,
    LocationPath,
    NodeTestKind,
    OrExpr,
    PathExpr,
    PathQualifier,
    Qualifier,
    Step,
    iter_union_members,
)
from repro.xpath.axes import Axis
from repro.xpath.serializer import to_string

if TYPE_CHECKING:
    from repro.streaming.engine import SubscriptionIndex


# ---------------------------------------------------------------------------
# Conditions: booleans decided by the end of the stream
# ---------------------------------------------------------------------------

@dataclass
class _Entry:
    """One buffered candidate produced by a sink: node id, optional value,
    and the conditions that must hold for it to count."""

    node_id: int
    conditions: Tuple["_Condition", ...]
    value: Optional[str] = None

    def holds(self) -> bool:
        return all(condition.result() for condition in self.conditions)


class _Sink:
    """Collects the final-step matches of one (sub-)path.

    Sinks that only feed an existence condition (``exists_only``) resolve
    eagerly: as soon as one match with no pending conditions arrives, the
    sink is *satisfied*, later matches are not buffered, and the engine stops
    feeding the expectations that point at it.  This keeps the memory of
    streaming evaluation proportional to the number of genuinely undecided
    candidates rather than to the number of witnesses in the document.
    """

    __slots__ = ("entries", "collect_values", "exists_only", "satisfied")

    #: ``None``: engine-internal (qualifier sub-path, absolute operand).
    ordinal: Optional[int] = None

    def __init__(self, collect_values: bool = False, exists_only: bool = False):
        self.entries: List[_Entry] = []
        self.collect_values = collect_values
        self.exists_only = exists_only
        self.satisfied = False

    def add(self, entry: _Entry) -> bool:
        """Record a match while unsatisfied; returns whether it was buffered."""
        if self.exists_only and not entry.conditions:
            self.satisfied = True
            self.entries.clear()
            return False
        self.entries.append(entry)
        return True

    def surviving(self) -> List[_Entry]:
        return [entry for entry in self.entries if entry.holds()]

    def nonempty(self) -> bool:
        return self.satisfied or bool(self.surviving())


class _ResultSink(_Sink):
    """A member's result sink: it lists itself in its session's
    ``touched`` list on the first delivery of a document (every delivery path
    ends in :meth:`add`), so readout and reset visit those sinks, not all N."""

    __slots__ = ("ordinal", "touched")

    def __init__(self, ordinal: int, touched: list, exists_only: bool):
        super().__init__(exists_only=exists_only)
        self.ordinal = ordinal
        self.touched = touched

    def add(self, entry: _Entry) -> bool:
        # Entries go only when the sink satisfies, and then nothing is added.
        if not self.entries:
            self.touched.append(self)
        return _Sink.add(self, entry)


#: Shared terminal sink for deliveries that must be dropped on the floor:
#: retired members (their last key unsubscribed), and members a live session
#: does not carry yet because they were added mid-document (live churn —
#: see :meth:`MultiMatcher.sync`).  Permanently
#: satisfied and exists-only, so ``add_candidate`` rejects every entry in
#: O(1), qualifier gates skip it, no capture claim can attach (no ordinal).
_DROPPED_SINK = _Sink(exists_only=True)
_DROPPED_SINK.satisfied = True


class _Condition:
    """Base class of deferred boolean conditions."""

    __slots__ = ()

    def result(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def known_true(self) -> bool:
        """Whether the condition is already *irrevocably* true mid-stream.

        Conservative: ``False`` just means "not decided yet".  This is what
        lets qualifiers that mention attributes beside other tests
        (``[@a or child::b]``) settle verdicts at the StartElement that
        carries the attributes — their attribute sub-sinks are final the
        moment the per-element attribute sweep ends — instead of waiting
        for the end of the stream.
        """
        return False


class _ExistsCondition(_Condition):
    """True iff the attached sink ends up with at least one surviving entry."""

    __slots__ = ("sink",)

    def __init__(self, sink: _Sink):
        self.sink = sink

    def result(self) -> bool:
        return self.sink.nonempty()

    def known_true(self) -> bool:
        # A satisfied existence sink can never become unsatisfied.
        return self.sink.satisfied


class _FalseCondition(_Condition):
    """Constant false (e.g. a ``⊥`` qualifier)."""

    __slots__ = ()

    def result(self) -> bool:
        return False


class _TrueCondition(_Condition):
    """Constant true (e.g. a literal-to-literal comparison that holds)."""

    __slots__ = ()

    def result(self) -> bool:
        return True

    def known_true(self) -> bool:
        return True


class _ValueMatchCondition(_Condition):
    """A ``path = "literal"`` join: some surviving entry has that value.

    A bare ``[@id = "42"]`` never gets here — it is an attribute predicate,
    decided from the start tag when its step matches — nor, but on a
    non-final step or the root, a lone ``[. = "42"]`` (see
    :meth:`MultiMatcher.step_matched`).  Attribute operands
    inside mixed qualifiers (``[@id = "42" or child::b]``) do: their value
    arrives complete on the StartElement event, so the sink entry's value
    is final the moment the attribute sweep delivers it.
    """

    __slots__ = ("sink", "value")

    def __init__(self, sink: _Sink, value: str):
        self.sink = sink
        self.value = value

    def result(self) -> bool:
        return any((entry.value or "") == self.value
                   for entry in self.sink.surviving())

    def known_true(self) -> bool:
        # Entry values are final once set (attributes and text at creation,
        # elements when they close) and entries are never removed from a
        # collecting sink, so a matching entry whose own conditions are
        # irrevocable decides the comparison for good.
        return any(
            entry.value is not None and entry.value == self.value
            and all(condition.known_true()
                    for condition in entry.conditions)
            for entry in self.sink.entries)


class _AndCondition(_Condition):
    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[_Condition]):
        self.parts = tuple(parts)

    def result(self) -> bool:
        return all(part.result() for part in self.parts)

    def known_true(self) -> bool:
        return all(part.known_true() for part in self.parts)


class _OrCondition(_Condition):
    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[_Condition]):
        self.parts = tuple(parts)

    def result(self) -> bool:
        return any(part.result() for part in self.parts)

    def known_true(self) -> bool:
        return any(part.known_true() for part in self.parts)


class _JoinCondition(_Condition):
    """A join ``left θ right``: node identity (``==``) or value equality (``=``)."""

    __slots__ = ("left", "right", "op")

    def __init__(self, left: _Sink, right: _Sink, op: str):
        self.left = left
        self.right = right
        self.op = op

    def result(self) -> bool:
        left_entries = self.left.surviving()
        right_entries = self.right.surviving()
        if not left_entries or not right_entries:
            return False
        if self.op == "==":
            left_ids = {entry.node_id for entry in left_entries}
            right_ids = {entry.node_id for entry in right_entries}
            return bool(left_ids & right_ids)
        left_values = {entry.value or "" for entry in left_entries}
        right_values = {entry.value or "" for entry in right_entries}
        return bool(left_values & right_values)


# ---------------------------------------------------------------------------
# Expectations: pending step matches
# ---------------------------------------------------------------------------

#: Expectation lifecycle: waiting for the anchor to close (sibling/following
#: axes), actively matching, or expired.
_WAITING, _ACTIVE, _EXPIRED = "waiting", "active", "expired"


class _Expectation:
    """Waiting for future nodes related to ``anchor`` by ``step.axis``.

    A matching node continues through :meth:`MultiMatcher.step_matched` with
    the rest of the path (``remaining``) into ``sink``.

    ``serial`` is the engine-wide spawn ordinal, used as the key under which
    the expectation is linked into the dispatch index (``bucket``) and at
    most one watcher registry (``watch``); both links are severed in O(1)
    when the expectation expires.
    """

    __slots__ = ("step", "remaining", "sink", "anchor_id", "anchor_depth",
                 "conditions", "state", "serial", "bucket", "watch")

    def __init__(self, step: Step, remaining: Tuple[Step, ...], sink: _Sink,
                 anchor_id: int, anchor_depth: int,
                 conditions: Tuple[_Condition, ...], state: str,
                 serial: int = 0):
        self.step = step
        self.remaining = remaining
        self.sink = sink
        self.anchor_id = anchor_id
        self.anchor_depth = anchor_depth
        self.conditions = conditions
        self.state = state
        self.serial = serial
        self.bucket: Optional[Dict[int, "_Expectation"]] = None
        self.watch: Optional[Dict[int, "_Expectation"]] = None

    def admissible(self, depth: int) -> bool:
        """State/depth check for a node whose test the bucket already implies."""
        if self.state is not _ACTIVE:
            return False
        axis = self.step.axis
        if axis is Axis.CHILD:
            return depth == self.anchor_depth + 1
        if axis is Axis.FOLLOWING_SIBLING:
            return depth == self.anchor_depth
        # DESCENDANT / DESCENDANT_OR_SELF / FOLLOWING match any depth in the
        # active window.
        return True


class _DispatchIndex:
    """Active expectations bucketed by what their node test can match.

    Buckets are insertion-ordered dicts keyed by expectation serial, so
    removal (expiry) is O(1) and iteration preserves spawn order.

    Attribute-test expectations get buckets of their own (exact-name table
    plus an ``@*`` bucket), consulted only by the per-element attribute sweep
    — never by element or text dispatch — so attribute-heavy subscription
    sets keep constant-time dispatch.
    """

    __slots__ = ("by_tag", "wildcard", "any_node", "text",
                 "by_attr", "attr_wildcard")

    def __init__(self):
        #: tag -> {serial: expectation} for named node tests.
        self.by_tag: Dict[str, Dict[int, _Expectation]] = {}
        #: ``*`` tests: any element.
        self.wildcard: Dict[int, _Expectation] = {}
        #: ``node()`` tests: any node (elements and text).
        self.any_node: Dict[int, _Expectation] = {}
        #: ``text()`` tests: text nodes only.
        self.text: Dict[int, _Expectation] = {}
        #: attribute name -> {serial: expectation} for ``@name`` tests.
        self.by_attr: Dict[str, Dict[int, _Expectation]] = {}
        #: ``@*`` tests: any attribute.
        self.attr_wildcard: Dict[int, _Expectation] = {}

    def insert(self, expectation: _Expectation) -> None:
        kind = expectation.step.node_test.kind
        if kind is NodeTestKind.ATTRIBUTE:
            name = expectation.step.node_test.name
            if name is None:
                bucket = self.attr_wildcard
            else:
                bucket = self.by_attr.get(name)
                if bucket is None:
                    bucket = self.by_attr[name] = {}
        elif kind is NodeTestKind.NODE:
            bucket = self.any_node
        elif kind is NodeTestKind.TEXT:
            bucket = self.text
        elif kind is NodeTestKind.WILDCARD:
            bucket = self.wildcard
        else:
            name = expectation.step.node_test.name
            bucket = self.by_tag.get(name)
            if bucket is None:
                bucket = self.by_tag[name] = {}
        bucket[expectation.serial] = expectation
        expectation.bucket = bucket

    def element_candidates(self, tag: Optional[str]) -> List[_Expectation]:
        """Snapshot of the expectations a ``StartElement(tag)`` can match."""
        exact = self.by_tag.get(tag)
        candidates: List[_Expectation] = list(exact.values()) if exact else []
        if self.wildcard:
            candidates.extend(self.wildcard.values())
        if self.any_node:
            candidates.extend(self.any_node.values())
        return candidates

    def text_candidates(self) -> List[_Expectation]:
        """Snapshot of the expectations a ``Text`` event can match."""
        candidates: List[_Expectation] = list(self.text.values())
        if self.any_node:
            candidates.extend(self.any_node.values())
        return candidates

    def attribute_candidates(self, name: str) -> List[_Expectation]:
        """Snapshot of the expectations an attribute ``name`` can match."""
        exact = self.by_attr.get(name)
        candidates: List[_Expectation] = list(exact.values()) if exact else []
        if self.attr_wildcard:
            candidates.extend(self.attr_wildcard.values())
        return candidates

    @property
    def has_attribute_expectations(self) -> bool:
        return bool(self.by_attr or self.attr_wildcard)

    def attribute_expectations(self) -> List[_Expectation]:
        """Snapshot of every live attribute expectation (for expiry)."""
        out: List[_Expectation] = []
        for bucket in self.by_attr.values():
            out.extend(bucket.values())
        out.extend(self.attr_wildcard.values())
        return out

    def iter_all(self):
        for bucket in self.by_tag.values():
            yield from bucket.values()
        yield from self.wildcard.values()
        yield from self.any_node.values()
        yield from self.text.values()
        for bucket in self.by_attr.values():
            yield from bucket.values()
        yield from self.attr_wildcard.values()

    def clear(self) -> None:
        self.by_tag = {}
        self.wildcard = {}
        self.any_node = {}
        self.text = {}
        self.by_attr = {}
        self.attr_wildcard = {}


class _ValueCollector:
    """One node's string value, collected until it closes for the entries
    of ``=`` operands and the ``[. = "lit"]`` tests deferred to the close:
    ``{lit: [(sink, conditions)]}`` and DFA groups ``{lit: ordinals}``."""

    __slots__ = ("parts", "entries", "literals", "groups")

    def __init__(self):
        self.parts: List[str] = []
        self.entries: List[_Entry] = []
        self.literals: Dict[str, list] = {}
        self.groups: List[Dict[str, Tuple[int, ...]]] = []


# ---------------------------------------------------------------------------
# Subscriptions and results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Subscription:
    """One compiled subscription of the index."""

    key: Hashable
    #: The subscription as given (query text, or serialized AST).
    source: str
    #: The compiled, reverse-axis-free path: the key of the index *member*
    #: the engine matches for every subscription on it.
    path: PathExpr
    #: Position in the index, in registration order (result rows follow it).
    ordinal: int


@dataclass
class SubscriptionResult:
    """Per-subscription verdict of one document pass."""

    key: Hashable
    query: str
    matched: bool
    node_ids: List[int] = field(default_factory=list)
    #: Substream delivery, buffered routing: the serialized XML of every
    #: matched subtree, concatenated in document order.  ``None`` outside
    #: substream mode and when payloads streamed out through an
    #: ``on_payload`` callback instead.
    payload: Optional[bytes] = None


@dataclass(repr=False)
class MultiMatchResult:
    """Outcome of matching one document against a whole subscription index.

    A sparse *value* — the matched rows, the session's subscription tuple, a
    frozen snapshot of the retired ordinals — that no later document or churn
    changes.  ``matching_keys``, ``matched_results``, ``len()`` cost O(matches);
    ``results`` (so iteration, ``by_key``, indexing) synthesizes the unmatched
    rows on first access: O(N) once, then cached."""

    #: ordinal -> row of each subscription that matched, in ordinal order.
    _matched: Dict[int, SubscriptionResult]
    _subscriptions: Tuple[Subscription, ...]
    _retired: frozenset
    #: ``payload`` of an unmatched row: ``b""`` where payloads are buffered.
    _empty_payload: Optional[bytes]
    stats: StreamStats

    @cached_property
    def results(self) -> List[SubscriptionResult]:
        """One row per live subscription, in ordinal order."""
        matched, payload = self._matched, self._empty_payload
        return [matched.get(subscription.ordinal)
                or SubscriptionResult(subscription.key, subscription.source,
                                      False, [], payload)
                for subscription in self._subscriptions
                if subscription.ordinal not in self._retired]

    @property
    def matched_results(self) -> List[SubscriptionResult]:
        """The rows that matched, ordinal order."""
        return list(self._matched.values())

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        carried = len(self._subscriptions)
        return carried - sum(ordinal < carried for ordinal in self._retired)

    def __getitem__(self, key: Hashable) -> SubscriptionResult:
        try:
            return self.by_key[key]
        except KeyError:
            raise KeyError(f"no subscription with key {key!r}") from None

    @cached_property
    def by_key(self) -> Dict[Hashable, SubscriptionResult]:
        return {result.key: result for result in self.results}

    @property
    def matching_keys(self) -> List[Hashable]:
        """Keys of the subscriptions the document matched (routing table row)."""
        return [result.key for result in self._matched.values()]


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

@dataclass
class _OpenElement:
    node_id: int
    tag: Optional[str]
    depth: int


class MultiMatcher:
    """Single-pass matcher for a whole subscription index.

    Built by :meth:`SubscriptionIndex.matcher
    <repro.streaming.engine.SubscriptionIndex.matcher>`; one instance
    matches one document at a time (the expectations are stream state) and
    :meth:`reset` readies it for the next.  :func:`repro.streaming.stream_evaluate`
    is a session over a one-subscription index.  With a
    :class:`~repro.streaming.delivery.VerdictDelivery` the per-subscription
    result sinks resolve eagerly: as soon as a subscription is known to
    match, its verdict is fixed, its buffered entries are dropped, the
    expectations feeding its sink are unlinked and its gates stop firing —
    the SDI fast path.
    """

    def __init__(self, index: SubscriptionIndex,
                 automaton: Optional[SubscriptionAutomaton] = None,
                 delivery: Optional[Delivery] = None):
        self.stats = StreamStats()
        #: Lazy-DFA structural dispatch (``backend="dfa"``) over the index's
        #: shared automaton; ``None`` keeps the pure expectation engine.
        self._automaton_run: Optional[AutomatonRun] = (
            AutomatonRun(automaton, self._structural_sink)
            if automaton is not None else None)
        self._stack: List[_OpenElement] = []
        #: Active expectations, bucketed by node test.
        self._dispatch = _DispatchIndex()
        #: Expectations with business at an element's close, keyed by that
        #: element's id: ``following``/``following-sibling`` ones *waiting*
        #: for their anchor to close activate; ``child``/``descendant``/
        #: ``descendant-or-self`` ones expire with their anchor, and a
        #: ``following-sibling`` window with the anchor's *parent*.
        self._on_close: Dict[int, List[_Expectation]] = {}
        #: Expectations to unlink the moment an existence sink satisfies.
        self._sink_watchers: Dict[_Sink, Dict[int, _Expectation]] = {}
        #: Conditioned existence-sink entries delivered during the current
        #: event; re-examined once the event (and its attribute sweep) is
        #: complete, so conditions decidable *at* StartElement — attribute
        #: tests inside mixed qualifiers, ``[@a or child::b]`` — settle
        #: verdicts without waiting for the stream.  (Attribute-only
        #: qualifiers never make a condition: ``step_matched`` decides them.)
        self._event_entries: List[Tuple[_Sink, _Entry]] = []
        #: Waiting + active expectations (expired ones are unlinked eagerly).
        self._live = 0
        self._serial = 0
        #: Pending string-value collectors, one per node, keyed by the
        #: element whose close event finalizes it (the root's at the end).
        self._collectors_by_node: Dict[int, _ValueCollector] = {}
        #: Shared sinks of the absolute sub-paths, keyed by
        #: ``(operand, collect_values)``.
        self._absolute_sinks: Dict[Tuple[PathExpr, bool], _Sink] = {}
        #: The emission layer (see :mod:`repro.streaming.delivery`): what a
        #: decided match delivers.
        delivery = resolve_delivery(delivery)
        self._delivery = delivery
        #: Substream delivery: the shared single-pass tee, or ``None``
        #: outside substream mode — the feed loop's only added cost in
        #: verdict/ids modes is this check.  ``add_candidate`` records a
        #: capture claim for every final match (DFA-accepted structural
        #: members included) and :meth:`_emit_capture` routes the bytes.
        self._tee: Optional[SubtreeTee] = (SubtreeTee() if delivery.captures
                                           else None)
        #: Element matches recorded during the current StartElement's
        #: processing; handed to the tee as that element's capture claims.
        self._pending_claims: List[Tuple[int, _Entry]] = []
        #: Root ("/") matches recorded while spawning at StartDocument.
        self._document_claims: List[Tuple[int, _Entry]] = []
        #: Closed captures whose conditions were still undecided at window
        #: close; settled (``entry.holds()``) when results are read.
        self._deferred_captures: List[object] = []
        #: Buffered payload chunks: ordinal -> {node_id: bytes}.
        self._payloads: Dict[int, Dict[int, bytes]] = {}
        #: Emission dedup — several retained entries may claim the same
        #: (subscription, node); the payload is emitted once.
        self._emitted_captures: set = set()
        self._finished = False
        self._halted = False
        #: Live churn (see :meth:`sync`): the index, its member key lists (an
        #: empty one is a retired member) and retired ordinals shared *by
        #: reference*, and the version / generation last synced to.  Stay
        #: under 30 instance attributes: at 30 CPython stops sharing instance
        #: dict keys, and every ``self.`` lookup here slows (~9%; pinned by
        #: ``TestInstanceLayout`` in ``tests/test_streaming_matcher.py``).
        self._index = index
        self._members: List[List[Subscription]] = index._members
        self._retired: set = index._retired
        self._synced_version: Optional[int] = None
        self._generation = index.generation
        #: The keys carried: those registered since the last sync are past
        #: its end (higher ordinals) and not reported yet.
        self._subscriptions: Tuple[Subscription, ...] = ()
        #: One result sink per carried member, and the ones this document
        #: delivered into (each lists itself): all :meth:`results` reads and
        #: :meth:`reset` clears.
        self._sinks: List[_ResultSink] = []
        self._touched: List[_ResultSink] = []
        #: Verdict mode: members whose verdict is decided.
        self._satisfied: set = set()
        self.sync()     # carries every subscription the index has now

    @property
    def backend(self) -> str:
        """Which structural dispatch engine this matcher runs on."""
        return "dfa" if self._automaton_run is not None else "expectations"

    def _structural_sink(self, member: int) -> _Sink:
        # Live churn: the shared automaton may fire for members retired
        # (removals take effect immediately) or not carried yet (adds take
        # effect at the next document, after sync).
        if member >= len(self._sinks) or not self._members[member]:
            return _DROPPED_SINK
        return self._sinks[member]

    def dfa_state_count(self) -> int:
        """DFA states materialized in the shared automaton (0 for the
        expectation backend).  Stable across :meth:`reset` — the warmed
        transition table is the point of session reuse."""
        return (self._automaton_run.automaton.state_count()
                if self._automaton_run is not None else 0)

    # -- setup -----------------------------------------------------------
    def sync(self) -> None:
        """Bring a live session up to its index's current subscription set.

        The churn counterpart of :meth:`reset`, called *between* documents
        (the broker's checkout does it whenever the index version moved):
        carries every key added since the last sync, and appends sinks and
        per-member registries for every new member among them.  Removals
        need no per-matcher work — member lists and retired ordinals are
        shared by reference and consulted at delivery time.  A vacuumed index
        (generation bump) cannot be synced to: ordinals were remapped, build
        a fresh matcher.
        """
        index = self._index
        self._check_generation()
        if index.version == self._synced_version:
            return
        members = self._members
        sinks = self._sinks
        matches_only = self._delivery.matches_only
        for member in range(len(sinks), len(members)):
            sinks.append(_ResultSink(member, self._touched, matches_only))
            if members[member]:     # retired before this session saw it
                self._register_absolute_subpaths(members[member][0].path)
        self._subscriptions = tuple(index._subscriptions)
        if matches_only:
            self._seed_retired_verdicts()
        self._synced_version = index.version

    def _check_generation(self) -> None:
        if self._index.generation != self._generation:
            raise StreamingError(
                "the subscription index was vacuumed (ordinals remapped); "
                "build a fresh matcher")

    def _seed_retired_verdicts(self) -> None:
        """Count retired members as settled so early termination still
        fires: their sinks can never satisfy (every delivery is dropped).
        Callers checked the generation, so the index's set is this view's."""
        self._satisfied.update(
            member for member in self._index._retired_members
            if member < len(self._sinks))

    def _register_absolute_subpaths(self, expr: PathExpr) -> None:
        """Find absolute sub-paths used inside qualifiers and joins.

        They must be matched from the document root over the *whole* stream
        (a candidate discovered mid-stream could not see earlier matches), so
        they are registered once — keyed by ``(operand, collect_values)`` —
        and shared by every condition that mentions them.  ``iter_steps``
        reaches every qualifier, those of the operands included.
        """
        sinks = self._absolute_sinks
        for step in analysis.iter_steps(expr):
            for qual in step.qualifiers:
                for key in analysis.qualifier_operands(qual):
                    if (key not in sinks and analysis.is_absolute(key[0])
                            and not isinstance(key[0], Literal)):
                        sinks[key] = _Sink(collect_values=key[1])

    # -- event loop --------------------------------------------------------
    def process(self, events: Iterable[Event]):
        """Consume the event stream and return :meth:`results`.

        Stops pulling from the stream as soon as the matcher :meth:`halt`\\ s
        (a verdict-only session whose subscriptions are all decided).  When
        the source has a known length the events left unread are recorded in
        ``stats.events_skipped``.
        """
        consumed = 0
        for event in events:
            consumed += 1
            self.feed(event)
            if self._halted:
                break
        if self._halted and hasattr(events, "__len__"):
            self.stats.events_skipped += len(events) - consumed
        return self.results()

    def feed(self, event: Event) -> None:
        """Consume one event (a no-op counted as skipped once halted)."""
        if self._halted:
            self.stats.events_skipped += 1
            return
        self.stats.events += 1
        if isinstance(event, StartDocument):
            self._start_document(event)
        elif not self._stack:
            raise StreamingError(
                f"{type(event).__name__} outside a document: events must "
                "come between StartDocument and EndDocument")
        elif isinstance(event, StartElement):
            self._start_node(event.node_id, True, event.tag, None,
                             event.attributes)
            if self._tee is not None:
                # Every element match fires during its own StartElement
                # processing (final-step expectation, DFA accept, gate
                # remainder, self axis), so the claims recorded just now
                # belong to exactly this element: open their capture windows
                # before the event enters the shared buffer.
                claims = self._pending_claims
                if claims:
                    self._pending_claims = []
                self._tee.element_start(event, claims)
            self._stack.append(_OpenElement(event.node_id, event.tag,
                                            len(self._stack)))
            # Element nesting depth, not counting the document root entry.
            self.stats.max_depth = max(self.stats.max_depth, len(self._stack) - 1)
        elif isinstance(event, Text):
            self._start_node(event.node_id, False, None, event.value)
            if self._tee is not None:
                self._tee.text(event)
            if self._collectors_by_node:
                for collector in self._collectors_by_node.values():
                    collector.parts.append(event.value)
                    self.stats.buffered_value_chars += len(event.value)
        elif isinstance(event, EndElement):
            self._end_node()
            if self._tee is not None:
                # After _end_node: its value is final, and the pending
                # claims are the literal tests the close decided.
                for capture in self._tee.element_end(event,
                                                     self._pending_claims):
                    self._capture_closed(capture)
        elif isinstance(event, EndDocument):
            self._finish()
        else:  # pragma: no cover - defensive
            raise StreamingError(f"unknown event {event!r}")
        if (self._delivery.matches_only and not self._finished
                and len(self._satisfied) == len(self._sinks)):
            # Early termination: every member's verdict is decided, so no
            # later event can change one.
            self.halt()

    # -- internals ---------------------------------------------------------
    def _start_document(self, event: StartDocument) -> None:
        self._stack = [_OpenElement(event.node_id, None, 0)]
        self.stats.nodes_seen += 1
        if self._automaton_run is not None:
            # Root accepts ("/") and root gates (members the automaton
            # cannot carry) fire here.
            self._automaton_run.on_document_start(self, event.node_id)
        else:
            # Reference mode: every live member spawned whole.
            for keys, sink in zip(self._members, self._sinks):
                if keys:
                    self.spawn_root_expr(keys[0].path, sink, event.node_id)
        # Spawn the shared absolute sub-paths.
        for (operand, _), sink in self._absolute_sinks.items():
            self.spawn_root_expr(operand, sink, event.node_id)
        if self._tee is not None and self._document_claims:
            # Root ("/") matches span the whole document: their windows open
            # now and close at EndDocument (_finish).
            claims = self._document_claims
            self._document_claims = []
            self._tee.open_document(event.node_id, claims)

    def spawn_root_expr(self, expr: PathExpr, sink: _Sink,
                        root_id: int) -> None:
        """Spawn every union member of an absolute expression from the root."""
        for member in iter_union_members(expr):
            if isinstance(member, Bottom):
                continue
            if not isinstance(member, LocationPath) or not member.absolute:
                raise StreamingError(
                    "the streaming evaluator expects absolute paths "
                    f"(got {to_string(member)})")
            if not member.steps:
                # The path "/" selects the root itself.
                self.add_candidate(sink, root_id, 0, False, None, ())
                continue
            self.spawn_steps(member.steps, anchor_id=root_id,
                             anchor_depth=0, anchor_is_element=False,
                             anchor_tag=None, anchor_value=None,
                             conditions=(), sink=sink)

    def _start_node(self, node_id: int, is_element: bool, tag: Optional[str],
                    value: Optional[str],
                    attributes: Tuple[Tuple[str, str], ...] = ()) -> None:
        stats = self.stats
        stats.nodes_seen += 1
        depth = len(self._stack)
        # Snapshot the reachable buckets *before* matching: matching may spawn
        # new expectations, which must not be matched against the node that
        # created them.
        if is_element:
            candidates = self._dispatch.element_candidates(tag)
        else:
            candidates = self._dispatch.text_candidates()
        if candidates:
            stats.expectations_checked += len(candidates)
            for expectation in candidates:
                # The bucket implies the node test; check state and depth.
                if not expectation.admissible(depth):
                    continue
                self.step_matched(expectation.step.attribute_split,
                                  expectation.remaining, expectation.sink,
                                  node_id, depth, is_element, tag, value,
                                  expectation.conditions, False, attributes)
        if self._automaton_run is not None:
            # Structural dispatch: decided deliveries plus qualifier gates,
            # which may spawn expectations anchored at this very node —
            # including attribute expectations, resolved by the sweep below.
            self._automaton_run.on_node(self, node_id, depth, is_element,
                                        tag, value, attributes)
        if is_element and (attributes
                           or self._dispatch.has_attribute_expectations):
            self._attribute_sweep(node_id, depth, attributes)
        if self._event_entries:
            self._settle_event_conditions()

    def _settle_event_conditions(self) -> None:
        """Satisfy existence sinks whose entry conditions are already final.

        Runs at the end of every node event, after the attribute sweep:
        attribute sub-sinks cannot change after it, so a candidate guarded
        only by conditions the sweep decided (or other already-irrevocable
        ones) decides its sink — and, in verdict-only sessions, its
        subscription — right here.
        """
        entries = self._event_entries
        self._event_entries = []
        for sink, entry in entries:
            if sink.satisfied:
                continue
            if all(condition.known_true() for condition in entry.conditions):
                sink.satisfied = True
                sink.entries.clear()
                self._sink_satisfied(sink)

    def _attribute_sweep(self, node_id: int, depth: int,
                         attributes: Tuple[Tuple[str, str], ...]) -> None:
        """Visit the element's attribute nodes, then close the window.

        Attribute expectations are spawned while their anchor element is
        being processed (step matching above) and can only ever match that
        element's own attributes, which are all present on its start event —
        so they are resolved here, eagerly, and whatever is left expires
        before the event ends.  They come from attribute *steps*
        (``//item/@id``) and from attribute operands of mixed qualifiers
        (``[@a or child::b]``); attribute-only qualifiers are decided in
        :meth:`step_matched` without any.  Nothing attribute-related
        survives into later events.
        """
        dispatch = self._dispatch
        stats = self.stats
        for index, (name, value) in enumerate(attributes):
            stats.nodes_seen += 1
            stats.attributes_seen += 1
            if not dispatch.has_attribute_expectations:
                continue
            candidates = dispatch.attribute_candidates(name)
            if not candidates:
                continue
            stats.expectations_checked += len(candidates)
            # Attribute nodes claim the ids right after their element.
            attribute_id = node_id + 1 + index
            for expectation in candidates:
                if (expectation.state is not _ACTIVE
                        or expectation.anchor_id != node_id):
                    continue
                self.step_matched(expectation.step.attribute_split,
                                  expectation.remaining, expectation.sink,
                                  attribute_id, depth + 1, False, name, value,
                                  expectation.conditions, is_attribute=True)
        if dispatch.has_attribute_expectations:
            for expectation in dispatch.attribute_expectations():
                self._expire(expectation)

    def _end_node(self) -> None:
        if len(self._stack) < 2:
            # Only the document root's entry is left, and it never closes.
            raise StreamingError("EndElement without an open element")
        closed = self._stack.pop()
        node_id = closed.node_id
        if self._automaton_run is not None:
            self._automaton_run.on_close(self)
        # Whoever registered for this close: an expectation still waiting
        # was waiting for exactly this element (its anchor) and its window
        # opens; anything else is anchored at the closed element, or is a
        # sibling window of one of its children, and expires.  (An anchor
        # closes before its parent, so a sibling window is never still
        # waiting when the parent's close comes for it.)
        registered = self._on_close.pop(node_id, None)
        if registered is not None:
            for expectation in registered:
                if expectation.state is _WAITING:
                    expectation.state = _ACTIVE
                    self._dispatch.insert(expectation)
                else:
                    self._expire(expectation)
        # Finalize the value collector anchored at the closed element.
        collector = self._collectors_by_node.pop(node_id, None)
        if collector is not None:
            self._close_collector(collector, node_id, closed.depth)

    def _close_collector(self, collector: _ValueCollector, node_id: int,
                         depth: int) -> None:
        """The element's value is final: set the waiting entries', deliver
        the ``[. = "lit"]`` tests it satisfies (one lookup per table)."""
        value = "".join(collector.parts)
        for entry in collector.entries:
            entry.value = value
        if collector.literals:
            for sink, conditions in collector.literals.get(value, ()):
                self.add_candidate(sink, node_id, depth, True, value,
                                   conditions)
        for group in collector.groups:
            for ordinal in group.get(value, ()):
                self.add_candidate(self._structural_sink(ordinal), node_id,
                                   depth, True, value, ())
        if self._event_entries:
            self._settle_event_conditions()

    def _collector(self, node_id: int, literal: bool = False
                   ) -> _ValueCollector:
        """The node's collector.  In substream mode the first ``literal``
        test on an element claims its *held* capture window (a claim with
        no member), which the close gives the matched members, or drops."""
        collector = self._collectors_by_node.get(node_id)
        if collector is None:
            collector = self._collectors_by_node[node_id] = _ValueCollector()
        if literal and self._tee is not None and not (collector.literals
                                                      or collector.groups):
            self._pending_claims.insert(0, (None, None))
        return collector

    def defer_literal_group(self, node_id: int,
                            group: Dict[str, Tuple[int, ...]],
                            size: int) -> None:
        """Decide a DFA literal group of ``size`` gates at the close."""
        self._collector(node_id, True).groups.append(group)
        self.stats.literal_tests_deferred += size

    def _expire(self, expectation: _Expectation) -> None:
        """Retire an expectation, unlinking it from index and watchers."""
        if expectation.state is _EXPIRED:
            return
        expectation.state = _EXPIRED
        self._live -= 1
        bucket = expectation.bucket
        if bucket is not None:
            bucket.pop(expectation.serial, None)
            expectation.bucket = None
        watch = expectation.watch
        if watch is not None:
            watch.pop(expectation.serial, None)
            expectation.watch = None

    def watch_sink(self, sink: _Sink, expectation: _Expectation) -> None:
        """Expire ``expectation`` the moment ``sink`` becomes satisfied."""
        table = self._sink_watchers.setdefault(sink, {})
        table[expectation.serial] = expectation
        expectation.watch = table

    def _sink_satisfied(self, sink: _Sink) -> None:
        """``sink`` just flipped to satisfied: unlink everything feeding it
        and, in verdict mode, count its member's verdict as decided."""
        table = self._sink_watchers.pop(sink, None)
        if table:
            for expectation in list(table.values()):
                self._expire(expectation)
        if (self._delivery.matches_only and sink.ordinal is not None
                and self._members[sink.ordinal]):
            self._satisfied.add(sink.ordinal)

    def live_expectations(self) -> List[_Expectation]:
        """Snapshot of all waiting + active expectations (diagnostics)."""
        live = [expectation
                for node_id, registered in self._on_close.items()
                for expectation in registered
                if (expectation.state is _WAITING
                    and expectation.anchor_id == node_id)]
        live.extend(self._dispatch.iter_all())
        return live

    def _clear_stream_state(self) -> None:
        """Tear down every per-document expectation registry.

        Shared by :meth:`_finish` and :meth:`reset` so the two can never
        drift apart — a registry cleared at end of stream is also cleared
        between documents of a reused session.
        """
        self._stack = []
        self._dispatch.clear()
        self._on_close = {}
        self._sink_watchers = {}
        self._event_entries = []
        self._live = 0
        if self._automaton_run is not None:
            self._automaton_run.rewind()
        if self._tee is not None:
            self._tee.rewind()
        self._pending_claims = []
        self._document_claims = []

    def _finish(self) -> None:
        self._finished = True
        for collector in self._collectors_by_node.values():
            for entry in collector.entries:
                entry.value = "".join(collector.parts)
        self._collectors_by_node = {}
        if self._tee is not None:
            # Close whole-document windows before the tee is rewound — after
            # the collector pass above, so root string values are final.
            for capture in self._tee.finish():
                self._capture_closed(capture)
        self._clear_stream_state()

    # -- session control ---------------------------------------------------
    def halt(self) -> None:
        """Stop consuming the stream early: results are already decided.

        The expectation registries are torn down exactly as at end of
        stream, :meth:`results` becomes readable, and any further
        :meth:`feed` is a no-op counted in ``stats.events_skipped``.
        """
        if not self._finished:
            self._finish()
        self._halted = True

    @property
    def halted(self) -> bool:
        """Whether the matcher stopped consuming events before end of stream."""
        return self._halted

    def reset(self) -> None:
        """Make the matcher ready for the next document of a session.

        Construction is the expensive part at scale — it walks every
        subscription's AST to register absolute sub-paths.  ``reset`` keeps
        that (the registry keeps its keys and merely gets fresh sinks) and
        only clears the per-document state: the stream registries, the
        result sinks the document *touched* (the others are empty already —
        O(matches), not O(N)) and satisfied verdicts.  This is what lets
        one :class:`~repro.streaming.broker.DocumentBroker` session amortize
        the compiled index over a continuous feed of documents.
        """
        self._check_generation()
        self.stats = StreamStats()
        self._clear_stream_state()
        self._serial = 0
        self._collectors_by_node = {}
        self._deferred_captures = []
        for key in self._absolute_sinks:
            self._absolute_sinks[key] = _Sink(collect_values=key[1])
        self._finished = False
        self._halted = False
        for sink in self._touched:
            sink.entries.clear()
            sink.satisfied = False
        self._touched.clear()
        self._satisfied.clear()
        self._payloads = {}
        self._emitted_captures = set()
        if self._delivery.matches_only:
            self._seed_retired_verdicts()

    def registry_sizes(self) -> Dict[str, int]:
        """Sizes of every engine-internal registry (diagnostics).

        All entries are zero between documents of a reused session; the
        broker's leak tests assert exactly that.
        """
        return {
            "dispatch": sum(1 for _ in self._dispatch.iter_all()),
            "on_close": len(self._on_close),
            "sink_watchers": len(self._sink_watchers),
            "collectors_by_node": len(self._collectors_by_node),
            "live_expectations": self._live,
            "open_elements": len(self._stack),
            "automaton_stack": (len(self._automaton_run.stack)
                                if self._automaton_run is not None else 0),
            "open_capture_windows": (self._tee.open_windows
                                     if self._tee is not None else 0),
        }

    # -- spawning ----------------------------------------------------------
    def spawn_steps(self, steps: Tuple[Step, ...], anchor_id: int,
                    anchor_depth: int, anchor_is_element: bool,
                    anchor_tag: Optional[str], anchor_value: Optional[str],
                    conditions: Tuple[_Condition, ...], sink: _Sink,
                    anchor_is_attribute: bool = False,
                    anchor_attributes: Tuple[Tuple[str, str], ...] = ()
                    ) -> None:
        """Expect ``steps[0]`` from the given anchor; the rest of the
        sequence continues from whatever matches it, into ``sink``.
        ``anchor_attributes`` is the anchor's start-tag attribute tuple.

        Invariant relied on for expiry registration: spawning only ever
        happens while the anchor is the node currently being processed (or
        the document root), so ``self._stack`` holds exactly the anchor's
        proper ancestors.
        """
        if sink.satisfied:
            # Nothing downstream is still interested (the existence sink
            # this would feed is already satisfied): don't spawn at all.
            return
        step, remaining = steps[0], steps[1:]
        axis = step.axis
        # The anchor is a text leaf when it is not an element but carries a
        # value and is not an attribute; the document root is "not an
        # element, no value".
        anchor_is_text = ((not anchor_is_element) and (not anchor_is_attribute)
                          and anchor_value is not None)

        if axis is Axis.ATTRIBUTE:
            # Attribute steps can only match the anchor's own attributes,
            # which are all delivered on the anchor's start event.  The
            # expectation goes into the dispatch index's attribute buckets
            # and is resolved (then expired) by the attribute sweep of the
            # very event being processed; non-element anchors — the document
            # root, text leaves, attribute nodes — carry no attributes.
            if not anchor_is_element:
                return
        elif axis in (Axis.SELF, Axis.DESCENDANT_OR_SELF):
            # The anchor itself may match the first step.
            if self._anchor_matches_test(step, anchor_is_element, anchor_tag,
                                         anchor_is_text, anchor_is_attribute):
                self.step_matched(step.attribute_split, remaining, sink,
                                  anchor_id, anchor_depth, anchor_is_element,
                                  anchor_tag, anchor_value, conditions,
                                  anchor_is_attribute, anchor_attributes)
            if axis is Axis.SELF:
                return

        if axis in (Axis.CHILD, Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF):
            if anchor_is_text or anchor_is_attribute:
                # Text and attribute leaves have no descendants; nothing can
                # ever match.
                return

        state = _ACTIVE
        if axis in (Axis.FOLLOWING, Axis.FOLLOWING_SIBLING):
            if anchor_is_attribute:
                # Attribute nodes have no siblings and take part in neither
                # following nor preceding: the window is empty.
                return
            # Wait for the anchor to close before the window opens.  Text
            # anchors are already closed when spawned; the document root
            # never closes before the end of the stream, so nothing follows it.
            state = _ACTIVE if anchor_is_text else _WAITING
        self._serial += 1
        expectation = _Expectation(step, remaining, sink, anchor_id,
                                   anchor_depth, conditions, state,
                                   self._serial)
        if state is _ACTIVE:
            self._dispatch.insert(expectation)
        if state is _WAITING or axis in (Axis.CHILD, Axis.DESCENDANT,
                                         Axis.DESCENDANT_OR_SELF):
            # The anchor's close opens a waiting expectation's window and
            # expires a child/descendant one.
            self._on_close.setdefault(anchor_id, []).append(expectation)
        if axis is Axis.FOLLOWING_SIBLING and anchor_depth >= 1:
            # The sibling window shuts when the anchor's parent closes; that
            # parent is on the open-element stack right below the anchor.
            parent_id = self._stack[anchor_depth - 1].node_id
            self._on_close.setdefault(parent_id, []).append(expectation)
        if sink.exists_only:
            # Only an existence sink can ever flip to satisfied mid-stream; a
            # collecting sink keeps accepting entries until the end.
            self.watch_sink(sink, expectation)
        self._live += 1
        self.stats.expectations_created += 1
        if self._live > self.stats.max_live_expectations:
            self.stats.max_live_expectations = self._live

    @staticmethod
    def _anchor_matches_test(step: Step, anchor_is_element: bool,
                             anchor_tag: Optional[str],
                             anchor_is_text: bool,
                             anchor_is_attribute: bool = False) -> bool:
        """Node-test check for the anchor itself (``self``/``-or-self`` axes).

        The document root only matches ``node()``; text anchors match
        ``text()`` and ``node()``; attribute anchors match ``node()`` and
        attribute tests (by name); elements match by tag.
        """
        kind = step.node_test.kind
        if kind is NodeTestKind.NODE:
            return True
        if kind is NodeTestKind.ATTRIBUTE:
            return anchor_is_attribute and (step.node_test.name is None
                                            or anchor_tag == step.node_test.name)
        if anchor_is_attribute:
            return False
        if kind is NodeTestKind.TEXT:
            return anchor_is_text
        if kind is NodeTestKind.WILDCARD:
            return anchor_is_element
        return anchor_is_element and anchor_tag == step.node_test.name

    def step_matched(self, split, remaining: Tuple[Step, ...], sink: _Sink,
                     node_id: int, depth: int, is_element: bool,
                     tag: Optional[str], value: Optional[str],
                     conditions: Tuple[_Condition, ...] = (),
                     is_attribute: bool = False,
                     attributes: Tuple[Tuple[str, str], ...] = ()) -> None:
        """A node matched a step: decide the step's attribute predicate
        from the node's start-tag ``attributes`` (``()`` for non-elements),
        turn the other qualifiers into conditions (after the inherited
        ``conditions``), then continue with the ``remaining`` steps anchored
        at the node — or, when none are left, deliver it into ``sink``.
        ``split`` is the step's ``attribute_split`` (a gate's ``split``);
        its lone ``[. = "lit"]`` is compared now on text and attributes and
        waits for the close of a final-step element.

        The one hand-off for every kind of step match: dispatched elements
        and text, the attribute sweep, ``self``/``descendant-or-self``
        anchors, and automaton gates (whose "step" is the gate's qualifiers
        and remainder).  Each happens during the matched node's own event,
        so its attribute tuple is at hand: a false predicate ends the match
        here — no condition, sink, expectation or entry is built.
        """
        predicate, qualifiers, literal = split
        if predicate is not None:
            self.stats.predicates_tested += 1
            if not predicate.holds(attributes):
                return
        if literal is not None:
            if is_element:
                if not remaining:
                    self.stats.literal_tests_deferred += 1
                    self._collector(node_id, True).literals.setdefault(
                        literal, []).append((sink, conditions))
                    return
            elif value is not None:
                if value != literal:
                    return
                qualifiers = ()
        if qualifiers:
            conditions += tuple(
                self._build_condition(qual, node_id, depth, is_element, tag,
                                      value, is_attribute, attributes)
                for qual in qualifiers)
        if remaining:
            self.spawn_steps(remaining, anchor_id=node_id, anchor_depth=depth,
                             anchor_is_element=is_element, anchor_tag=tag,
                             anchor_value=value, conditions=conditions,
                             sink=sink, anchor_is_attribute=is_attribute,
                             anchor_attributes=attributes)
        else:
            self.add_candidate(sink, node_id, depth, is_element, value,
                               conditions)

    def add_candidate(self, sink: _Sink, node_id: int, depth: int,
                      is_element: bool, value: Optional[str],
                      conditions: Tuple[_Condition, ...]) -> None:
        """Deliver a final-step match into a sink, buffering values if needed."""
        if sink.satisfied:
            return
        entry = _Entry(node_id=node_id, conditions=conditions)
        if sink.add(entry):
            self.stats.candidates_buffered += 1
            if sink.collect_values:
                if value is None:
                    # Elements before their close — and the document root —
                    # take the concatenation of their descendant text as
                    # string value; the root's collector is finalized at end
                    # of stream (it has no close event).
                    self._collector(node_id).entries.append(entry)
                else:
                    entry.value = value
            if sink.exists_only and conditions:
                # Conditioned entries get one more look once the current
                # event's attribute sweep has run (_settle_event_conditions).
                self._event_entries.append((sink, entry))
            if self._tee is not None:
                self._capture_candidate(sink, entry, node_id, is_element,
                                        value)
        if sink.satisfied:
            self._sink_satisfied(sink)

    # -- substream capture (see repro.streaming.delivery) -------------------
    def _capture_candidate(self, sink: _Sink, entry: _Entry, node_id: int,
                           is_element: bool, value: Optional[str]) -> None:
        """Record the capture a just-delivered final match is entitled to.

        Every delivery path converges on :meth:`add_candidate` — final-step
        expectations, DFA accepts (structural members included), gate
        remainders and the attribute sweep — so this one hook sees them
        all.  Elements become pending claims (their window opens when the
        current StartElement reaches the tee, or — decided at the close —
        takes over the element's held window); text and attribute matches
        are leaves spanning no events, rendered immediately; the document
        root opens a whole-document window.
        """
        ordinal = sink.ordinal
        if ordinal is None:     # engine-internal: its matches are not payload
            return
        if is_element:
            self._pending_claims.append((ordinal, entry))
        elif value is not None:
            data = serialize_events((Text(value=value, node_id=node_id),))
            self._capture_closed(
                _LeafCapture(ordinal=ordinal, node_id=node_id, entry=entry,
                             data=data))
        else:
            self._document_claims.append((ordinal, entry))

    def _capture_closed(self, capture) -> None:
        """A capture window just closed: emit now or defer to results().

        Emission is immediate when every condition on the match is already
        irrevocably true (``known_true``) — the streaming case, where an
        ``on_payload`` callback sees bytes as windows close.  Undecided
        conditions (joins, not-yet-satisfied existence sub-paths) defer the
        capture; :meth:`_drain_deferred_captures` settles it with
        ``entry.holds()`` once the stream is finished.
        """
        conditions = capture.entry.conditions
        if not conditions or all(condition.known_true()
                                 for condition in conditions):
            self._emit_capture(capture)
        else:
            self._deferred_captures.append(capture)

    def _drain_deferred_captures(self) -> None:
        deferred = self._deferred_captures
        self._deferred_captures = []
        for capture in deferred:
            if capture.entry.holds():
                self._emit_capture(capture)

    def _emit_capture(self, capture) -> None:
        """Route one decided capture's payload bytes, rendered once, to
        every carried key of its member (``capture.ordinal``) that is still
        subscribed; the stats count what was delivered, per key."""
        if not self._members[capture.ordinal]:
            return
        dedup = (capture.ordinal, capture.node_id)
        if dedup in self._emitted_captures:
            return
        self._emitted_captures.add(dedup)
        data = capture.render()
        on_payload = self._delivery.on_payload
        carried, retired = len(self._subscriptions), self._retired
        # A snapshot: a callback may unsubscribe keys of this very member.
        for subscription in tuple(self._members[capture.ordinal]):
            if subscription.ordinal >= carried or subscription.ordinal in retired:
                continue
            self.stats.subtrees_emitted += 1
            self.stats.bytes_emitted += len(data)
            if on_payload is not None:
                on_payload(subscription.key, capture.node_id, data)
        if on_payload is None:
            self._payloads.setdefault(capture.ordinal, {})[
                capture.node_id] = data

    # -- conditions ---------------------------------------------------------
    def _build_condition(self, qual: Qualifier, node_id: int, depth: int,
                         is_element: bool, tag: Optional[str],
                         value: Optional[str], is_attribute: bool,
                         attributes: Tuple[Tuple[str, str], ...]
                         ) -> _Condition:
        self.stats.conditions_created += 1
        carrier = (node_id, depth, is_element, tag, value, is_attribute,
                   attributes)
        if isinstance(qual, PathQualifier):
            if isinstance(qual.path, Bottom):
                return _FalseCondition()
            return _ExistsCondition(self._operand_sink(
                qual.path, *carrier, collect_values=False, exists_only=True))
        if isinstance(qual, (AndExpr, OrExpr)):
            parts = (self._build_condition(qual.left, *carrier),
                     self._build_condition(qual.right, *carrier))
            return (_AndCondition(parts) if isinstance(qual, AndExpr)
                    else _OrCondition(parts))
        if isinstance(qual, Comparison):
            left_literal = isinstance(qual.left, Literal)
            right_literal = isinstance(qual.right, Literal)
            if left_literal or right_literal:
                if qual.op != "=":  # pragma: no cover - parser rejects
                    raise StreamingError(
                        "'==' joins need node operands on both sides")
                if left_literal and right_literal:
                    return (_TrueCondition()
                            if qual.left.value == qual.right.value
                            else _FalseCondition())
                literal = qual.left if left_literal else qual.right
                operand = qual.right if left_literal else qual.left
                sink = self._operand_sink(operand, *carrier,
                                          collect_values=True)
                return _ValueMatchCondition(sink, literal.value)
            collect = qual.op == "="
            left = self._operand_sink(qual.left, *carrier, collect)
            right = self._operand_sink(qual.right, *carrier, collect)
            return _JoinCondition(left, right, qual.op)
        raise StreamingError(f"not a qualifier: {qual!r}")

    def _operand_sink(self, operand: PathExpr, node_id: int, depth: int,
                      is_element: bool, tag: Optional[str],
                      value: Optional[str], is_attribute: bool,
                      attributes: Tuple[Tuple[str, str], ...],
                      collect_values: bool,
                      exists_only: bool = False) -> _Sink:
        """The sink a qualifier operand's matches land in: the shared
        absolute sink, or a fresh one fed by the operand's union members
        spawned from the carrier node (``exists_only`` for ``[path]``)."""
        if analysis.is_absolute(operand):
            return self._absolute_sinks[operand, collect_values]
        sink = _Sink(collect_values=collect_values, exists_only=exists_only)
        for member in iter_union_members(operand):
            if isinstance(member, Bottom):
                continue
            assert isinstance(member, LocationPath)
            self.spawn_steps(member.steps, anchor_id=node_id, anchor_depth=depth,
                             anchor_is_element=is_element, anchor_tag=tag,
                             anchor_value=value, conditions=(), sink=sink,
                             anchor_is_attribute=is_attribute,
                             anchor_attributes=attributes)
        return sink

    # -- results -----------------------------------------------------------
    def results(self) -> MultiMatchResult:
        """Per-subscription verdicts (requires the stream to be finished), read
        off the touched sinks only: O(matches), not O(N).  A member's answer
        is computed once and fanned out to its carried keys, one row each."""
        if not self._finished:
            raise StreamingError("results() called before the end of the stream")
        delivery = self._delivery
        if delivery.captures:
            # Captures whose conditions were undecided at window close are
            # settled now, with the same entry.holds() the id readout uses.
            self._drain_deferred_captures()
        empty_payload = (b"" if delivery.captures
                         and delivery.on_payload is None else None)
        # Unsubscribed (possibly mid-document): no longer reported.
        retired = frozenset(self._retired)
        carried = len(self._subscriptions)
        matched: Dict[int, SubscriptionResult] = {}
        last = -1   # the last row's ordinal; ``carried`` once out of order
        total = 0
        for sink in sorted(self._touched, key=lambda sink: sink.ordinal):
            keys = self._members[sink.ordinal]
            if not keys:
                continue
            node_ids = sorted({entry.node_id for entry in sink.entries
                               if entry.holds()})
            if not (node_ids or sink.satisfied):
                continue
            if delivery.matches_only:
                # Verdict-only mode: ids of candidates that happened to be
                # buffered before the verdict settled are not a full answer,
                # so none are reported.
                node_ids = []
            chunks = self._payloads.get(sink.ordinal)
            payload = (b"".join(chunks[node_id] for node_id in sorted(chunks))
                       if chunks else empty_payload)
            for subscription in keys:
                ordinal = subscription.ordinal
                if ordinal < carried:
                    matched[ordinal] = SubscriptionResult(
                        subscription.key, subscription.source, True,
                        list(node_ids) if len(keys) > 1 else node_ids,
                        payload)
                    total += len(node_ids)
                    last = ordinal if ordinal > last else carried
        self.stats.results = total
        if last == carried:
            # Members are ordered by their first key, so keys sharing one
            # (or a member whose first key left) interleave with others.
            matched = dict(sorted(matched.items()))
        return MultiMatchResult(matched, self._subscriptions, retired,
                                empty_payload, self.stats)
