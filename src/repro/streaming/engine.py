"""Multi-subscription streaming engine (selective dissemination of information).

The paper's headline use case is SDI: match streaming XML documents against
standing user subscriptions, rewriting reverse axes away so that each
document needs only a single pass.  Running one
:class:`~repro.streaming.matcher.StreamingMatcher` per subscription costs N
full passes of per-event work for N subscribers.  This module shares that
work in the tradition of shared-index filtering engines (XFilter/YFilter):

* :class:`SubscriptionIndex` compiles every subscription once — parsing and
  reverse-axis removal are memoized through :mod:`repro.xpath.cache` — and
  merges their structural spines into one shared lazy automaton
  (:mod:`repro.streaming.automaton`), maintained incrementally under live
  churn.
* :class:`MultiMatcher` advances all subscriptions over one event stream in
  a single pass.  The automaton dispatches structure; a union member leaves
  it either as an *accept* (a decided match) or through a qualifier *gate*,
  which hands the member's remaining steps to the expectation machinery of
  :class:`~repro.streaming.matcher.MatcherCore` — members the automaton
  cannot carry are gated at the document root.  Absolute sub-paths
  mentioned in qualifiers and joins are matched once, shared across *all*
  subscriptions.  In verdict-only mode the result sinks are existence
  sinks: the moment a subscription is satisfied, the expectations still
  feeding its sink are unlinked and its gates stop firing.
* ``backend="expectations"`` is the differential *reference*: no automaton,
  every subscription's path spawned whole from the document root — N
  independent single-query matchers in one core, sharing nothing but the
  event loop.

The per-subscription semantics are exactly those of
:func:`repro.streaming.stream_evaluate` — the property tests assert result
equality query by query.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Tuple, Union as TypingUnion

from repro.errors import StreamingError
from repro.streaming.automaton import (
    AutomatonRun,
    DEFAULT_TRANSITION_CAP,
    SubscriptionAutomaton,
    compile_subscription_automaton,
    resolve_backend,
)
from repro.streaming.delivery import (
    Delivery,
    SubtreeTee,
    VerdictDelivery,
    resolve_delivery,
)
from repro.streaming.matcher import (
    MatcherCore,
    _DROPPED_SINK,
    _ResultSink,
    _Sink,
)
from repro.streaming.stats import ChurnStats, StreamStats
from repro.xmlmodel.events import Event
from repro.xpath import analysis
from repro.xpath.ast import (
    Bottom,
    LocationPath,
    PathExpr,
    iter_union_members,
)
from repro.xpath.cache import QueryCache, default_cache
from repro.xpath.serializer import to_string


# ---------------------------------------------------------------------------
# Subscriptions and results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Subscription:
    """One compiled subscription of the index."""

    key: Hashable
    #: The subscription as given (query text, or serialized AST).
    source: str
    #: The compiled, reverse-axis-free path the engine matches.
    path: PathExpr
    #: Position in the index (the engine's internal identifier).
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

class MultiMatcher(MatcherCore):
    """Single-pass matcher for a whole subscription index.

    Built by :meth:`SubscriptionIndex.matcher`; one instance matches one
    document at a time (the expectations are stream state).  With a
    :class:`~repro.streaming.delivery.VerdictDelivery` the per-subscription
    result sinks resolve eagerly: as soon as a subscription is known to
    match, its verdict is fixed, its buffered entries are dropped, the
    expectations feeding its sink are unlinked and its gates stop firing —
    the SDI fast path.
    """

    def __init__(self, index: "SubscriptionIndex",
                 automaton: Optional[SubscriptionAutomaton] = None,
                 delivery: Optional[Delivery] = None):
        super().__init__()
        #: Live churn (see :meth:`sync`): the index this session serves, the
        #: retired-ordinal set shared with it *by reference* (removals take
        #: effect immediately, mid-document included), and the version /
        #: generation snapshot the session was last synced to.
        self._index = index
        self._retired: set = index._retired
        self._synced_version: Optional[int] = None
        self._generation = index.generation
        # The emission layer (see repro.streaming.delivery): what a decided
        # match delivers.
        delivery = resolve_delivery(delivery)
        self._delivery = delivery
        self._subscriptions: Tuple[Subscription, ...] = ()
        self._matches_only = delivery.matches_only
        self._automaton = automaton
        if delivery.captures:
            # Substream mode: engage the shared single-pass tee.  The core's
            # add_candidate records a capture claim for every final match
            # (DFA-accepted structural members included — they too converge
            # on add_candidate), and _emit_capture below routes the bytes.
            self._tee = SubtreeTee()
        #: Buffered payload chunks: ordinal -> {node_id: bytes}.
        self._payloads: Dict[int, Dict[int, bytes]] = {}
        #: Emission dedup — several retained entries may claim the same
        #: (subscription, node); the payload is emitted once.
        self._emitted_captures: set = set()
        if automaton is not None:
            self._automaton_run = AutomatonRun(automaton,
                                               self._structural_sink)
        #: The result sinks this document delivered into (each lists itself):
        #: all :meth:`results` reads and :meth:`reset` clears, of ``_sinks``.
        self._touched: List[_ResultSink] = []
        self._sinks: List[_ResultSink] = []
        self._satisfied: set = set()
        self.sync()     # carries every subscription the index has now

    @property
    def backend(self) -> str:
        """Which structural dispatch engine this matcher runs on."""
        return "dfa" if self._automaton is not None else "expectations"

    def _structural_sink(self, ordinal: int) -> _Sink:
        # Live churn: the shared automaton may fire for ordinals this
        # session retired (removals take effect immediately) or does not
        # carry yet (adds take effect at the next document, after sync).
        if ordinal in self._retired or ordinal >= len(self._sinks):
            return _DROPPED_SINK
        return self._sinks[ordinal]

    def _seed_retired_verdicts(self) -> None:
        """Count retired ordinals as settled so early termination still
        fires: their sinks can never satisfy (every delivery is dropped)."""
        self._satisfied.update(
            ordinal for ordinal in self._retired
            if ordinal < len(self._subscriptions))

    def dfa_state_count(self) -> int:
        """DFA states materialized in the shared automaton (0 for the
        expectation backend).  Stable across :meth:`reset` — the warmed
        transition table is the point of session reuse."""
        return (self._automaton.state_count()
                if self._automaton is not None else 0)

    # -- session reuse -----------------------------------------------------
    def reset(self) -> None:
        """Make the matcher ready for the next document of a session.

        Construction is the expensive part at scale — it walks every
        subscription's AST to register absolute sub-paths.  ``reset`` keeps
        that and only clears the per-document state: the result sinks the
        document *touched* (the others are empty already — O(matches), not
        O(N)), satisfied verdicts and the core's registries.  This is what
        lets one :class:`~repro.streaming.broker.DocumentBroker` session
        amortize the compiled index over a continuous feed of documents.
        """
        if self._index.generation != self._generation:
            raise StreamingError(
                "the subscription index was vacuumed (ordinals remapped); "
                "build a fresh matcher")
        super().reset()
        for sink in self._touched:
            sink.entries.clear()
            sink.satisfied = False
        self._touched.clear()
        self._satisfied.clear()
        self._payloads = {}
        self._emitted_captures = set()
        if self._matches_only:
            self._seed_retired_verdicts()

    def sync(self) -> None:
        """Bring a live session up to its index's current subscription set.

        The churn counterpart of :meth:`reset`, called *between* documents
        (the broker's checkout does it whenever the index version moved):
        appends sinks and per-subscription registries for every ordinal
        added since the last sync.  Removals need no per-matcher work — the
        retired set is shared by reference and consulted at delivery time.
        A vacuumed index (generation bump) cannot be synced to: ordinals
        were remapped, build a fresh matcher.
        """
        index = self._index
        if index.generation != self._generation:
            raise StreamingError(
                "the subscription index was vacuumed (ordinals remapped); "
                "build a fresh matcher")
        if index.version == self._synced_version:
            return
        subscriptions = index._subscriptions
        sinks = self._sinks
        for ordinal in range(len(sinks), len(subscriptions)):
            sinks.append(_ResultSink(ordinal, self._touched,
                                     self._matches_only))
            self._register_absolute_subpaths(subscriptions[ordinal].path)
        self._subscriptions = tuple(subscriptions)
        if self._matches_only:
            self._seed_retired_verdicts()
        self._synced_version = index.version

    def _should_halt(self) -> bool:
        """Early termination: in verdict-only mode, once every subscription
        is satisfied no later event can change a verdict."""
        return (self._matches_only
                and len(self._satisfied) == len(self._subscriptions))

    # -- spawning ----------------------------------------------------------
    def _spawn_roots(self, root_id: int) -> None:
        retired = self._retired
        for subscription, sink in zip(self._subscriptions, self._sinks):
            if subscription.ordinal not in retired:
                self.spawn_root_expr(subscription.path, sink, root_id)

    # -- substream capture -------------------------------------------------
    def _emit_capture(self, capture) -> None:
        """Route one decided capture's payload bytes to its subscriber."""
        if capture.ordinal in self._retired:
            # Unsubscribed while the capture window was open (or before the
            # deferred-capture drain): the payload is no longer owed.
            return
        dedup = (capture.ordinal, capture.node_id)
        if dedup in self._emitted_captures:
            return
        self._emitted_captures.add(dedup)
        data = capture.render()
        self.stats.subtrees_emitted += 1
        self.stats.bytes_emitted += len(data)
        on_payload = self._delivery.on_payload
        if on_payload is not None:
            on_payload(self._subscriptions[capture.ordinal].key,
                       capture.node_id, data)
        else:
            self._payloads.setdefault(capture.ordinal, {})[
                capture.node_id] = data

    def _sink_satisfied(self, sink) -> None:
        super()._sink_satisfied(sink)
        if (self._matches_only and sink.ordinal is not None
                and sink.ordinal not in self._retired):
            self._satisfied.add(sink.ordinal)

    # -- results -----------------------------------------------------------
    def results(self) -> MultiMatchResult:
        """Per-subscription verdicts (requires the stream to be finished), read
        off the touched sinks only, one row per match: O(matches), not O(N)."""
        if not self._finished:
            raise StreamingError("results() called before the end of the stream")
        captures = self._delivery.captures
        if captures:
            # Captures whose conditions were undecided at window close are
            # settled now, with the same entry.holds() the id readout uses.
            self._drain_deferred_captures()
        empty_payload = b"" if captures and self._delivery.on_payload is None else None
        # Unsubscribed (possibly mid-document): no longer reported.
        retired = frozenset(self._retired)
        matched: Dict[int, SubscriptionResult] = {}
        total = 0
        for sink in sorted(self._touched, key=lambda sink: sink.ordinal):
            if sink.ordinal in retired:
                continue
            node_ids = sorted({entry.node_id for entry in sink.entries
                               if entry.holds()})
            if not (node_ids or sink.satisfied):
                continue
            if self._matches_only:
                # Verdict-only mode: ids of candidates that happened to be
                # buffered before the verdict settled are not a full answer,
                # so none are reported.
                node_ids = []
            chunks = self._payloads.get(sink.ordinal)
            subscription = self._subscriptions[sink.ordinal]
            matched[sink.ordinal] = SubscriptionResult(
                subscription.key, subscription.source, True, node_ids,
                b"".join(chunks[node_id] for node_id in sorted(chunks))
                if chunks else empty_payload)
            total += len(node_ids)
        self.stats.results = total
        return MultiMatchResult(matched, self._subscriptions, retired,
                                empty_payload, self.stats)


class SubscriptionIndex:
    """Compiles subscriptions and merges them into one shared automaton.

    Subscriptions are added with :meth:`add` (or in bulk through the
    constructor / :meth:`add_many`) as xPath text or ASTs; reverse axes are
    rewritten away automatically (RuleSet2 by default) through the
    compiled-query cache, so a subscription text that thousands of users
    share is parsed and rewritten exactly once.

    One index serves any number of documents: :meth:`matcher` hands out a
    fresh single-pass :class:`MultiMatcher` over the shared automaton.

    **Live churn.**  A production router cannot recompile the world when
    one user subscribes or unsubscribes, so the shared structures are
    mutated *incrementally* on a running index:

    * :meth:`add_subscription` inserts the new NFA fragments into the
      shared automaton with a *targeted* DFA invalidation (patching only
      the materialized states the fragments touch — see
      :meth:`~repro.streaming.automaton.SubscriptionAutomaton.add_member`);
    * :meth:`remove_subscription` is ordinal retirement: deliveries for the
      ordinal are dropped at the sink boundary (live sessions included —
      the retired set is shared by reference), and the automaton keeps the
      dead fragments until :meth:`vacuum` compacts them away —
      automatically once retired ordinals exceed ``vacuum_ratio`` of the
      index;
    * running :class:`MultiMatcher` sessions resync between documents
      (:meth:`MultiMatcher.sync`, driven by the :attr:`version` counter):
      adds take effect at the session's next document, removals at once.

    ``index.churn`` (:class:`~repro.streaming.stats.ChurnStats`) accounts
    for all of it.
    """

    def __init__(self,
                 subscriptions: TypingUnion[None, Mapping[Hashable, TypingUnion[str, PathExpr]],
                                            Iterable[TypingUnion[str, PathExpr]]] = None,
                 ruleset: str = "ruleset2",
                 cache: Optional[QueryCache] = None,
                 dfa_transition_cap: int = DEFAULT_TRANSITION_CAP,
                 vacuum_ratio: float = 0.25):
        self._ruleset = ruleset
        self._cache = cache if cache is not None else default_cache()
        self._subscriptions: List[Subscription] = []
        self._by_key: Dict[Hashable, Subscription] = {}
        self._dfa_transition_cap = dfa_transition_cap
        #: The lazily compiled shared automaton (see :meth:`matcher`).
        self._automaton: Optional[SubscriptionAutomaton] = None
        #: Retired ordinals (removed subscriptions awaiting compaction).
        #: Shared by reference with every matcher this index hands out, so
        #: removal takes effect on live sessions immediately.
        self._retired: set = set()
        #: Retired fraction beyond which :meth:`remove_subscription` runs
        #: the deferred compaction automatically.
        self._vacuum_ratio = float(vacuum_ratio)
        #: Bumped on every add/remove; sessions sync on mismatch.
        self._version = 0
        #: Bumped on every vacuum (ordinals remapped; sessions rebuild).
        self._generation = 0
        #: Lifetime churn accounting (see :class:`ChurnStats`).
        self.churn = ChurnStats()
        if subscriptions is not None:
            self.add_many(subscriptions)

    # -- building ----------------------------------------------------------
    def add(self, query: TypingUnion[str, PathExpr],
            key: Optional[Hashable] = None) -> Subscription:
        """Compile and register one subscription; returns its record.

        ``key`` identifies the subscription in results (a subscriber name,
        for instance); it defaults to the first unused integer ordinal.
        Duplicate keys are rejected; duplicate *queries* are fine and share
        all matching state.
        """
        path = self._cache.compile(query, ruleset=self._ruleset)
        for member in iter_union_members(path):
            if isinstance(member, Bottom):
                continue
            if not isinstance(member, LocationPath) or not member.absolute:
                raise StreamingError(
                    "subscriptions must be absolute paths "
                    f"(got {to_string(member)})")
        ordinal = len(self._subscriptions)
        if key is None:
            # Default to the ordinal, skipping over any integers the caller
            # already used as explicit keys.
            key = ordinal
            while key in self._by_key:
                key += 1
        elif key in self._by_key:
            raise ValueError(f"duplicate subscription key {key!r}")
        source = query if isinstance(query, str) else to_string(query)
        subscription = Subscription(key=key, source=source, path=path,
                                    ordinal=ordinal)
        self._subscriptions.append(subscription)
        self._by_key[key] = subscription
        self._version += 1
        # An automaton not built yet stays lazy; a built one is updated
        # *incrementally* — live churn never recompiles the world.
        if self._automaton is not None:
            self._automaton.add_member(ordinal, path, churn=self.churn)
        return subscription

    def add_many(self, subscriptions) -> List[Subscription]:
        """Register a mapping ``{key: query}`` or an iterable of queries."""
        added = []
        if isinstance(subscriptions, Mapping):
            for key, query in subscriptions.items():
                added.append(self.add(query, key=key))
        else:
            for query in subscriptions:
                added.append(self.add(query))
        return added

    # -- live churn --------------------------------------------------------
    def add_subscription(self, key: Hashable,
                         query: TypingUnion[str, PathExpr]) -> Subscription:
        """Live churn: register one subscription on a *running* index.

        Exactly :meth:`add` with the key required up front (a pub/sub
        server always has a subscriber identity), counted in :attr:`churn`.
        A built automaton is updated incrementally — NFA fragments inserted
        with a targeted DFA invalidation — and live sessions pick the
        addition up at their next document (:meth:`MultiMatcher.sync`,
        which the broker's checkout drives off the :attr:`version` counter).
        """
        subscription = self.add(query, key=key)
        self.churn.subscriptions_added += 1
        return subscription

    def remove_subscription(self, key: Hashable) -> Subscription:
        """Live churn: drop one subscription from a running index.

        Removal is *ordinal retirement*: the slot stays (ordinals of the
        survivors are untouched, so no session rebuild) and every delivery
        for the ordinal is dropped at the sink boundary — including by live
        sessions mid-document, which share the retired set by reference.
        The shared automaton keeps the now-dead NFA fragments; once retired
        ordinals exceed ``vacuum_ratio`` of the index, :meth:`vacuum`
        compacts them away automatically.  The key is freed for
        re-registration immediately (the re-add gets a fresh ordinal).
        Raises :class:`KeyError` for an unknown key.
        """
        try:
            subscription = self._by_key.pop(key)
        except KeyError:
            raise KeyError(f"no subscription with key {key!r}") from None
        self._retired.add(subscription.ordinal)
        self._version += 1
        self.churn.subscriptions_removed += 1
        if len(self._retired) > self._vacuum_ratio * len(self._subscriptions):
            self.vacuum()
        return subscription

    def vacuum(self) -> int:
        """Deferred compaction: rebuild without the retired ordinals.

        Survivor ordinals are remapped to close the gaps and the automaton
        is dropped for lazy recompilation, so the shared NFA sheds the dead
        fragments removal left behind.  Runs automatically from
        :meth:`remove_subscription` past ``vacuum_ratio``; callable
        explicitly (e.g. in a maintenance window).  Existing sessions are
        invalidated by the generation bump — the broker builds a fresh one
        at its next checkout — but keep their own pre-vacuum view (retired
        set included: it is re-bound here, never cleared in place) for any
        document in flight.  Returns the number of ordinals reclaimed.
        """
        if not self._retired:
            return 0
        retired = self._retired
        reclaimed = len(retired)
        self._subscriptions = [
            replace(subscription, ordinal=position)
            for position, subscription in enumerate(
                subscription for subscription in self._subscriptions
                if subscription.ordinal not in retired)]
        self._by_key = {subscription.key: subscription
                        for subscription in self._subscriptions}
        self._retired = set()
        self._automaton = None
        self._generation += 1
        self._version += 1
        self.churn.vacuum_runs += 1
        return reclaimed

    @property
    def version(self) -> int:
        """Bumped on every add/remove; sessions sync on mismatch."""
        return self._version

    @property
    def generation(self) -> int:
        """Bumped on every vacuum; stale sessions must be rebuilt."""
        return self._generation

    @property
    def retired_count(self) -> int:
        """Removed subscriptions awaiting compaction (see :meth:`vacuum`)."""
        return len(self._retired)

    @property
    def subscriptions(self) -> Tuple[Subscription, ...]:
        """The live subscriptions (retired ordinals are not listed)."""
        if not self._retired:
            return tuple(self._subscriptions)
        return tuple(subscription for subscription in self._subscriptions
                     if subscription.ordinal not in self._retired)

    def __len__(self) -> int:
        return len(self._subscriptions) - len(self._retired)

    def _built_automaton(self) -> SubscriptionAutomaton:
        """The shared lazy automaton (DFA backend).

        Compiled once per subscription set.  The instance — and with it the
        warmed DFA transition table — is shared by every matcher this index
        hands out.
        """
        if self._automaton is None:
            retired = self._retired
            self._automaton = compile_subscription_automaton(
                [(subscription.ordinal, subscription.path)
                 for subscription in self._subscriptions
                 if subscription.ordinal not in retired],
                transition_cap=self._dfa_transition_cap)
        return self._automaton

    # -- sharing report ----------------------------------------------------
    def sharing_summary(self) -> dict:
        """Leading-step overlap of the live subscriptions (see
        ``analysis.prefix_sharing_summary``)."""
        return analysis.prefix_sharing_summary(
            subscription.path for subscription in self.subscriptions)

    # -- matching ----------------------------------------------------------
    def matcher(self, backend: Optional[str] = None,
                delivery: Optional[Delivery] = None) -> MultiMatcher:
        """A fresh single-pass matcher over the live subscriptions.

        ``backend="dfa"`` (the default) selects lazy-DFA structural dispatch
        (shared automaton, expectation engine only past qualifier gates —
        see :mod:`repro.streaming.automaton`); ``"expectations"`` the
        differential semantics reference, every subscription spawned whole
        from the document root; ``None`` defers to
        ``REPRO_STREAMING_BACKEND``, then to ``"dfa"``.

        ``delivery`` picks the emission layer (verdict / node ids /
        substream — see :mod:`repro.streaming.delivery`); ``None`` means
        node ids.
        """
        automaton = (self._built_automaton()
                     if resolve_backend(backend) == "dfa" else None)
        return MultiMatcher(self, automaton=automaton, delivery=delivery)

    def evaluate(self, events: Iterable[Event],
                 backend: Optional[str] = None,
                 delivery: Optional[Delivery] = None) -> MultiMatchResult:
        """Match one document stream against every subscription at once."""
        return self.matcher(backend=backend,
                            delivery=delivery).process(events)

    def matching(self, events: Iterable[Event],
                 backend: Optional[str] = None) -> List[Hashable]:
        """Keys of the subscriptions the document matches (SDI routing)."""
        return self.evaluate(events, backend=backend,
                             delivery=VerdictDelivery()).matching_keys
