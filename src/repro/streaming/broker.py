"""Push-mode document broker: a continuous feed of documents through one
compiled subscription index.

This is the serving layer of the paper's SDI scenario.  A long-lived service
receives *documents* — as raw XML text arriving in arbitrary network-sized
chunks — and must route each one to the standing subscriptions it matches.
:class:`DocumentBroker` ties the push-mode pieces together:

* the subscriptions are compiled **once** into a
  :class:`~repro.streaming.engine.SubscriptionIndex` (parse, reverse-axis
  rewriting, merge into the shared automaton);
* one resumable :class:`~repro.streaming.matcher.MultiMatcher` session is
  created lazily and *reused* across documents via
  :meth:`~repro.streaming.matcher.MultiMatcher.reset`, so the per-document
  cost is matching alone — not the per-subscription setup a fresh matcher
  pays (``benchmarks/router`` measures it: workload ``feed_small_verdict``);
* each submitted document is tokenized incrementally with
  :class:`~repro.xmlmodel.parser.PushTokenizer`, so callers hand over chunks
  exactly as they arrive;
* in verdict-only mode (``delivery=VerdictDelivery()``) a document's session
  halts — and the broker stops tokenizing its remaining chunks — the moment
  every subscription's verdict is decided.

:meth:`DocumentBroker.submit` returns the per-document
:class:`~repro.streaming.matcher.MultiMatchResult`; the broker additionally
keeps aggregate counters (:class:`BrokerStats`) and a bounded per-document
history for monitoring a long-running feed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass
from typing import (
    Deque,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Union as TypingUnion,
)

from repro.streaming.automaton import resolve_backend
from repro.streaming.delivery import Delivery, resolve_delivery
from repro.streaming.engine import SubscriptionIndex
from repro.streaming.matcher import MultiMatcher, MultiMatchResult, Subscription
from repro.xmlmodel.events import Event
from repro.xmlmodel.parser import Chunk, PushTokenizer
from repro.xpath.ast import PathExpr
from repro.xpath.cache import QueryCache


@dataclass
class BrokerStats:
    """Aggregate counters over every document a broker has served."""

    #: Documents fully processed (errored submissions are not counted).
    documents: int = 0
    #: Documents that matched at least one subscription.
    documents_matched: int = 0
    #: Total (document, subscription) routing decisions delivered.
    deliveries: int = 0
    #: Chunks tokenized / skipped because the document's verdicts were
    #: already decided (verdict-only sessions terminate early).
    chunks: int = 0
    chunks_skipped: int = 0
    #: Events processed / events tokenized but dropped by early termination,
    #: summed over documents.  Events of whole skipped chunks are never
    #: tokenized and therefore appear only in ``chunks_skipped``.
    events: int = 0
    events_skipped: int = 0
    #: Substream delivery: matched subtrees served as payload and the
    #: serialized bytes that crossed the boundary, summed over documents
    #: (zero outside substream mode).
    subtrees_emitted: int = 0
    bytes_emitted: int = 0

    def as_row(self) -> dict:
        """Flat dictionary used by the benchmark reports."""
        return asdict(self)


@dataclass(frozen=True)
class DocumentRecord:
    """One line of the broker's per-document history."""

    document_id: Hashable
    matched_keys: Tuple[Hashable, ...]
    events: int
    events_skipped: int


class DocumentBroker:
    """Serve many documents through one compiled subscription index.

    ``subscriptions`` takes the same forms as
    :class:`~repro.streaming.engine.SubscriptionIndex` (a ``{key: query}``
    mapping, an iterable of queries, or ``None``) — or an already-built
    ``SubscriptionIndex`` to share with other consumers.

    ``delivery`` is the emission layer (:mod:`repro.streaming.delivery`).
    The default, :class:`~repro.streaming.delivery.NodeIdDelivery`, reports
    full per-subscription node ids, as :meth:`SubscriptionIndex.evaluate`
    would.  :class:`~repro.streaming.delivery.VerdictDelivery` is the
    verdict-only SDI mode routing services want: per-subscription booleans,
    with early termination both in the matcher (events) and in the broker
    (chunks left untokenized).
    :class:`~repro.streaming.delivery.SubstreamDelivery` serves the matched
    *content* — each match's subtree re-serialized to XML bytes — streamed
    through its ``on_payload(subscription_key, node_id, data)`` callback as
    each subtree closes or, without a callback, buffered per subscription
    on ``SubscriptionResult.payload``.

    ``backend`` picks the structural dispatch engine: ``"dfa"`` (the
    default) compiles the index into one shared lazy automaton whose warmed
    transition table persists across the whole feed — the broker's sweet
    spot; ``"expectations"`` is the uncompiled semantics reference
    (``REPRO_STREAMING_BACKEND=expectations`` is the environment opt-out);
    ``None`` defers to that variable, then to ``"dfa"``.  Resolved once at
    construction, so a long-lived broker is immune to later environment
    changes.

    ``history_limit`` bounds the per-document :attr:`history` the broker
    retains for monitoring: the most recent ``history_limit`` submissions
    are kept (default 256), older records are evicted oldest-first.
    ``history_limit=0`` disables retention entirely — aggregate
    :class:`BrokerStats` keep accumulating either way — and ``None`` means
    unbounded (every document of the feed is recorded; only for short
    feeds).

    **Live churn.**  :meth:`subscribe` / :meth:`unsubscribe` — or any
    registration on :attr:`index` itself — change the subscription set
    *between* submits without recompiling the index (see the live-churn
    section of :class:`SubscriptionIndex`).  The broker's
    session follows along at the next checkout: additions are picked up by
    an incremental :meth:`~repro.streaming.matcher.MultiMatcher.sync` (the
    index ``version`` counter), removals take effect immediately through
    the shared member lists, and only a :meth:`SubscriptionIndex.vacuum`
    (the ``generation`` counter) forces a fresh session.  Churn on a shared
    index is equally safe — every broker on it syncs at its own next
    submit.

    A broker is not thread-safe: it reuses one matcher session.  Run one
    broker per worker and share the ``SubscriptionIndex`` between them
    (churn it from one thread at a time, between submits).
    """

    def __init__(self,
                 subscriptions: TypingUnion[None, SubscriptionIndex,
                                            Mapping[Hashable, TypingUnion[str, PathExpr]],
                                            Iterable[TypingUnion[str, PathExpr]]] = None,
                 backend: Optional[str] = None,
                 keep_whitespace: bool = False,
                 ruleset: str = "ruleset2",
                 cache: Optional[QueryCache] = None,
                 history_limit: Optional[int] = 256,
                 delivery: Optional[Delivery] = None):
        if isinstance(subscriptions, SubscriptionIndex):
            self._index = subscriptions
        else:
            self._index = SubscriptionIndex(subscriptions, ruleset=ruleset,
                                            cache=cache)
        self._delivery = resolve_delivery(delivery)
        # Resolved once at construction so a long-lived broker is immune to
        # later environment changes.
        self._backend = resolve_backend(backend)
        self._keep_whitespace = keep_whitespace
        self._matcher: Optional[MultiMatcher] = None
        self._session_used = False
        self.stats = BrokerStats()
        self._history: Deque[DocumentRecord] = deque(maxlen=history_limit)

    # -- subscription management -------------------------------------------
    @property
    def index(self) -> SubscriptionIndex:
        """The shared compiled index this broker matches against."""
        return self._index

    @property
    def subscriptions(self) -> Tuple[Subscription, ...]:
        return self._index.subscriptions

    def __len__(self) -> int:
        return len(self._index)

    def subscribe(self, key: Hashable,
                  query: TypingUnion[str, PathExpr]) -> Subscription:
        """Live churn: add one subscription to the running broker.

        Delegates to :meth:`SubscriptionIndex.add_subscription`; the
        session picks the addition up incrementally at the next submit.
        Safe on a shared index — churn is what the version counters exist
        for, and other brokers on it sync at their own next submit.
        """
        return self._index.add_subscription(key, query)

    def unsubscribe(self, key: Hashable) -> Subscription:
        """Live churn: drop one subscription from the running broker.

        Delegates to :meth:`SubscriptionIndex.remove_subscription` (the
        last key retires its member + deferred vacuum); no delivery for the key
        happens after this returns.  Raises :class:`KeyError` for an
        unknown key.
        """
        return self._index.remove_subscription(key)

    # -- the session -------------------------------------------------------
    @property
    def session(self) -> Optional[MultiMatcher]:
        """The resumable matcher serving this broker (``None`` before the
        first submit).  Exposed for diagnostics — see
        :meth:`~repro.streaming.matcher.MultiMatcher.registry_sizes`."""
        return self._matcher

    def _checkout(self) -> MultiMatcher:
        matcher = self._matcher
        index = self._index
        if matcher is None or matcher._generation != index.generation:
            # First document, the index was vacuumed (ordinals remapped),
            # or a previous submission left an unsalvageable session:
            # build a fresh one.
            matcher = index.matcher(backend=self._backend,
                                    delivery=self._delivery)
            self._matcher = matcher
            self._session_used = False
        elif matcher._synced_version != index.version:
            # Subscription churn since the last submit: extend the session
            # incrementally instead of rebuilding it (removals need no sync
            # at all — member lists and retired sets are shared by reference).
            matcher.sync()
        if self._session_used:
            matcher.reset()
        self._session_used = True
        return matcher

    # -- submitting documents ----------------------------------------------
    def submit(self, document_id: Hashable,
               chunks: TypingUnion[Chunk, Iterable[Chunk]]) -> MultiMatchResult:
        """Match one document, given as XML text in one or more chunks.

        ``chunks`` is a single ``str``/``bytes`` or any iterable of them,
        split at arbitrary byte boundaries.  Returns the per-document
        :class:`MultiMatchResult`; raises
        :class:`~repro.errors.XMLSyntaxError` if the document is not well
        formed (in verdict-only mode only the prefix consumed before every
        verdict was decided is checked).
        """
        matcher = self._checkout()
        tokenizer = PushTokenizer(keep_whitespace=self._keep_whitespace)
        if isinstance(chunks, (str, bytes, bytearray, memoryview)):
            chunks = (chunks,)
        # Counted locally and folded into the aggregates only on success:
        # a failed document must leave ``BrokerStats`` untouched, chunk
        # counters included (its partial work was never served to anyone).
        chunks_fed = 0
        chunks_skipped = 0
        try:
            for chunk in chunks:
                if matcher.halted:
                    chunks_skipped += 1
                    continue
                chunks_fed += 1
                batch = tokenizer.feed(chunk)
                for index, event in enumerate(batch):
                    matcher.feed(event)
                    if matcher.halted:
                        # The rest of this batch was tokenized but is never
                        # consumed; later chunks are skipped whole (counted
                        # in ``chunks_skipped``, their events untokenized).
                        matcher.stats.events_skipped += len(batch) - index - 1
                        break
            if not matcher.halted:
                for event in tokenizer.close():
                    matcher.feed(event)
            result = matcher.results()
        except Exception:
            self._salvage_session()
            raise
        self.stats.chunks += chunks_fed
        self.stats.chunks_skipped += chunks_skipped
        return self._deliver(document_id, result)

    def submit_events(self, document_id: Hashable,
                      events: Iterable[Event]) -> MultiMatchResult:
        """Match one document given as an already-tokenized event stream
        (e.g. :func:`repro.xmlmodel.builder.document_events`)."""
        matcher = self._checkout()
        try:
            result = matcher.process(events)
        except Exception:
            self._salvage_session()
            raise
        return self._deliver(document_id, result)

    def _salvage_session(self) -> None:
        """Recover the session after a submission died mid-document.

        The stream state is poisoned but the expensive per-subscription
        setup (and, for the DFA backend, the warmed automaton) is not:
        :meth:`~repro.streaming.matcher.MultiMatcher.reset` clears exactly
        the per-document state, so the *next* submit reuses the session
        instead of paying for a fresh matcher.  If even the reset fails the
        session is discarded and the next submit builds a clean one.
        """
        matcher = self._matcher
        if matcher is None:
            return
        try:
            matcher.reset()
        except Exception:
            self._matcher = None
        else:
            # Fresh state: the next checkout must not reset a second time.
            self._session_used = False

    # -- accounting ----------------------------------------------------------
    def _deliver(self, document_id: Hashable,
                 result: MultiMatchResult) -> MultiMatchResult:
        stats = self.stats
        stats.documents += 1
        stats.events += result.stats.events
        stats.events_skipped += result.stats.events_skipped
        stats.subtrees_emitted += result.stats.subtrees_emitted
        stats.bytes_emitted += result.stats.bytes_emitted
        matching = result.matching_keys
        stats.deliveries += len(matching)
        if matching:
            stats.documents_matched += 1
        self._history.append(DocumentRecord(
            document_id=document_id, matched_keys=tuple(matching),
            events=result.stats.events,
            events_skipped=result.stats.events_skipped))
        return result

    @property
    def history(self) -> List[DocumentRecord]:
        """The most recent per-document records (bounded by
        ``history_limit``)."""
        return list(self._history)
