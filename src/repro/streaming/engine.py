"""Multi-subscription streaming engine (selective dissemination of information).

The paper's headline use case is SDI: match streaming XML documents against
standing user subscriptions, rewriting reverse axes away so that each
document needs only a single pass.  This module shares that pass among all
subscribers, in the tradition of shared-index filtering engines
(XFilter/YFilter):

* :class:`SubscriptionIndex` compiles every subscription once — parsing and
  reverse-axis removal are memoized through :mod:`repro.xpath.cache` — and
  merges their structural spines into one shared lazy automaton
  (:mod:`repro.streaming.automaton`), maintained incrementally under live
  churn.
* :meth:`SubscriptionIndex.matcher` hands out a
  :class:`~repro.streaming.matcher.MultiMatcher` session that advances all
  subscriptions over one event stream in a single pass.  The automaton
  dispatches structure; a union member leaves it either as an *accept* (a
  decided match) or through a qualifier *gate*, which hands the member's
  remaining steps to the session's expectation machinery — members the
  automaton cannot carry are gated at the document root.  Absolute
  sub-paths mentioned in qualifiers and joins are matched once, shared
  across *all* subscriptions.  In verdict-only mode the result sinks are
  existence sinks: the moment a subscription is satisfied, the expectations
  still feeding its sink are unlinked and its gates stop firing.
* ``backend="expectations"`` is the differential *reference*: no automaton,
  every subscription's path spawned whole from the document root — N
  independent single-query matchers in one session, sharing nothing but the
  event loop.

One query is the case N = 1: :func:`repro.streaming.stream_evaluate` runs a
session over a one-subscription index.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Tuple, Union as TypingUnion

from repro.errors import StreamingError
from repro.streaming.automaton import (
    DEFAULT_TRANSITION_CAP,
    SubscriptionAutomaton,
    compile_subscription_automaton,
    resolve_backend,
)
from repro.streaming.delivery import Delivery, VerdictDelivery
from repro.streaming.matcher import MultiMatcher, MultiMatchResult, Subscription
from repro.streaming.stats import ChurnStats
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
