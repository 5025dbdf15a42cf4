"""Multi-subscription streaming engine (selective dissemination of information).

The paper's headline use case is SDI: match streaming XML documents against
standing user subscriptions, rewriting reverse axes away so that each
document needs only a single pass.  This module shares that pass among all
subscribers, in the tradition of shared-index filtering engines
(XFilter/YFilter):

* :class:`SubscriptionIndex` compiles every subscription once — parsing and
  reverse-axis removal are memoized through :mod:`repro.xpath.cache` — keys
  it on its compiled path (one *member* per distinct path, YFilter's shared
  accept), and merges the members' spines into one shared lazy automaton
  (:mod:`repro.streaming.automaton`), maintained incrementally under churn.
* :meth:`SubscriptionIndex.matcher` hands out a
  :class:`~repro.streaming.matcher.MultiMatcher` session that advances all
  subscriptions over one event stream in a single pass.  The automaton
  dispatches structure; a union member leaves it either as an *accept* (a
  decided match) or through a qualifier *gate*, which hands the member's
  remaining steps to the session's expectation machinery — members the
  automaton cannot carry are gated at the document root.  Absolute
  sub-paths mentioned in qualifiers and joins are matched once, shared
  across *all* subscriptions.  In verdict-only mode the result sinks are
  existence sinks: the moment a member is satisfied, the expectations
  still feeding its sink are unlinked and its gates stop firing.
* ``backend="expectations"`` is the differential *reference*: no automaton,
  every member's path spawned whole from the document root — independent
  single-query matchers in one session, sharing nothing but the event loop.

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
    indexed_gate_counts,
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

    **Members.**  Every distinct compiled path is one *member* — one
    automaton entry, result sink, gate set — carrying the subscriptions
    (keys) on it in registration order: a thousand subscribers to one path
    cost the matching work of one, fanned out to their keys at results.

    **Live churn.**  A production router cannot recompile the world when
    one user subscribes or unsubscribes, so the shared structures are
    mutated *incrementally* on a running index:

    * :meth:`add_subscription` joins a live member's key list, or inserts a
      new member's NFA fragments into the shared automaton with a
      *targeted* DFA invalidation (patching only the materialized states
      the fragments touch — see
      :meth:`~repro.streaming.automaton.SubscriptionAutomaton.add_member`);
    * :meth:`remove_subscription` drops the key from its member's list;
      the last key retires the member, whose deliveries are then dropped
      at the sink boundary (live sessions included — lists and retired
      sets are shared by reference).  The automaton keeps the dead
      fragments until :meth:`vacuum` compacts them away — automatically
      once retired members exceed ``vacuum_ratio`` of the index;
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
        #: Member ordinal -> the live subscriptions on its compiled path, in
        #: registration order (empty once retired).  Shared by reference
        #: with every matcher, like the retired ordinals below.
        self._members: List[List[Subscription]] = []
        #: Compiled path -> ordinal of its live member.
        self._member_of: Dict[PathExpr, int] = {}
        self._dfa_transition_cap = dfa_transition_cap
        #: The lazily compiled shared automaton (see :meth:`matcher`).
        self._automaton: Optional[SubscriptionAutomaton] = None
        #: Ordinals of removed subscriptions, and of the members their last
        #: key retired, awaiting compaction.
        self._retired: set = set()
        self._retired_members: set = set()
        #: Retired member fraction beyond which :meth:`remove_subscription`
        #: runs the deferred compaction automatically.
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
        Duplicate keys are rejected; duplicate *queries* (any two that
        compile to one path) are fine and share all matching state: one
        member, and a built automaton is left untouched.
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
        self._version += 1
        if self._join(subscription) and self._automaton is not None:
            # An automaton not built yet stays lazy; a built one is updated
            # *incrementally* — live churn never recompiles the world.
            self._automaton.add_member(len(self._members) - 1, path,
                                       churn=self.churn)
        return subscription

    def _join(self, subscription: Subscription) -> bool:
        """Register ``subscription`` on its path's member (a new one when
        the path has none live); returns whether the member is new."""
        self._subscriptions.append(subscription)
        self._by_key[subscription.key] = subscription
        # One hash of the path, which is the costly part at N = 10 000.
        member = self._member_of.setdefault(subscription.path, len(self._members))
        if member < len(self._members):
            self._members[member].append(subscription)
            return False
        self._members.append([subscription])
        return True

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

        The key leaves its member's list, which live sessions share by
        reference: its row is gone from the next results read, mid-document
        included.  The slot stays (survivor ordinals are untouched, so no
        session rebuild).  The last key *retires* the member: deliveries
        for it are dropped at the sink boundary, and the automaton keeps its
        dead NFA fragments until retired members exceed ``vacuum_ratio`` of
        the index and :meth:`vacuum` compacts them away.  The key is free
        for re-registration at once (with a fresh ordinal, and a fresh
        member if its path's was retired).  Raises :class:`KeyError` for an
        unknown key.
        """
        try:
            subscription = self._by_key.pop(key)
        except KeyError:
            raise KeyError(f"no subscription with key {key!r}") from None
        self._retired.add(subscription.ordinal)
        member = self._member_of[subscription.path]
        self._members[member].remove(subscription)
        if not self._members[member]:
            del self._member_of[subscription.path]
            self._retired_members.add(member)
        self._version += 1
        self.churn.subscriptions_removed += 1
        if (len(self._retired_members)
                > self._vacuum_ratio * len(self._members)):
            self.vacuum()
        return subscription

    def vacuum(self) -> int:
        """Deferred compaction: rebuild without the retired ordinals.

        Survivor ordinals and members are remapped to close the gaps and
        the automaton is dropped for lazy recompilation, so the shared NFA
        sheds the dead fragments retired members left behind.  Runs
        automatically from :meth:`remove_subscription` past
        ``vacuum_ratio``; callable explicitly (e.g. in a maintenance
        window).  Existing sessions are invalidated by the generation bump
        — the broker builds a fresh one at its next checkout — but keep
        their own pre-vacuum view (member lists and retired sets included:
        they are re-bound here, never cleared in place) for any document in
        flight.  Returns the number of members reclaimed.
        """
        if not self._retired:
            return 0
        reclaimed = len(self._retired_members)
        survivors = [subscription for subscription in self._subscriptions
                     if subscription.ordinal not in self._retired]
        self._subscriptions, self._by_key = [], {}
        self._members, self._member_of = [], {}
        for position, subscription in enumerate(survivors):
            self._join(replace(subscription, ordinal=position))
        self._retired, self._retired_members = set(), set()
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

        Compiled once per member set (a member's keys all hold its path).
        The instance — and with it the warmed DFA transition table — is
        shared by every matcher this index hands out.
        """
        if self._automaton is None:
            self._automaton = compile_subscription_automaton(
                [(member, keys[0].path)
                 for member, keys in enumerate(self._members) if keys],
                transition_cap=self._dfa_transition_cap)
        return self._automaton

    # -- sharing report ----------------------------------------------------
    def sharing_summary(self) -> dict:
        """Leading-step overlap of the live subscriptions (see
        ``analysis.prefix_sharing_summary``), plus the live ``members``
        (distinct compiled paths), ``max_keys_per_member``, the distinct
        ``attribute_predicates`` their steps decide from start tags, their
        ``value_indexed_gates`` (gates a DFA state keys by an
        ``@a = "lit"`` conjunct) and ``literal_indexed_gates`` (gates a DFA
        state groups by a final ``[. = "lit"]``, decided at the close)."""
        summary = analysis.prefix_sharing_summary(
            subscription.path for subscription in self.subscriptions)
        summary["members"] = len(self._member_of)
        summary["max_keys_per_member"] = max(map(len, self._members),
                                             default=0)
        summary["attribute_predicates"] = len(
            {step.attribute_split[0] for path in self._member_of
             for step in analysis.iter_steps(path)} - {None})
        summary["value_indexed_gates"], summary["literal_indexed_gates"] = (
            indexed_gate_counts(self._member_of))
        return summary

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
