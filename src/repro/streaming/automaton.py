"""Lazy-DFA structural dispatch for the subscription engine (the default
``backend="dfa"``).

The expectation engine of :mod:`repro.streaming.matcher` pays per event for
every *live* expectation a node could match; at thousands of subscriptions
that is dozens of admissibility checks per StartElement even with tag-indexed
dispatch.  This module compiles the *structural spine* of every subscription
— the qualifier-free chain of ``self``/``child``/``descendant``/
``descendant-or-self``/``attribute``/``following-sibling``/``following``
steps over name, ``*``, ``text()``, ``node()`` and ``@name``/``@*`` tests —
into NFA fragments merged trie-style into one shared automaton, then
materializes DFA states *lazily* at match time (XMLTK/YFilter-style).  Once
the transition table is warm, structural dispatch costs one dictionary
lookup plus a stack push per StartElement, independent of the number of
subscriptions.

How it relates to the expectation engine
----------------------------------------

The ancestor-chain axes relate a node to its root-to-node tag sequence
(exactly the open-element stack a SAX consumer has for free); the sibling
axes additionally consume EndElement — a *sibling window* NFA state arms
when the anchor's subtree closes and (for ``following-sibling``) expires
when the anchor's parent closes, because the window lives only in the
parent's stack entry.  Together they make a deterministic run over the
event stream:

* each **DFA state** is a frozenset of NFA states, interned on first use and
  cached in a bounded transition table keyed by ``(state_id, tag)``; when
  the table is full the automaton falls back to on-the-fly subset
  construction for the evicted entries (``StreamStats`` counts
  materializations, lookups, hits, FIFO evictions and bulk flushes);
* NFA fragments are shared **trie-style**: alternatives and union members
  with a common spine prefix thread through one fragment (the builder memoizes
  ``(state, item)`` pairs) and carry per-member accept/gate tags at their
  end states, so overlapping subscription pools stop multiplying states;
* **structurally decided** subscriptions (no qualifiers anywhere — see
  :func:`repro.xpath.analysis.is_structurally_decided`) are answered by DFA
  *accept sets* alone: an accepting state delivers the current node id
  straight into the subscription's result sink;
* **qualifier-carrying** subscriptions are *gated*: the automaton compiles
  the qualifier-free spine prefix and attaches a gate at the first step
  with qualifiers (or at an axis outside the supported set, e.g. a reverse
  axis the rewriter left in a qualifier-carrying spine).  Only when a node
  structurally reaches the gate does the engine build the qualifier
  conditions and spawn expectations for the remaining steps — the
  :class:`~repro.streaming.matcher.MatcherCore` machinery runs exclusively
  on structurally-viable elements;
* members the automaton cannot carry at all (adversarial named
  ``descendant-or-self`` chains past the alternative cap) are gated *at
  the root*: a gate on NFA state 0 with the whole member as its remainder,
  fired once per document by :meth:`AutomatonRun.on_document_start`.  The
  gate is therefore the only hand-off from structural dispatch to
  expectations.

``backend="expectations"`` — the differential-testing semantics reference —
bypasses this module: every path is spawned whole from the document root.

The automaton is shared — one compiled instance serves every matcher a
:class:`SubscriptionIndex` hands out, and a reused broker session keeps the
warmed transition table across documents (``reset()`` rewinds only the
per-document state stack) — but no longer immutable: live subscription
churn threads new NFA fragments into the retained builder
(:meth:`SubscriptionAutomaton.add_member`) and repairs the materialized DFA
view with a *targeted* invalidation (only states intersecting the touched
fragments are patched; see :data:`TARGETED_FLUSH_RATIO`), so one user
subscribing never recompiles the world.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.errors import StreamingError
from repro.xpath import analysis
from repro.xpath.ast import (
    Bottom,
    LocationPath,
    PathExpr,
    Qualifier,
    Step,
    iter_union_members,
)
from repro.xpath.serializer import to_string

#: Environment variable consulted when no explicit backend is passed; lets
#: CI run the whole tier-1 suite once per backend without editing tests.
BACKEND_ENV_VAR = "REPRO_STREAMING_BACKEND"

#: The two engine backends: the lazy DFA of this module (default) and the
#: expectation engine (the differential-testing semantics reference).
BACKENDS = ("expectations", "dfa")

#: Default bound of the shared transition table (element + attribute
#: entries).  Generous for real vocabularies; small enough that a pathological
#: tag stream cannot grow the table without limit.
DEFAULT_TRANSITION_CAP = 65536

#: Live churn: an incremental insertion (:meth:`SubscriptionAutomaton
#: .add_member`) invalidates *only* the materialized DFA states whose
#: NFA-state sets intersect the touched fragments — unless those reach more
#: than this fraction of the materialized set, where walking and patching
#: them one by one costs more than the existing wholesale flush.  Below the
#: ratio an add is guaranteed never to trigger a full recompilation
#: (``ChurnStats.full_flushes`` stays 0).
TARGETED_FLUSH_RATIO = 0.5


def resolve_backend(backend: Optional[str] = None) -> str:
    """Normalize a backend selector, consulting ``REPRO_STREAMING_BACKEND``.

    ``None`` means "whatever the environment says", defaulting to the lazy
    DFA; anything outside :data:`BACKENDS` is rejected with the same error
    whether it came from the caller or from the environment — the message
    names the variable when the environment is the source.
    """
    from_environment = False
    if backend is None:
        backend = os.environ.get(BACKEND_ENV_VAR)
        from_environment = bool(backend)
        if not backend:
            backend = "dfa"
    if backend not in BACKENDS:
        origin = f" (from {BACKEND_ENV_VAR})" if from_environment else ""
        raise StreamingError(
            f"unknown streaming backend {backend!r}{origin}; expected one "
            f"of {', '.join(BACKENDS)}")
    return backend


# ---------------------------------------------------------------------------
# Spine splitting (the compilation kernel lives in repro.xpath.analysis so
# the exported classifiers can never drift from compiler behavior)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Gate:
    """Hand-off point from the automaton to the expectation engine.

    Fires on every node that structurally matches the compiled spine prefix
    of subscription ``ordinal``: the engine then builds ``qualifiers`` into
    conditions and spawns expectations for ``remaining`` anchored at that
    node.  Both tuples may be empty — an empty gate ( ``()``, ``()`` ) never
    exists; a gate with no qualifiers hands over at an unsupported axis, one
    with no remaining steps re-checks only the final step's qualifiers, and
    one on NFA state 0 carrying a whole member hands over at the root.
    """

    ordinal: int
    qualifiers: Tuple[Qualifier, ...]
    remaining: Tuple[Step, ...]


# ---------------------------------------------------------------------------
# The shared NFA
# ---------------------------------------------------------------------------

class _NfaState:
    """One NFA state: outgoing consuming edges bucketed by test category,
    plus the sibling windows its close event arms."""

    __slots__ = ("elem_by_tag", "elem_any", "text", "attr_by_name",
                 "attr_any", "arm_sib", "arm_fol", "deliver", "gates")

    def __init__(self):
        self.elem_by_tag: Dict[str, List[int]] = {}
        self.elem_any: List[int] = []
        self.text: List[int] = []
        self.attr_by_name: Dict[str, List[int]] = {}
        self.attr_any: List[int] = []
        #: Window states armed when a node in this state closes:
        #: ``following-sibling`` windows join the parent's stack entry (and
        #: expire with it); ``following`` windows join the run's armed set
        #: for the rest of the document.
        self.arm_sib: List[int] = []
        self.arm_fol: List[int] = []
        #: Ordinals of structurally decided members accepting here.
        self.deliver: List[int] = []
        #: Gates firing here (qualifier hand-offs to the expectation engine).
        self.gates: List[_Gate] = []


class _NfaBuilder:
    """Builds the shared NFA trie-style: each ``(state, item)`` pair is
    memoized, so alternatives and union members with a common spine prefix
    thread through one shared fragment (and a thousand ``/descendant::x``
    subscriptions reuse one skip state)."""

    def __init__(self):
        self.states: List[_NfaState] = [_NfaState()]
        self._skip_of: Dict[int, int] = {}
        self._chain_of: Dict[tuple, int] = {}
        #: States whose rule sets changed since the last
        #: :meth:`SubscriptionAutomaton.add_member` harvest — the touched
        #: fragments a targeted DFA invalidation intersects against.  States
        #: created *during* the same insertion land here too; they cannot
        #: appear in any previously materialized DFA set, so the
        #: intersection ignores them naturally.
        self.touched: set = set()
        #: Whether any attribute edge / sibling window exists yet — set
        #: where the rule is created, never cleared (fragments only grow).
        self.has_attribute_rules = False
        self.has_window_rules = False

    def _new(self) -> int:
        self.states.append(_NfaState())
        return len(self.states) - 1

    def _skip(self, source: int) -> int:
        skip = self._skip_of.get(source)
        if skip is None:
            skip = self._new()
            self.states[source].elem_any.append(skip)
            self.states[skip].elem_any.append(skip)
            self._skip_of[source] = skip
            self.touched.add(source)
        return skip

    def _edge(self, source: int, test: _Test, target: int) -> None:
        kind, name = test
        state = self.states[source]
        self.touched.add(source)
        if kind == analysis.K_NAME:
            state.elem_by_tag.setdefault(name, []).append(target)
        elif kind == analysis.K_WILD:
            state.elem_any.append(target)
        elif kind == analysis.K_NODE:
            state.elem_any.append(target)
            state.text.append(target)
        elif kind == analysis.K_TEXT:
            state.text.append(target)
        else:
            self.has_attribute_rules = True
            if kind == analysis.K_ATTR:
                state.attr_by_name.setdefault(name, []).append(target)
            else:
                state.attr_any.append(target)

    def _window(self, source: int, mode: int, test: _Test) -> int:
        """A sibling-window fragment anchored at ``source``.

        The window state consumes nothing until armed by a close event;
        ``following`` windows self-loop on elements (they stay live for the
        rest of the document), ``following-sibling`` windows do not (they
        live only in the arming node's parent entry, so the parent's close
        expires them).  Deep variants (after a pending ``//``) anchor at
        ``source``, at every element descendant (the shared skip state) and
        — via an armer state — at text descendants, whose windows arm at
        the text event itself because text nodes have no close event.
        """
        self.has_window_rules = True
        window = self._new()
        target = self._new()
        self._edge(window, test, target)
        sibling = mode in (analysis.M_SIB, analysis.M_SIB_DEEP)
        if not sibling:
            self.states[window].elem_any.append(window)
        anchors = [source]
        if mode in (analysis.M_SIB_DEEP, analysis.M_FOL_DEEP):
            skip = self._skip(source)
            anchors.append(skip)
            armer = self._new()
            self.states[source].text.append(armer)
            self.states[skip].text.append(armer)
            self.touched.add(skip)
            anchors.append(armer)
        for anchor in anchors:
            state = self.states[anchor]
            (state.arm_sib if sibling else state.arm_fol).append(window)
            self.touched.add(anchor)
        return target

    def chain(self, items) -> int:
        """Thread one consuming alternative from the start state; returns
        the accepting state.  Shared prefixes resolve to the same state."""
        current = 0
        for item in items:
            key = (current, item)
            target = self._chain_of.get(key)
            if target is None:
                mode, test = item
                if mode in analysis.WINDOW_MODES:
                    target = self._window(current, mode, test)
                else:
                    target = self._new()
                    self._edge(current, test, target)
                    if mode == analysis.M_DESC:
                        self._edge(self._skip(current), test, target)
                self._chain_of[key] = target
            current = target
        return current


def _compile_path(builder: _NfaBuilder, ordinal: int,
                  path: PathExpr) -> None:
    """Compile one subscription's union members into the shared builder.

    A member the automaton cannot carry (alternative explosion) gets a root
    gate: NFA state 0 hands the whole member to the expectation engine at
    document start.  Shared by the bulk compilation below and the live
    :meth:`SubscriptionAutomaton.add_member` — the ``(state, item)`` chain
    memoization makes re-inserting an already-known member a structural
    no-op either way.
    """
    for member in iter_union_members(path):
        if isinstance(member, Bottom):
            continue
        if not isinstance(member, LocationPath) or not member.absolute:
            # Same contract as the expectation engine's root spawning.
            raise StreamingError(
                "the streaming evaluator expects absolute paths "
                f"(got {to_string(member)})")
        split = analysis.automaton_split_member(member)
        alternatives = (None if split is None
                        else analysis.automaton_spine_alternatives(split[0]))
        if alternatives is None:
            # Root gate: the empty chain ends on state 0.
            alternatives, gate_qualifiers, remaining = [()], (), member.steps
        else:
            _prefix, gate_qualifiers, remaining = split
        for items in alternatives:
            end_index = builder.chain(items)
            end = builder.states[end_index]
            if gate_qualifiers is None:
                if ordinal not in end.deliver:
                    end.deliver.append(ordinal)
                    builder.touched.add(end_index)
            else:
                gate = _Gate(ordinal, tuple(gate_qualifiers),
                             tuple(remaining))
                if gate not in end.gates:
                    end.gates.append(gate)
                    builder.touched.add(end_index)


def compile_subscription_automaton(
        subscriptions: Sequence[Tuple[int, PathExpr]],
        transition_cap: int = DEFAULT_TRANSITION_CAP
        ) -> "SubscriptionAutomaton":
    """Compile ``(ordinal, path)`` pairs into one shared lazy automaton."""
    builder = _NfaBuilder()
    for ordinal, path in subscriptions:
        _compile_path(builder, ordinal, path)
    builder.touched.clear()
    return SubscriptionAutomaton(builder, transition_cap)


# ---------------------------------------------------------------------------
# The lazy DFA
# ---------------------------------------------------------------------------

class SubscriptionAutomaton:
    """Lazily determinized view of the shared NFA.

    DFA states (frozensets of NFA states) are interned on first use;
    transitions are cached in a bounded table keyed by ``(state_id, tag)``.
    The instance is shared by every matcher of one subscription set: the
    warmed table survives ``reset()`` between documents, which is where the
    O(1)-per-event steady state comes from.

    *Both* caches are bounded.  The transition tables evict FIFO past
    ``transition_cap``; the interned state set itself is **flushed** — and
    lazily rebuilt — when it outgrows its own bound (``state_cap``,
    derived from ``transition_cap``), so a long-lived session serving
    documents with ever-new ancestor-chain tag combinations cannot grow
    memory without limit.  A flush bumps :attr:`epoch`; live
    :class:`AutomatonRun`\\ s notice and resync their state stack from the
    engine's open-element stack (O(depth), and only between events).
    """

    def __init__(self, builder: _NfaBuilder,
                 transition_cap: int = DEFAULT_TRANSITION_CAP):
        #: The builder is retained (not frozen into a tuple) so live churn
        #: can thread new NFA fragments into the shared trie-style structure
        #: (:meth:`add_member`); ``_nfa`` aliases its live state list.
        self._builder = builder
        self._nfa = builder.states
        self._cap = max(16, int(transition_cap))
        #: Materialized-state bound: generous enough that flushes are rare
        #: for real vocabularies, small enough to actually bound memory.
        self._state_cap = max(64, self._cap)
        self._evictions = 0
        self._flushes = 0
        self._targeted_invalidations = 0
        self._full_invalidations = 0
        #: Bumped on every flush; runs holding state ids resync on mismatch.
        self.epoch = 0
        self.has_attribute_rules = builder.has_attribute_rules
        self.has_window_rules = builder.has_window_rules
        self._reset_caches()

    def _reset_caches(self) -> None:
        self._set_ids: Dict[FrozenSet[int], int] = {}
        self._sets: List[FrozenSet[int]] = []
        #: Per DFA state: (deliver ordinals, gates), merged and deduped.
        self._deliver: List[Tuple[int, ...]] = []
        self._gates: List[Tuple[_Gate, ...]] = []
        #: Per DFA state: windows armed when a node in this state closes.
        self._arm_sib: List[FrozenSet[int]] = []
        self._arm_fol: List[FrozenSet[int]] = []
        self._elem: Dict[Tuple[int, str], int] = {}
        self._text: Dict[int, int] = {}
        self._attr: Dict[Tuple[int, str], int] = {}
        # Interning order is deterministic, so these ids survive flushes.
        self.dead_state = self._intern(frozenset(), None)
        self.start_state = self._intern(frozenset((0,)), None)

    def maybe_flush(self, stats) -> bool:
        """Flush every materialized state and cached transition when the
        state set outgrew its bound.  Called by runs *between* events, so
        no state id handed out within an event is ever invalidated."""
        if len(self._sets) <= self._state_cap:
            return False
        if stats is not None:
            stats.transition_cache_flushed += (len(self._elem)
                                               + len(self._attr)
                                               + len(self._text))
        self._flushes += 1
        self.epoch += 1
        self._reset_caches()
        return True

    # -- live churn --------------------------------------------------------
    def add_member(self, ordinal: int, path: PathExpr, churn=None) -> None:
        """Thread one more subscription's fragments into the live automaton.

        The incremental mirror of :func:`compile_subscription_automaton`:
        the retained builder inserts the path's union members trie-style
        (shared prefixes resolve to the already-existing chain states), then
        the materialized DFA view is repaired by a *targeted* invalidation —
        only states whose NFA sets intersect the touched fragments are
        patched, everything else (including the state ids live runs hold on
        their stacks) survives.  Above :data:`TARGETED_FLUSH_RATIO` the
        repair degenerates to the wholesale flush live runs already resync
        from.  ``churn`` is the index's
        :class:`~repro.streaming.stats.ChurnStats`.
        """
        builder = self._builder
        builder.touched.clear()
        _compile_path(builder, ordinal, path)
        touched = frozenset(builder.touched)
        builder.touched.clear()
        self.has_attribute_rules = builder.has_attribute_rules
        self.has_window_rules = builder.has_window_rules
        self._invalidate_touched(touched, churn)

    def _invalidate_touched(self, touched: FrozenSet[int], churn) -> None:
        """Repair the materialized DFA view after an NFA mutation.

        A cached transition or accept tuple is stale exactly when its
        *source* set intersects the touched NFA states: new fragments hang
        off touched states, and fresh states cannot occur in any previously
        interned set.  Stale accept info is recomputed in place (ids and
        frozensets stay valid — live run stacks are untouched); stale
        transitions are dropped and lazily rebuilt.  The epoch still bumps
        so live runs resync their stacks between events, exactly as after a
        wholesale flush.
        """
        if not touched:
            return
        affected = [state_id for state_id, key in enumerate(self._sets)
                    if key & touched]
        if not affected:
            return
        if len(affected) > TARGETED_FLUSH_RATIO * len(self._sets):
            self._full_invalidations += 1
            if churn is not None:
                churn.full_flushes += 1
            self.epoch += 1
            self._reset_caches()
            return
        stale = set(affected)
        for state_id in affected:
            (self._deliver[state_id], self._gates[state_id],
             self._arm_sib[state_id],
             self._arm_fol[state_id]) = self._accept_info(
                self._sets[state_id])
            self._text.pop(state_id, None)
        self._elem = {key: value for key, value in self._elem.items()
                      if key[0] not in stale}
        self._attr = {key: value for key, value in self._attr.items()
                      if key[0] not in stale}
        self._targeted_invalidations += 1
        if churn is not None:
            churn.targeted_flushes += 1
        self.epoch += 1

    # -- state interning ---------------------------------------------------
    def _accept_info(self, key: FrozenSet[int]):
        """``(deliver, gates, arm_sib, arm_fol)`` of an NFA-state set,
        merged and deduped in deterministic order.  Computed when a DFA
        state is interned, and recomputed in place by a targeted
        invalidation when an incremental insertion changed a member state's
        rules."""
        deliver: List[int] = []
        gates: List[_Gate] = []
        arm_sib = set()
        arm_fol = set()
        seen_ordinals = set()
        seen_gates = set()
        for q in sorted(key):
            nfa_state = self._nfa[q]
            for ordinal in nfa_state.deliver:
                if ordinal not in seen_ordinals:
                    seen_ordinals.add(ordinal)
                    deliver.append(ordinal)
            for gate in nfa_state.gates:
                if gate not in seen_gates:
                    seen_gates.add(gate)
                    gates.append(gate)
            arm_sib.update(nfa_state.arm_sib)
            arm_fol.update(nfa_state.arm_fol)
        return (tuple(deliver), tuple(gates), frozenset(arm_sib),
                frozenset(arm_fol))

    def _intern(self, key: FrozenSet[int], stats) -> int:
        state_id = self._set_ids.get(key)
        if state_id is not None:
            return state_id
        state_id = len(self._sets)
        self._set_ids[key] = state_id
        self._sets.append(key)
        deliver, gates, arm_sib, arm_fol = self._accept_info(key)
        self._deliver.append(deliver)
        self._gates.append(gates)
        self._arm_sib.append(arm_sib)
        self._arm_fol.append(arm_fol)
        if stats is not None:
            stats.dfa_states_materialized += 1
        return state_id

    def intern_set(self, key: FrozenSet[int], stats) -> int:
        """Id of an explicit NFA-state set (window arming and resync)."""
        return self._intern(key, stats)

    def set_of(self, state_id: int) -> FrozenSet[int]:
        """The NFA-state set behind a materialized DFA state."""
        return self._sets[state_id]

    def arms(self, state_id: int):
        """``(sibling_windows, following_windows)`` armed when a node in
        this state closes."""
        return self._arm_sib[state_id], self._arm_fol[state_id]

    def _remember(self, table, key, value, stats) -> None:
        if len(self._elem) + len(self._attr) >= self._cap:
            victim = table if table else (self._elem if self._elem
                                          else self._attr)
            victim.pop(next(iter(victim)))
            self._evictions += 1
            if stats is not None:
                stats.transition_cache_evictions += 1
        table[key] = value

    # -- transitions -------------------------------------------------------
    def element_successor(self, state_id: int, tag: str, stats) -> int:
        key = (state_id, tag)
        stats.transition_cache_lookups += 1
        successor = self._elem.get(key)
        if successor is not None:
            stats.transition_cache_hits += 1
            return successor
        targets = set()
        for q in self._sets[state_id]:
            nfa_state = self._nfa[q]
            bucket = nfa_state.elem_by_tag.get(tag)
            if bucket:
                targets.update(bucket)
            if nfa_state.elem_any:
                targets.update(nfa_state.elem_any)
        successor = self._intern(frozenset(targets), stats)
        self._remember(self._elem, key, successor, stats)
        return successor

    def text_successor(self, state_id: int, stats) -> int:
        stats.transition_cache_lookups += 1
        successor = self._text.get(state_id)
        if successor is not None:
            stats.transition_cache_hits += 1
            return successor
        targets = set()
        for q in self._sets[state_id]:
            targets.update(self._nfa[q].text)
        successor = self._intern(frozenset(targets), stats)
        # One entry per materialized state: small, never evicted.
        self._text[state_id] = successor
        return successor

    def attribute_successor(self, state_id: int, name: str, stats) -> int:
        key = (state_id, name)
        stats.transition_cache_lookups += 1
        successor = self._attr.get(key)
        if successor is not None:
            stats.transition_cache_hits += 1
            return successor
        targets = set()
        for q in self._sets[state_id]:
            nfa_state = self._nfa[q]
            bucket = nfa_state.attr_by_name.get(name)
            if bucket:
                targets.update(bucket)
            if nfa_state.attr_any:
                targets.update(nfa_state.attr_any)
        successor = self._intern(frozenset(targets), stats)
        self._remember(self._attr, key, successor, stats)
        return successor

    def accepts(self, state_id: int):
        """``(deliver_ordinals, gates)`` of a materialized DFA state."""
        return self._deliver[state_id], self._gates[state_id]

    # -- introspection -----------------------------------------------------
    def state_count(self) -> int:
        """DFA states currently materialized (shared; drops on a flush)."""
        return len(self._sets)

    def describe(self) -> dict:
        """Size figures for benchmark reports and diagnostics."""
        return {
            "nfa_states": len(self._nfa),
            "dfa_states": len(self._sets),
            "transitions_cached": (len(self._elem) + len(self._attr)
                                   + len(self._text)),
            "transition_cap": self._cap,
            "state_cap": self._state_cap,
            "evictions": self._evictions,
            "flushes": self._flushes,
            "targeted_invalidations": self._targeted_invalidations,
            "full_invalidations": self._full_invalidations,
        }


# ---------------------------------------------------------------------------
# The per-matcher run
# ---------------------------------------------------------------------------

class AutomatonRun:
    """Per-matcher driver of a shared :class:`SubscriptionAutomaton`.

    Owned by a :class:`~repro.streaming.matcher.MatcherCore` with
    ``backend="dfa"``; the core calls in from its event loop.  The only
    per-document state is the DFA state stack mirroring the open-element
    stack — plus, when the automaton has sibling-window rules, the parallel
    stack of exact NFA-state sets (window arming merges states into live
    entries, which tag replay could not reconstruct) and the set of armed
    ``following`` windows.  ``rewind()`` (wired into the core's
    stream-state teardown) clears them, while the automaton's transition
    table deliberately survives into the next document.

    ``sink_of`` maps a subscription ordinal to its current result sink; it
    is consulted at fire time so sinks replaced by ``reset()`` stay correct.
    """

    __slots__ = ("automaton", "_sink_of", "stack", "sets", "_armed",
                 "_windows", "epoch")

    def __init__(self, automaton: SubscriptionAutomaton, sink_of):
        self.automaton = automaton
        self._sink_of = sink_of
        self.stack: List[int] = []
        #: Exact NFA sets behind ``stack`` — maintained (and consulted by
        #: resync) only when the automaton has window rules.
        self.sets: List[FrozenSet[int]] = []
        #: Armed ``following`` windows: invariantly a subset of the current
        #: top entry; re-injected lazily whenever a pop exposes an entry
        #: that predates the arming.
        self._armed: FrozenSet[int] = frozenset()
        self._windows = automaton.has_window_rules
        self.epoch = automaton.epoch

    def on_document_start(self, core, root_id: int) -> None:
        automaton = self.automaton
        automaton.maybe_flush(core.stats)
        self.epoch = automaton.epoch
        # Live churn may have introduced the automaton's first window rules
        # since the last document; the cached flag refreshes only here —
        # never mid-document, where the parallel ``sets`` stack would not
        # have been maintained from the start.
        self._windows = automaton.has_window_rules
        start = automaton.start_state
        self.stack = [start]
        if self._windows:
            self.sets = [automaton.set_of(start)]
            self._armed = frozenset()
        deliver, gates = automaton.accepts(start)
        if deliver or gates:
            # Members accepting at the root itself (e.g. the path "/").
            self._fire(core, deliver, gates, root_id, 0, False, None, None,
                       False)

    def _resync(self, core) -> None:
        """Rebuild the state stack after a flush (ours or a co-tenant's).

        Without window rules the stack is a pure function of the engine's
        open-element ancestor chain — available for free on ``core._stack``
        — and is replayed through the freshly emptied automaton; the
        dead-state shortcut in :meth:`on_node` never applies here because a
        flushed automaton has no dead entries on any live path that
        mattered (recomputing them is exactly the point).  With window
        rules the entries carry armed-window residue no replay could
        rebuild, so the exact NFA sets of :attr:`sets` are re-interned
        instead.
        """
        automaton = self.automaton
        self.epoch = automaton.epoch
        stats = core.stats
        if self._windows:
            self.stack = [automaton.intern_set(entry, stats)
                          for entry in self.sets]
            return
        stack = [automaton.start_state]
        for open_element in core._stack[1:]:
            stack.append(automaton.element_successor(stack[-1],
                                                     open_element.tag, stats))
        self.stack = stack

    def _arm(self, core, sib, fol) -> None:
        """Merge newly armed (and still-armed ``following``) windows into
        the current top entry, re-interning its DFA state."""
        if fol:
            self._armed |= fol
        add = (self._armed | sib) if sib else self._armed
        if not add:
            return
        current = self.sets[-1]
        if add <= current:
            return
        merged = current | add
        self.sets[-1] = merged
        self.stack[-1] = self.automaton.intern_set(merged, core.stats)

    def on_node(self, core, node_id: int, depth: int, is_element: bool,
                tag, value, attributes) -> None:
        automaton = self.automaton
        if automaton.maybe_flush(core.stats) or self.epoch != automaton.epoch:
            self._resync(core)
        stack = self.stack
        top = stack[-1]
        dead = automaton.dead_state
        if is_element:
            if top == dead:
                stack.append(dead)
                if self._windows:
                    self.sets.append(automaton.set_of(dead))
                return
            state = automaton.element_successor(top, tag, core.stats)
            stack.append(state)
            if self._windows:
                self.sets.append(automaton.set_of(state))
            if state == dead:
                return
            deliver, gates = automaton.accepts(state)
            if deliver or gates:
                self._fire(core, deliver, gates, node_id, depth, True, tag,
                           None, False)
            if attributes and automaton.has_attribute_rules:
                for index, (name, attr_value) in enumerate(attributes):
                    successor = automaton.attribute_successor(
                        state, name, core.stats)
                    if successor == dead:
                        continue
                    deliver, gates = automaton.accepts(successor)
                    if deliver or gates:
                        # Attribute nodes claim the ids after their element.
                        self._fire(core, deliver, gates, node_id + 1 + index,
                                   depth + 1, False, name, attr_value, True)
        else:
            if top == dead:
                return
            state = automaton.text_successor(top, core.stats)
            if state == dead:
                return
            deliver, gates = automaton.accepts(state)
            if deliver or gates:
                self._fire(core, deliver, gates, node_id, depth, False, None,
                           value, False)
            if self._windows:
                # Text anchors have no close event: their windows arm at
                # the text event itself, into the enclosing element entry.
                sib, fol = automaton.arms(state)
                if sib or fol:
                    self._arm(core, sib, fol)

    def on_close(self, core) -> None:
        stack = self.stack
        if not stack:
            return
        if not self._windows:
            stack.pop()
            return
        automaton = self.automaton
        # Resync *before* consuming the closing entry's id: a co-tenant's
        # flush since the last event would have invalidated it.
        if automaton.maybe_flush(core.stats) or self.epoch != automaton.epoch:
            self._resync(core)
        closed = stack.pop()
        self.sets.pop()
        if not stack:
            return
        sib, fol = automaton.arms(closed)
        if sib or fol or self._armed:
            self._arm(core, sib, fol)

    def rewind(self) -> None:
        self.stack = []
        self.sets = []
        self._armed = frozenset()

    def _fire(self, core, deliver, gates, node_id: int, depth: int,
              is_element: bool, tag, value, is_attribute: bool) -> None:
        """Deliver DFA accepts and open qualifier gates at the current node.

        A gate is a step match like any other: the node reached the gate's
        spine prefix, so it continues through ``core.step_matched`` with the
        gate's qualifiers and remaining steps.  Everything converges on
        ``core.add_candidate`` — pure structural accepts directly, gated
        members once their remainder resolves — which is also where
        substream capture windows open
        (:meth:`~repro.streaming.matcher.MatcherCore._capture_candidate`).
        DFA-accepted structural members therefore start their captures at
        the accepting element's own StartElement, exactly like final-step
        matches on the expectation backend: ``on_node`` runs inside the
        core's ``_start_node``, before the event reaches the shared tee.
        """
        sink_of = self._sink_of
        for ordinal in deliver:
            core.add_candidate(sink_of(ordinal), node_id, depth, is_element,
                               value, (), collect_values=False)
        for gate in gates:
            sink = sink_of(gate.ordinal)
            # A satisfied sink's verdict is fixed (exists-only sink): the
            # gate's conditions and expectations could change nothing.
            if not sink.satisfied:
                core.step_matched(gate.qualifiers, gate.remaining, sink,
                                  False, node_id, depth, is_element, tag,
                                  value, is_attribute=is_attribute)
