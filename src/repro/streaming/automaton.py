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

* each **DFA state** is an object interned by its frozenset of NFA states
  on first use, carrying its accept info and its own transition tables;
  runs hold the states themselves.  Interned states plus cached transitions
  share one bound, past which the automaton forgets everything and rebuilds
  lazily (``StreamStats`` counts materializations, lookups, hits and
  flushed transitions);
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
  :class:`~repro.streaming.matcher.MultiMatcher` machinery runs exclusively
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
warmed states across documents (``reset()`` rewinds only the per-document
state stack) — but no longer immutable: live subscription
churn threads new NFA fragments into the retained builder
(:meth:`SubscriptionAutomaton.add_member`) and repairs the materialized DFA
view with a *targeted* invalidation (only states intersecting the touched
fragments are patched; see :data:`TARGETED_FLUSH_RATIO`), so one user
subscribing never recompiles the world.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

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

#: Default bound of the shared cache (materialized states + cached
#: transitions).  Generous for real vocabularies; small enough that a
#: pathological tag stream cannot grow the automaton without limit.
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
    of index member ``ordinal``: the engine then builds ``qualifiers`` into
    conditions and spawns expectations for ``remaining`` anchored at that
    node.  Both tuples may be empty — an empty gate ( ``()``, ``()`` ) never
    exists; a gate with no qualifiers hands over at an unsupported axis, one
    with no remaining steps re-checks only the final step's qualifiers, and
    one on NFA state 0 carrying a whole member hands over at the root.
    ``split`` is ``qualifiers`` split once into the attribute predicate the
    engine decides from the start tag, the rest, and the literal of a lone
    ``[. = "lit"]`` (see
    :func:`repro.xpath.analysis.split_attribute_qualifiers`).
    """

    ordinal: int
    qualifiers: Tuple[Qualifier, ...]
    remaining: Tuple[Step, ...]
    split: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "split", analysis.split_attribute_qualifiers(
            self.qualifiers))

    @property
    def index_key(self) -> Optional[Tuple[str, str]]:
        """The ``(a, lit)`` pair a DFA state keys this gate by, if any."""
        predicate = self.split[0]
        return predicate.index_key if predicate is not None else None

    @property
    def literal_key(self) -> Optional[str]:
        """The literal a DFA state groups this gate by, if any: a final
        step (nothing remaining) whose only non-attribute qualifier is
        ``[. = "lit"]``, and no ``index_key`` to probe first."""
        if self.remaining or self.index_key is not None:
            return None
        return self.split[2]


# ---------------------------------------------------------------------------
# The shared NFA
# ---------------------------------------------------------------------------

class _NfaState:
    """One NFA state: outgoing consuming edges bucketed by test category,
    plus the sibling windows its close event arms."""

    __slots__ = ("elem_by_tag", "elem_any", "text", "attr_by_name",
                 "attr_any", "arm_sib", "arm_fol", "deliver", "gates",
                 "value_gates")

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
        #: Gates firing here (qualifier hand-offs to the expectation engine),
        #: those with an ``index_key`` apart: DFA states key them by value.
        self.gates: List[_Gate] = []
        self.value_gates: List[_Gate] = []


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
        #: Whether any attribute edge / value-indexed / literal gate exists
        #: yet — set where created, never cleared (fragments only grow).
        self.has_attribute_rules = False
        self.has_value_gates = False
        self.has_literal_gates = False

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


def _member_plans(path: PathExpr):
    """``(alternatives, gate qualifiers or None, remaining steps)`` of each
    union member of ``path``, as the automaton compiles it.

    A member the automaton cannot carry (alternative explosion) gets a root
    gate: NFA state 0 hands the whole member to the expectation engine at
    document start.
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
            yield [()], (), member.steps
        else:
            yield alternatives, split[1], split[2]


def indexed_gate_counts(paths: Iterable[PathExpr]) -> Tuple[int, int]:
    """How many gates of these member paths a DFA state keys by an
    ``@a = "lit"`` conjunct, and how many it groups by a final
    ``[. = "lit"]``."""
    by_value = by_literal = 0
    for path in paths:
        plans = [(_Gate(0, tuple(qualifiers), tuple(remaining)), alternatives)
                 for alternatives, qualifiers, remaining in _member_plans(path)
                 if alternatives and qualifiers]
        by_value += len({gate for gate, _ in plans
                         if gate.index_key is not None})
        # The start state groups no literals (see _accept_info).
        by_literal += len({gate for gate, alternatives in plans
                           if gate.literal_key is not None
                           and any(alternatives)})
    return by_value, by_literal


def _compile_path(builder: _NfaBuilder, ordinal: int,
                  path: PathExpr) -> None:
    """Compile one subscription's union members into the shared builder.

    Shared by the bulk compilation below and the live
    :meth:`SubscriptionAutomaton.add_member` — the ``(state, item)`` chain
    memoization makes re-inserting an already-known member a structural
    no-op either way.
    """
    for alternatives, gate_qualifiers, remaining in _member_plans(path):
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
                gates = end.gates
                if gate.index_key is not None:
                    gates = end.value_gates
                    builder.has_value_gates = True
                elif gate.literal_key is not None:
                    builder.has_literal_gates = True
                if gate not in gates:
                    gates.append(gate)
                    builder.touched.add(end_index)


def compile_subscription_automaton(
        subscriptions: Sequence[Tuple[int, PathExpr]],
        transition_cap: int = DEFAULT_TRANSITION_CAP
        ) -> "SubscriptionAutomaton":
    """Compile ``(member ordinal, path)`` pairs into one shared lazy automaton."""
    builder = _NfaBuilder()
    for ordinal, path in subscriptions:
        _compile_path(builder, ordinal, path)
    builder.touched.clear()
    return SubscriptionAutomaton(builder, transition_cap)


# ---------------------------------------------------------------------------
# The lazy DFA
# ---------------------------------------------------------------------------

class _DfaState:
    """One materialized DFA state: the NFA-state set it stands for, what a
    node in it delivers, gates and arms, and its own transition tables.
    Self-contained on purpose: run stacks hold the states themselves, so a
    state the automaton has forgotten (cache flush) keeps working for the
    runs still holding it.  The dead state is the one with an empty ``nfa``.
    """

    __slots__ = ("nfa", "deliver", "gates", "by_value", "fires", "arm_sib",
                 "arm_fol", "elem", "attr", "text", "by_literal")

    def __init__(self, nfa: FrozenSet[int], accept_info):
        self.nfa = nfa
        #: Deliver ordinals and gates (merged, deduped) — the gates with an
        #: ``@a = "lit"`` conjunct keyed by ``(a, lit)`` in ``by_value``,
        #: those with a ``literal_key`` in ``by_literal``, one ``(attribute
        #: predicate, {lit: ordinals}, gate count)`` group per predicate
        #: (each ``None`` if empty), the rest in ``gates`` — whether a node
        #: here delivers or opens anything, and the windows armed when such
        #: a node closes.
        (self.deliver, self.gates, self.by_value, self.by_literal, self.fires,
         self.arm_sib, self.arm_fol) = accept_info
        #: Cached successors: by element tag, by attribute name, on text.
        self.elem: Dict[str, "_DfaState"] = {}
        self.attr: Dict[str, "_DfaState"] = {}
        self.text: Optional["_DfaState"] = None

    def forget_transitions(self) -> int:
        """Drop the cached successors; returns how many there were."""
        dropped = len(self.elem) + len(self.attr) + (self.text is not None)
        self.elem.clear()
        self.attr.clear()
        self.text = None
        return dropped


class SubscriptionAutomaton:
    """Lazily determinized view of the shared NFA.

    DFA states (:class:`_DfaState`, one per frozenset of NFA states) are
    interned on first use and carry their own transition tables.  The
    instance is shared by every matcher of one subscription set: the warmed
    states survive ``reset()`` between documents, which is where the
    O(1)-per-event steady state comes from.

    The cache has **one** bound, checked on the miss path only
    (:meth:`intern`): when interned states plus cached transitions reach
    ``transition_cap`` the automaton *flushes* — forgets the intern table
    and every state's transitions — and rebuilds lazily, so a feed of
    ever-new ancestor-chain tag combinations cannot grow memory without
    limit.  Runs hold states, not ids, so a flush needs nothing from them:
    a state still on a live stack keeps answering, finds its successors in
    the fresh table, and is garbage once popped (at most *depth* such
    orphans per run; they cache nothing, see :meth:`_admit`).
    """

    def __init__(self, builder: _NfaBuilder,
                 transition_cap: int = DEFAULT_TRANSITION_CAP):
        #: The builder is retained (not frozen into a tuple) so live churn
        #: can thread new NFA fragments into the shared trie-style structure
        #: (:meth:`add_member`); ``_nfa`` aliases its live state list.
        self._builder = builder
        self._nfa = builder.states
        self._cap = max(16, int(transition_cap))
        #: Lifetime diagnostics, reported by :meth:`describe`.
        self._counts = {"flushes": 0, "targeted_invalidations": 0,
                        "full_invalidations": 0}
        self.has_attribute_rules = builder.has_attribute_rules
        self._states: Dict[FrozenSet[int], _DfaState] = {}
        self._forget()

    def _forget(self) -> None:
        """Forget every materialized state and cached transition.  States a
        run still holds stay usable but are no longer interned."""
        for state in self._states.values():
            state.forget_transitions()
        dead, start = frozenset(), frozenset((0,))
        self._states = {key: _DfaState(key, self._accept_info(key))
                        for key in (dead, start)}
        #: Where every run starts: NFA state 0, whose accept info is the
        #: root accepts ("/") and the root gates.
        self.start = self._states[start]
        #: Transitions cached across all interned states.
        self._cached = 0

    # -- live churn --------------------------------------------------------
    def add_member(self, ordinal: int, path: PathExpr, churn=None) -> None:
        """Thread one more member's fragments into the live automaton.

        The incremental mirror of :func:`compile_subscription_automaton`:
        the retained builder inserts the path's union members trie-style
        (shared prefixes resolve to the already-existing chain states), then
        the materialized DFA view is repaired by a *targeted* invalidation.
        A state's accept info and cached transitions are stale exactly when
        its NFA set intersects the touched NFA states: new fragments hang
        off touched states, and fresh states cannot occur in any previously
        interned set.  Each affected state recomputes its accept info in
        place and drops its own transitions (lazily rebuilt); the objects —
        and with them every live run stack — stay valid.  (A flushed state
        some run still holds goes unrepaired, and may: the new member
        reaches a session's sinks only from its next document, which starts
        over from :attr:`start`.)  Above :data:`TARGETED_FLUSH_RATIO` the
        repair degenerates to forgetting everything.  ``churn`` is the
        index's :class:`~repro.streaming.stats.ChurnStats`.
        """
        builder = self._builder
        _compile_path(builder, ordinal, path)
        touched, builder.touched = builder.touched, set()
        self.has_attribute_rules = builder.has_attribute_rules
        affected = [state for state in self._states.values()
                    if not touched.isdisjoint(state.nfa)]
        if not affected:
            return
        if len(affected) > TARGETED_FLUSH_RATIO * len(self._states):
            self._counts["full_invalidations"] += 1
            if churn is not None:
                churn.full_flushes += 1
            self._forget()
            return
        for state in affected:
            (state.deliver, state.gates, state.by_value, state.by_literal,
             state.fires, state.arm_sib,
             state.arm_fol) = self._accept_info(state.nfa)
            self._cached -= state.forget_transitions()
        self._counts["targeted_invalidations"] += 1
        if churn is not None:
            churn.targeted_flushes += 1

    # -- state interning ---------------------------------------------------
    def _accept_info(self, key: FrozenSet[int]):
        """``(deliver, gates, by_value, by_literal, fires, arm_sib,
        arm_fol)`` of an NFA-state set, merged and deduped in deterministic
        order (see :class:`_DfaState`).  Computed when a DFA state is
        interned, and recomputed in place by a targeted invalidation when an
        incremental insertion changed a member state's rules.  The start
        state groups no literals: the root never closes."""
        members = [self._nfa[q] for q in sorted(key)]
        deliver = tuple(dict.fromkeys(o for m in members for o in m.deliver))
        gates = tuple(dict.fromkeys(g for m in members for g in m.gates))
        by_literal = None
        if self._builder.has_literal_gates and 0 not in key:
            groups, rest = {}, []
            for gate in gates:
                literal = gate.literal_key
                if literal is None:
                    rest.append(gate)
                    continue
                table = groups.setdefault(gate.split[0], {})
                table[literal] = table.get(literal, ()) + (gate.ordinal,)
            if groups:
                gates = tuple(rest)
                by_literal = tuple(
                    (predicate, table, sum(map(len, table.values())))
                    for predicate, table in groups.items())
        by_value = None
        if self._builder.has_value_gates:
            by_value = {}
            for gate in dict.fromkeys(g for m in members
                                      for g in m.value_gates):
                pair = gate.index_key
                by_value[pair] = by_value.get(pair, ()) + (gate,)
            by_value = by_value or None
        return (
            deliver, gates, by_value, by_literal,
            bool(deliver or gates or by_value or by_literal),
            frozenset(w for m in members for w in m.arm_sib),
            frozenset(w for m in members for w in m.arm_fol))

    def intern(self, key: FrozenSet[int], stats) -> _DfaState:
        """The state of an NFA-state set (successors, window arming),
        materialized on first use.  This is the miss path, and the one
        place the cache bound is checked: at the bound, flush first."""
        if len(self._states) + self._cached >= self._cap:
            stats.transition_cache_flushed += self._cached
            self._counts["flushes"] += 1
            self._forget()
        state = self._states.get(key)
        if state is None:
            state = self._states[key] = _DfaState(key, self._accept_info(key))
            stats.dfa_states_materialized += 1
        return state

    def _admit(self, state: _DfaState) -> bool:
        """Count one more cached transition on ``state`` — unless it was
        flushed off the intern table (possibly by the miss being served):
        caching there would pin forgotten states while a run holds it."""
        admitted = self._states.get(state.nfa) is state
        self._cached += admitted
        return admitted

    # -- transitions -------------------------------------------------------
    def element_successor(self, state: _DfaState, tag: str,
                          stats) -> _DfaState:
        stats.transition_cache_lookups += 1
        successor = state.elem.get(tag)
        if successor is not None:
            stats.transition_cache_hits += 1
            return successor
        targets = set()
        for q in state.nfa:
            nfa_state = self._nfa[q]
            bucket = nfa_state.elem_by_tag.get(tag)
            if bucket:
                targets.update(bucket)
            if nfa_state.elem_any:
                targets.update(nfa_state.elem_any)
        successor = self.intern(frozenset(targets), stats)
        if self._admit(state):
            state.elem[tag] = successor
        return successor

    def text_successor(self, state: _DfaState, stats) -> _DfaState:
        stats.transition_cache_lookups += 1
        successor = state.text
        if successor is not None:
            stats.transition_cache_hits += 1
            return successor
        targets = set()
        for q in state.nfa:
            targets.update(self._nfa[q].text)
        successor = self.intern(frozenset(targets), stats)
        if self._admit(state):
            state.text = successor
        return successor

    def attribute_successor(self, state: _DfaState, name: str,
                            stats) -> _DfaState:
        stats.transition_cache_lookups += 1
        successor = state.attr.get(name)
        if successor is not None:
            stats.transition_cache_hits += 1
            return successor
        targets = set()
        for q in state.nfa:
            nfa_state = self._nfa[q]
            bucket = nfa_state.attr_by_name.get(name)
            if bucket:
                targets.update(bucket)
            if nfa_state.attr_any:
                targets.update(nfa_state.attr_any)
        successor = self.intern(frozenset(targets), stats)
        if self._admit(state):
            state.attr[name] = successor
        return successor

    # -- introspection -----------------------------------------------------
    def state_count(self) -> int:
        """DFA states currently materialized (shared; drops on a flush)."""
        return len(self._states)

    def describe(self) -> dict:
        """Size figures for benchmark reports and diagnostics."""
        return {
            "nfa_states": len(self._nfa),
            "dfa_states": len(self._states),
            "transitions_cached": self._cached,
            "transition_cap": self._cap,
            **self._counts,
        }


# ---------------------------------------------------------------------------
# The per-matcher run
# ---------------------------------------------------------------------------

class AutomatonRun:
    """Per-matcher driver of a shared :class:`SubscriptionAutomaton`.

    Owned by a :class:`~repro.streaming.matcher.MultiMatcher` with
    ``backend="dfa"``; the session calls in from its event loop.  The only
    per-document state is the stack of DFA states — the states themselves —
    mirroring the open-element stack, and the set of armed ``following``
    windows.  ``rewind()`` (wired into the session's stream-state teardown)
    clears them, while the automaton's warmed states deliberately survive
    into the next document.

    ``sink_of`` maps a member ordinal to its current result sink; it
    is consulted at fire time so sinks replaced by ``reset()`` stay correct.
    """

    __slots__ = ("automaton", "_sink_of", "stack", "_armed")

    def __init__(self, automaton: SubscriptionAutomaton, sink_of):
        self.automaton = automaton
        self._sink_of = sink_of
        self.stack: List[_DfaState] = []
        #: Armed ``following`` windows: invariantly a subset of the current
        #: top entry; re-injected lazily whenever a pop exposes an entry
        #: that predates the arming.
        self._armed: FrozenSet[int] = frozenset()

    def on_document_start(self, core, root_id: int) -> None:
        start = self.automaton.start
        self.stack = [start]
        self._armed = frozenset()
        if start.fires:
            # Members accepting at the root itself (e.g. the path "/").
            self._fire(core, start, root_id, 0, False, None, None, False, ())

    def _arm(self, core, sib, fol) -> None:
        """Merge newly armed (and still-armed ``following``) windows into
        the current top entry, re-interning its DFA state."""
        if fol:
            self._armed |= fol
        add = (self._armed | sib) if sib else self._armed
        current = self.stack[-1].nfa
        if not add <= current:
            self.stack[-1] = self.automaton.intern(current | add, core.stats)

    def on_node(self, core, node_id: int, depth: int, is_element: bool,
                tag, value, attributes) -> None:
        stack = self.stack
        top = stack[-1]
        if not top.nfa:
            # Dead: the whole subtree inherits it without a lookup.
            if is_element:
                stack.append(top)
            return
        automaton = self.automaton
        if is_element:
            state = automaton.element_successor(top, tag, core.stats)
            stack.append(state)
            if state.fires:
                self._fire(core, state, node_id, depth, True, tag, None,
                           False, attributes)
            if attributes and state.nfa and automaton.has_attribute_rules:
                for index, (name, attr_value) in enumerate(attributes):
                    successor = automaton.attribute_successor(
                        state, name, core.stats)
                    if successor.fires:
                        # Attribute nodes claim the ids after their element.
                        self._fire(core, successor, node_id + 1 + index,
                                   depth + 1, False, name, attr_value, True,
                                   ())
        else:
            state = automaton.text_successor(top, core.stats)
            if state.fires:
                self._fire(core, state, node_id, depth, False, None, value,
                           False, ())
            if state.arm_sib or state.arm_fol:
                # Text anchors have no close event: their windows arm at
                # the text event itself, into the enclosing element entry.
                self._arm(core, state.arm_sib, state.arm_fol)

    def on_close(self, core) -> None:
        closed = self.stack.pop()
        if closed.arm_sib or closed.arm_fol or self._armed:
            self._arm(core, closed.arm_sib, closed.arm_fol)

    def rewind(self) -> None:
        self.stack = []
        self._armed = frozenset()

    def _fire(self, core, state: _DfaState, node_id: int, depth: int,
              is_element: bool, tag, value, is_attribute: bool,
              attributes) -> None:
        """Deliver ``state``'s accepts and open its qualifier gates at the
        current node, whose start tag carries ``attributes``.

        A gate is a step match like any other: the node reached the gate's
        spine prefix, so it continues through ``core.step_matched`` with the
        gate's qualifiers and remaining steps.  Value-indexed gates are
        probed once per attribute of the node: a gate whose ``(a, lit)``
        pair is not on the start tag has a false attribute predicate, and
        opening it would do nothing.  A literal group is registered whole
        with the core (decided at the element's close) or, on text and
        attributes, looked up now.  Everything converges on
        ``core.add_candidate`` — pure structural accepts directly, gated
        members once their remainder resolves — which is also where
        substream capture windows open
        (:meth:`~repro.streaming.matcher.MultiMatcher._capture_candidate`).
        DFA-accepted structural members therefore start their captures at
        the accepting element's own StartElement, exactly like final-step
        matches on the expectation backend: ``on_node`` runs inside the
        core's ``_start_node``, before the event reaches the shared tee.
        """
        sink_of = self._sink_of
        for ordinal in state.deliver:
            core.add_candidate(sink_of(ordinal), node_id, depth, is_element,
                               value, ())
        gates = state.gates
        if state.by_value and attributes:
            by_value = state.by_value
            gates += tuple(gate for pair in attributes
                           for gate in by_value.get(pair, ()))
        for gate in gates:
            sink = sink_of(gate.ordinal)
            # A satisfied sink's verdict is fixed (exists-only sink): the
            # gate's conditions and expectations could change nothing.
            if not sink.satisfied:
                core.step_matched(gate.split, gate.remaining, sink,
                                  node_id, depth, is_element, tag, value,
                                  (), is_attribute, attributes)
        if state.by_literal is not None:
            for predicate, table, size in state.by_literal:
                if predicate is not None:
                    core.stats.predicates_tested += 1
                    if not predicate.holds(attributes):
                        continue
                if is_element:
                    core.defer_literal_group(node_id, table, size)
                else:
                    for ordinal in table.get(value, ()):
                        core.add_candidate(sink_of(ordinal), node_id, depth,
                                           False, value, ())
