"""Accounting of streaming-evaluation resource usage.

The benchmarks of experiment E9 compare the streaming evaluator against the
DOM baseline in terms of *what has to be kept in memory*, which is the
quantity the paper's introduction cares about ("documents too large to be
processed in memory").  :class:`StreamStats` records the relevant counters in
an engine-independent way so the three evaluators (streaming, DOM,
buffering) can be reported side by side.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass
class StreamStats:
    """Resource counters of one evaluation run."""

    #: Number of SAX-like events processed.
    events: int = 0
    #: Events the engine did *not* process because every verdict was already
    #: decided (verdict-only sessions terminate early; see
    #: :meth:`repro.streaming.matcher.MultiMatcher.halt`).  Exact when the
    #: event source has a known length; otherwise it counts the events that
    #: were still offered to a halted matcher.
    events_skipped: int = 0
    #: Number of document nodes seen on the stream (elements + attributes +
    #: texts + root).
    nodes_seen: int = 0
    #: Attribute nodes visited (they ride on StartElement events; the
    #: per-element attribute sweep counts them here).
    attributes_seen: int = 0
    #: Maximum element nesting depth observed.
    max_depth: int = 0
    #: Document nodes materialized in memory (the whole document for DOM,
    #: zero for the pure streaming engine).
    nodes_stored: int = 0
    #: Pending-match expectations created / maximum simultaneously alive.
    expectations_created: int = 0
    max_live_expectations: int = 0
    #: Expectations actually examined against node events.  With the
    #: tag-indexed dispatch of :class:`repro.streaming.matcher.MultiMatcher`
    #: only the buckets a node can match are consulted; this counter is the
    #: per-event cost the index is built to shrink.
    expectations_checked: int = 0
    #: Lazy-DFA backend: distinct automaton states materialized *during this
    #: run* (a warm transition table materializes none; see
    #: :mod:`repro.streaming.automaton`).
    dfa_states_materialized: int = 0
    #: Lazy-DFA backend: transition-table lookups performed / answered from
    #: the cache.  A fully warm run has ``hits == lookups``; the difference
    #: is the number of on-the-fly subset constructions.
    transition_cache_lookups: int = 0
    transition_cache_hits: int = 0
    #: Lazy-DFA backend: cached transitions dropped because materialized
    #: states plus cached transitions reached ``dfa_transition_cap`` and the
    #: automaton flushed (everything is forgotten and lazily rebuilt).
    transition_cache_flushed: int = 0
    #: Qualifier/join conditions created during the run.
    conditions_created: int = 0
    #: Attribute predicates (``[@a]``, ``[@a = "v"]``, and/or of those)
    #: decided inline from a matched node's start tag: one per decision,
    #: true or false; a false one builds no condition at all.
    predicates_tested: int = 0
    #: Final-step ``[. = "lit"]`` tests on elements decided at the close
    #: instead of becoming conditions (on the DFA: per gate of a group).
    literal_tests_deferred: int = 0
    #: Candidate matches buffered awaiting qualifier/join resolution.
    candidates_buffered: int = 0
    #: Characters of text buffered for value (``=``) joins.
    buffered_value_chars: int = 0
    #: Number of result nodes reported.
    results: int = 0
    #: Substream delivery: matched subtrees re-emitted as payload, and the
    #: serialized payload bytes that crossed the boundary — the honest unit
    #: of serving work (zero outside substream mode).
    subtrees_emitted: int = 0
    bytes_emitted: int = 0

    @property
    def memory_units(self) -> int:
        """A single machine-independent "things held in memory" figure.

        Counts stored nodes, buffered candidates and live expectations —
        the quantities that grow with the document for a DOM evaluator but
        stay bounded by query selectivity for the streaming evaluator.
        """
        return (self.nodes_stored + self.candidates_buffered
                + self.max_live_expectations)

    def as_row(self) -> dict:
        """Flat dictionary used by the benchmark reports: every field, plus
        the derived ``memory_units``."""
        return {**asdict(self), "memory_units": self.memory_units}


@dataclass
class ChurnStats:
    """Accounting of live subscription churn on a
    :class:`~repro.streaming.engine.SubscriptionIndex`.

    One instance lives on the index (``index.churn``) for the index's whole
    lifetime — unlike the per-run :class:`StreamStats`, these counters
    accumulate across documents and matchers.  The acceptance contract of
    live churn is asserted against them: below the documented thresholds an
    add costs one *targeted* invalidation (never a full flush) and a remove
    costs no recompilation at all (``vacuum_runs`` stays flat until the
    retired ratio is crossed).
    """

    #: Subscriptions added to / removed from a live index through the churn
    #: API (:meth:`~repro.streaming.engine.SubscriptionIndex.add_subscription`
    #: / ``remove_subscription``).  Bulk registration before the first
    #: matcher is built is not churn and is not counted.
    subscriptions_added: int = 0
    subscriptions_removed: int = 0
    #: Targeted DFA invalidations: an incremental NFA insertion patched only
    #: the materialized DFA states whose NFA-state sets intersect the
    #: touched fragments (accept info recomputed, their own transitions
    #: dropped), keeping every state (and the stacks live runs hold) intact.
    targeted_flushes: int = 0
    #: Incremental insertions that fell back to the wholesale flush because
    #: the touched fragments reached too many materialized states (see
    #: ``TARGETED_FLUSH_RATIO`` in :mod:`repro.streaming.automaton`).
    full_flushes: int = 0
    #: Deferred compactions: the index rebuilt its structures to reclaim
    #: retired members once they exceeded the ``vacuum_ratio``.
    vacuum_runs: int = 0

    def as_row(self) -> dict:
        """Flat dictionary used by the benchmark reports."""
        return asdict(self)
