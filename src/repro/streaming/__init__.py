"""Streaming (progressive) evaluation of reverse-axis-free paths (S11/S12).

The point of the paper's rewriting is that a location path without reverse
axes can be answered in a *single pass* over a SAX event stream, buffering
only pending candidate matches instead of the whole document.  This package
provides:

* :mod:`repro.streaming.matcher` — the single-pass matching engine: the
  :class:`MultiMatcher` session advancing every subscription of an index in
  one document pass, and the per-document result records,
* :mod:`repro.streaming.engine` — the :class:`SubscriptionIndex`
  compiling thousands of subscriptions into one shared automaton, one
  member per distinct compiled path (the paper's SDI use case at scale;
  one query is an index of one),
* :mod:`repro.streaming.automaton` — the lazy-DFA structural dispatch
  backend (``backend="dfa"``): subscription spines compiled into one shared
  automaton, DFA states materialized lazily at match time,
* :mod:`repro.streaming.broker` — the push-mode serving layer: a
  :class:`DocumentBroker` matching a continuous feed of chunked documents
  against one compiled index through a reusable matcher session,
* :mod:`repro.streaming.evaluator` — the public ``stream_evaluate`` /
  ``stream_matches`` API and the :class:`StreamResult` record,
* :mod:`repro.streaming.dom_baseline` — the in-memory (DOM) baseline the
  paper's introduction argues against for large documents,
* :mod:`repro.streaming.buffered` — the "buffer enough of the document to
  answer reverse axes" baseline (first of the three options in Section 1),
* :mod:`repro.streaming.stats` — memory/latency accounting shared by all of
  them, used by the benchmarks of experiment E9.

Attribute extension
-------------------

Beyond the paper's fragment, the engine evaluates the attribute axis
(``//item[@id="42"]/price``, ``//item/@id``, value comparisons against
string literals) — the shapes that dominate real SDI subscription sets.
Attributes are the cheapest possible match for a streaming engine: they
arrive *complete* on the StartElement event.  Attribute-only qualifiers —
``[@a]``, ``[@*]``, ``[@a = "v"]`` and ``and`` / ``or`` of them — are
split off each step once at compile time and decided straight from the
start tag's attribute tuple the moment the step matches, so a false one
builds nothing at all; the DFA keys gates with an ``@a = "v"`` conjunct by
``(a, v)`` and opens only those whose pair is on the tag.  Attribute steps
(``//item/@id``) and attributes inside mixed qualifiers go through
dedicated attribute buckets that a per-element sweep resolves and then
expires within the same event.  Either way nothing is buffered, and in
verdict-only sessions a subscription can settle — and halt the stream — at
the element that carries the attribute.  Attribute *nodes* are numbered right after
their owner element in document order, so streamed ids agree 1:1 with the
DOM evaluator's positions.

A lone value test ``[. = "v"]`` is split off in the same place: compared
at once on a text or attribute node, and on a final element step decided
at the close by one lookup of the element's value in its collector's
literal table (the DFA registers a whole group of such gates at once).
Elsewhere (a non-final step, the root) it is a condition like any join.

Architecture: pull vs push
--------------------------

There are two ways to get a document through the engine.

**Pull mode** — the caller owns the loop and hands the engine a finished
iterable of events: :func:`stream_evaluate` for one query,
:meth:`SubscriptionIndex.evaluate` for a whole index.  Events typically come
from :func:`repro.xmlmodel.builder.document_events` (an in-memory document)
or :func:`repro.xmlmodel.parser.iter_events` (XML text).  This is the right
entry point for one-shot evaluation and for benchmarks, where the document
is already at hand.

**Push mode** — the *data source* owns the loop and the engine is fed as
input arrives.  The pieces compose bottom-up:

* :class:`repro.xmlmodel.parser.PushTokenizer` turns arbitrarily chunked
  ``str``/``bytes`` input into events (``feed(chunk) -> [events]``,
  ``close() -> [events]``), with chunk boundaries allowed anywhere — inside
  tags, entities, comments, CDATA, even mid-UTF-8-sequence;
* every matcher is itself push-driven (``feed(event)``), so tokenizer output
  can be forwarded directly;
* :class:`DocumentBroker` packages the loop: ``submit(document_id, chunks)``
  tokenizes, matches, and returns the per-document
  :class:`MultiMatchResult`, plus aggregate stats over the feed.

Session lifecycle
-----------------

A :class:`MultiMatcher` is one *session*.  Freshly constructed it carries
compiled per-subscription state (result sinks, absolute sub-path
registries) and no stream state.  ``feed`` accumulates stream state;
``EndDocument`` (or an early :meth:`MultiMatcher.halt` in verdict-only
mode, once every subscription's verdict is decided —
``stats.events_skipped`` counts what was never consumed) finishes the
session: results become readable and every expectation registry is torn
down.  :meth:`MultiMatcher.reset` then rewinds the session to serve the
next document *without* re-running the constructor's per-subscription
setup — between documents all engine-internal registries are empty
(:meth:`MultiMatcher.registry_sizes`), so nothing leaks from one document
into the next.  :func:`stream_evaluate` and :func:`stream_matches` are one
such session over a one-subscription index, used for one document.

Per-document cost follows what the document *matched*, not the number of
subscriptions: ``reset`` and ``results`` visit only the result sinks it
touched, and a :class:`MultiMatchResult` is a sparse value no later document
or churn changes — ``matching_keys``, ``matched_results``, ``len()`` are
O(matches); ``results``, iteration, ``by_key`` and ``result[key]``
synthesize the unmatched rows on first access, O(N) once.

Delivery modes: verdict, node ids, substream
--------------------------------------------

*What* a decided match delivers is the emission layer
(:mod:`repro.streaming.delivery`), pluggable everywhere a matcher is made
(:meth:`SubscriptionIndex.matcher`/``evaluate``, :class:`DocumentBroker`)
via ``delivery=``:

* **verdict** (:class:`~repro.streaming.delivery.VerdictDelivery`) —
  per-subscription booleans.  Cheapest; admits early termination: the
  session halts once every verdict is fixed.
* **ids** (:class:`~repro.streaming.delivery.NodeIdDelivery`, the default)
  — sorted matched node ids per subscription, agreeing 1:1 with the DOM
  evaluator's document-order positions.
* **substream** (:class:`~repro.streaming.delivery.SubstreamDelivery`) —
  the matched *content*: each match re-emits its subtree's events,
  re-serialized to XML bytes by :mod:`repro.xmlmodel.stream_serialize`.
  This is what turns the engine into a content-based router (Genshi's
  ``Path.select()`` shape).  Capture runs as a shared single-pass tee:
  overlapping and nested matches — across *all* subscriptions — share one
  capture buffer by reference, rendering of a shared subtree happens once,
  and while no capture window is open the tee costs nothing, so verdict
  and id modes are completely unaffected.  Payload routing:
  ``SubstreamDelivery(on_payload=f)`` streams ``f(key, node_id, data)`` as
  each window closes; without a callback the bytes are buffered on
  ``SubscriptionResult.payload``.  ``StreamStats.subtrees_emitted`` /
  ``bytes_emitted`` count what crossed the boundary.

Backends: the lazy DFA and the reference mode
---------------------------------------------

There is one pipeline: structural dispatch either *accepts* a node for a
subscription or fires a *gate*, and a gate hands the rest of the path to
the expectation machinery of :mod:`repro.streaming.matcher`.  Every
matching entry point — :meth:`SubscriptionIndex.matcher`/``evaluate``,
:class:`DocumentBroker`, :func:`stream_evaluate` — takes
``backend="expectations" | "dfa"``
(``None`` defers to the ``REPRO_STREAMING_BACKEND`` environment variable,
then to the default ``"dfa"``).  Both backends are exact: the three-way
differential suite pins DFA == expectations == DOM on every generated
document/query pool.

``"dfa"`` (the default) compiles each subscription's structural spine —
``self``/``child``/``descendant``/``descendant-or-self``/``attribute``
steps, plus ``following-sibling``/``following`` steps as close-event-armed
*sibling windows* — into NFA fragments merged trie-style into one shared
automaton and materializes DFA states lazily: once the states' transition
tables are warm a StartElement costs one dictionary lookup plus a stack push,
*independent of the number of subscriptions*.  Structurally decided
subscriptions (no qualifiers) are answered by DFA accept sets alone;
qualifier-carrying ones run the expectation machinery only past a DFA
*gate* — i.e. only on structurally-viable elements; a member the automaton
cannot carry at all (alternative explosion) is gated at the document root.
Memory has one bound: materialized states plus cached transitions number
at most ``SubscriptionIndex(dfa_transition_cap=...)`` (default 65536); at
the bound the automaton forgets them all and rebuilds lazily
(``StreamStats.transition_cache_flushed``) — so even a feed of documents
with ever-new tag combinations cannot grow the automaton without limit.
Runs hold the states themselves, so a flush — even one in the middle of an
event — needs nothing from a live session.
A broker session keeps the warmed states across documents, which is where
the ≥3x events/sec of ``benchmarks/bench_automaton_sdi.py`` comes from.

``"expectations"`` is the *semantics reference*: no automaton, every path
spawned whole from the document root — N independent single-query matchers
in one session, per-event cost scaling with the expectations the event could
match.  It handles every forward axis uniformly and needs no warmup; the
differential suites pin the automaton against it, and
``REPRO_STREAMING_BACKEND=expectations`` is the switch for bisecting a
suspected automaton bug.

Live churn
----------

A production router cannot recompile the world every time one user
subscribes or unsubscribes, so a built :class:`SubscriptionIndex` is
*churnable* in place:

* :meth:`SubscriptionIndex.add_subscription(key, query)
  <SubscriptionIndex.add_subscription>` joins the query's live member if
  there is one — no automaton update — or threads the new member into the
  built automaton incrementally — the new NFA fragments merge into it,
  followed by a **targeted invalidation**: only the materialized DFA states
  whose NFA-state sets intersect the touched fragments are patched (accept
  info recomputed, their own cached transitions dropped); every state, and
  with it every live run's stack, stays valid.  Only when the touched
  fragments reach more than ``TARGETED_FLUSH_RATIO`` of the materialized
  states does it fall back to the wholesale flush
  (``ChurnStats.full_flushes``).
* :meth:`SubscriptionIndex.remove_subscription(key)
  <SubscriptionIndex.remove_subscription>` drops the key's row — by live
  sessions too, immediately, mid-document; the slot stays (no ordinal
  shifts, so no session rebuild).  The last key **retires** its member:
  deliveries to it are dropped at the sink boundary and its dead NFA
  fragments linger until :meth:`SubscriptionIndex.vacuum` compacts them:
  automatically once retired members exceed ``vacuum_ratio`` (default
  0.25) of the index, or explicitly in a maintenance window.  A vacuum
  remaps ordinals and bumps the index *generation*; existing sessions must
  then be rebuilt (the broker does this at its next checkout).
* Live sessions follow adds between documents: the index *version* counter
  bumps on every churn operation, and :meth:`MultiMatcher.sync` extends a
  session in place — so a mid-document add takes effect at the next
  document, while removals take effect immediately.  :meth:`DocumentBroker.subscribe` / ``unsubscribe`` wire
  this into the serving layer between submits, for all three delivery
  modes, and are safe on a shared index (each broker syncs at its own next
  submit).  ``index.churn`` (:class:`~repro.streaming.stats.ChurnStats`)
  counts adds, removes, targeted/full flushes, and vacuums;
  ``benchmarks/bench_subscription_churn.py`` measures churn-rate vs warm
  throughput.

When to use what
----------------

Use :meth:`SubscriptionIndex.evaluate` for a handful of documents you
already hold in memory; every call builds a fresh matcher, which is simple
and stateless but pays the per-subscription setup each time.  Use a
:class:`DocumentBroker` for a *feed* — many (especially small) documents
against the same standing subscriptions, arriving as text chunks — where
session reuse amortizes that setup and verdict-only mode stops tokenizing a
document the moment its routing is decided (``benchmarks/router``, workload
``feed_small_verdict``, measures the per-document cost that is left).
"""

from repro.streaming.stats import StreamStats
from repro.streaming.automaton import (
    BACKEND_ENV_VAR,
    BACKENDS,
    SubscriptionAutomaton,
    resolve_backend,
)
from repro.streaming.delivery import (
    DELIVERY_MODES,
    Delivery,
    NodeIdDelivery,
    SubstreamDelivery,
    VerdictDelivery,
    resolve_delivery,
)
from repro.streaming.evaluator import StreamResult, stream_evaluate, stream_matches
from repro.streaming.matcher import (
    MultiMatcher,
    MultiMatchResult,
    Subscription,
    SubscriptionResult,
)
from repro.streaming.engine import SubscriptionIndex
from repro.streaming.broker import BrokerStats, DocumentBroker, DocumentRecord
from repro.streaming.dom_baseline import dom_evaluate
from repro.streaming.buffered import buffered_evaluate

__all__ = [
    "BACKEND_ENV_VAR",
    "BACKENDS",
    "SubscriptionAutomaton",
    "resolve_backend",
    "DELIVERY_MODES",
    "Delivery",
    "NodeIdDelivery",
    "SubstreamDelivery",
    "VerdictDelivery",
    "resolve_delivery",
    "StreamStats",
    "StreamResult",
    "stream_evaluate",
    "stream_matches",
    "Subscription",
    "SubscriptionIndex",
    "SubscriptionResult",
    "MultiMatcher",
    "MultiMatchResult",
    "BrokerStats",
    "DocumentBroker",
    "DocumentRecord",
    "dom_evaluate",
    "buffered_evaluate",
]
