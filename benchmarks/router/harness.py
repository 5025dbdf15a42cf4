"""The worker: one workload, set-up to verification, in one process.

Run shape (the same on every commit): set-up (timed, repeated, median
reported), then timed passes of a fixed document count through
``DocumentBroker.submit`` with tracing off, then — when asked — one traced
pass through an *unrolled* submit built from the public calls the broker
itself makes, then verification against the DOM evaluator.  One closed-loop
client, one process: the broker is a synchronous library call.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import resource
import time
from dataclasses import dataclass
from statistics import median
from typing import Callable, Dict, List, Optional, Tuple

from repro.semantics.evaluator import evaluate
from repro.streaming import DocumentBroker, SubscriptionIndex
from repro.streaming.delivery import (
    Delivery,
    NodeIdDelivery,
    SubstreamDelivery,
    VerdictDelivery,
)
from repro.xmlmodel.parser import PushTokenizer, parse_xml
from repro.xpath.analysis import has_reverse_steps
from repro.xpath.cache import QueryCache
from repro.xpath.parser import parse_xpath

import metrics
import workloads
from metrics import Span, percentile, samples_beyond, span_totals

SETUP_REPEATS = 3
TIMED_PASSES = 3
#: Verification sample: pool documents (the small pool is capped) ×
#: subscriptions, against the DOM evaluator.
VERIFY_DOCUMENTS = 50
VERIFY_SUBSCRIPTIONS = 100

_DELIVERIES = {
    "verdict": VerdictDelivery,
    "ids": NodeIdDelivery,
    "substream": SubstreamDelivery,
}

#: The routing of one document in comparable form: how many subscriptions
#: reported, and what each matched one was handed.
Routing = Tuple[int, List[Tuple[int, List[int], Optional[bytes]]]]


def routing_of(result) -> Routing:
    return (len(result.results),
            [(row.key, row.node_ids, row.payload)
             for row in result.results if row.matched])


def routing_sha256(routings: List[Routing]) -> str:
    return hashlib.sha256(repr(routings).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

class Tracer:
    """In-memory spans, written out after the run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []

    def begin(self, name: str, parent: Optional[int], document) -> int:
        self.spans.append([name, time.perf_counter_ns(), 0, parent, document])
        return len(self.spans) - 1

    def end(self, span: int) -> None:
        self.spans[span][2] = time.perf_counter_ns()

    def write(self, path: str, workload: str) -> None:
        with open(path, "a", encoding="utf-8") as handle:
            for index, (name, start, end, parent, document) in enumerate(self.spans):
                handle.write(json.dumps({
                    "workload": workload, "id": index, "name": name,
                    "start_ns": start, "end_ns": end, "parent": parent,
                    "document": document}) + "\n")


class UnrolledSession:
    """``DocumentBroker.submit`` spelled out in public calls, one span per
    call group, so every layer boundary of a submit has a start and an end.

    Mirrors the broker's checkout (rebuild on a vacuumed index, ``sync`` on a
    moved version, ``reset`` on reuse) and its feed loop (skip chunks once the
    session halted, account the events a halt left untokenized).
    """

    def __init__(self, index: SubscriptionIndex, delivery, tracer: Tracer):
        self.index = index
        self.delivery = delivery
        self.tracer = tracer
        self.matcher = None
        self.builds = 0
        self.counts = StatCounts()
        self._generation = -1
        self._version = -1
        self._used = False

    def _checkout(self, parent: int, document):
        index, tracer = self.index, self.tracer
        if self.matcher is None or self._generation != index.generation:
            span = tracer.begin("engine.session_build", parent, document)
            self.matcher = index.matcher(delivery=self.delivery)
            tracer.end(span)
            self.builds += 1
            self._generation = index.generation
            self._version = index.version
            self._used = False
        elif self._version != index.version:
            span = tracer.begin("engine.sync", parent, document)
            self.matcher.sync()
            tracer.end(span)
            self._version = index.version
        if self._used:
            span = tracer.begin("engine.reset", parent, document)
            self.matcher.reset()
            tracer.end(span)
        self._used = True
        return self.matcher

    def _feed(self, matcher, batch, parent: int, document) -> None:
        span = self.tracer.begin("engine.feed", parent, document)
        for position, event in enumerate(batch):
            matcher.feed(event)
            if matcher.halted:
                matcher.stats.events_skipped += len(batch) - position - 1
                break
        self.tracer.end(span)

    def submit(self, document, chunks):
        tracer = self.tracer
        root = tracer.begin("submit", None, document)
        try:
            matcher = self._checkout(root, document)
            tokenizer = PushTokenizer()
            for chunk in chunks:
                if matcher.halted:
                    continue
                span = tracer.begin("parser.feed", root, document)
                batch = tokenizer.feed(chunk)
                tracer.end(span)
                self._feed(matcher, batch, root, document)
            if not matcher.halted:
                span = tracer.begin("parser.feed", root, document)
                batch = tokenizer.close()
                tracer.end(span)
                self._feed(matcher, batch, root, document)
            span = tracer.begin("engine.results", root, document)
            result = matcher.results()
            tracer.end(span)
        except Exception:
            self.matcher = None     # poisoned mid-document: start clean
            raise
        finally:
            tracer.end(root)
        return result


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

@dataclass
class Served:
    """A warm broker plus what the warm-up pass recorded."""

    index: SubscriptionIndex
    broker: DocumentBroker
    delivery: Delivery
    #: Per pool document: the routing every later submit must repeat.
    expected: List[Routing]
    #: Set-up spans, and their durations in seconds by name.
    spans: List[Span]
    phases: Dict[str, float]


def set_up(inputs: workloads.Inputs) -> Served:
    """Compile → index → broker → first (cold) pass over the pool."""
    tracer = Tracer()
    root = tracer.begin("setup", None, None)

    span = tracer.begin("compile.parse_rewrite", root, None)
    cache = QueryCache(maxsize=2 * len(inputs.queries))
    for query in inputs.queries:
        cache.compile(query)
    tracer.end(span)

    span = tracer.begin("engine.index_build", root, None)
    index = SubscriptionIndex(dict(enumerate(inputs.queries)), cache=cache)
    delivery = _DELIVERIES[inputs.workload.delivery]()
    index.matcher(delivery=delivery)    # compiles the shared automaton
    tracer.end(span)

    span = tracer.begin("broker.build", root, None)
    broker = DocumentBroker(index, delivery=delivery)
    tracer.end(span)

    span = tracer.begin("automaton.cold_first_pass", root, None)
    expected = [routing_of(broker.submit(position, chunks))
                for position, chunks in enumerate(inputs.feed)]
    tracer.end(span)
    tracer.end(root)

    phases = {name: total / 1e9
              for name, (_, total, _) in span_totals(tracer.spans).items()}
    return Served(index, broker, delivery, expected, tracer.spans, phases)


# ---------------------------------------------------------------------------
# Churn
# ---------------------------------------------------------------------------

class Churner:
    """Oldest subscription out, fresh query of the same family in."""

    def __init__(self, inputs: workloads.Inputs):
        self.inputs = inputs
        self.pairs = inputs.workload.churn_pairs
        #: The live set, oldest first (dicts keep insertion order).
        self.queries: Dict[int, str] = dict(enumerate(inputs.queries))
        self.removed: set = set()
        self._next = len(inputs.queries)

    def step(self, add: Callable[[int, str], None],
             remove: Callable[[int], None]) -> int:
        """One between-submits burst; returns the calls that raised."""
        failed = 0
        for _ in range(self.pairs):
            key = self._next
            self._next += 1
            query = self.inputs.churn_query(key)
            try:
                add(key, query)
            except Exception as error:
                print(f"subscribe({key}) raised {error!r}")
                failed += 1
            else:
                self.queries[key] = query
            victim = next(iter(self.queries))
            try:
                remove(victim)
            except Exception as error:
                print(f"unsubscribe({victim}) raised {error!r}")
                failed += 1
            self.removed.add(victim)
            del self.queries[victim]
        return failed


class ChurnCheck:
    """Under churn the routing moves with the subscription set: every submit
    must report exactly the live keys, and a (subscription, document) verdict
    must never change between two submits that both see it."""

    def __init__(self, churner: Churner):
        self.churner = churner
        self.verdicts: Dict[Tuple[int, int], bool] = {}

    def __call__(self, position: int, result) -> bool:
        live = self.churner.queries
        if len(result.results) != len(live):
            return False
        verdicts = self.verdicts
        for row in result.results:
            if row.key not in live:
                return False
            if verdicts.setdefault((row.key, position), row.matched) != row.matched:
                return False
        return True


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

class PassResult:
    def __init__(self) -> None:
        self.durations: List[float] = []
        self.events = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.attempted = 0
        self.failed = 0
        self.churn_durations: List[float] = []
        #: Timed submits per pool document, for charging a verification
        #: mismatch to the operations it misrouted.
        self.per_document: Dict[int, int] = {}


def _timed(call: Callable, durations: List[float]) -> Callable:
    def wrapper(*args):
        start = time.perf_counter()
        try:
            call(*args)
        finally:
            durations.append(time.perf_counter() - start)
    return wrapper


def run_pass(inputs: workloads.Inputs, served: Served, count: int, first: int,
             check: Callable[[int, object], bool],
             churner: Optional[Churner],
             traced: Optional[UnrolledSession] = None) -> PassResult:
    """``count`` submits cycling the pool from ``first``; checks run between
    submits, outside the timed interval."""
    outcome = PassResult()
    feed, sizes = inputs.feed, [len(data) for data in inputs.documents]
    clock = time.perf_counter
    if traced is None:
        submit = served.broker.submit
        add = _timed(served.broker.subscribe, outcome.churn_durations)
        remove = _timed(served.broker.unsubscribe, outcome.churn_durations)
    else:
        submit = traced.submit
        tracer, index = traced.tracer, served.index

        def add(key, query):
            span = tracer.begin("engine.add", None, None)
            try:
                index.add_subscription(key, query)
            finally:
                tracer.end(span)

        def remove(key):
            span = tracer.begin("engine.remove", None, None)
            try:
                index.remove_subscription(key)
            finally:
                tracer.end(span)

    gc.collect()
    for number in range(first, first + count):
        position = number % len(feed)
        chunks = feed[position]
        if churner is not None:
            outcome.attempted += 2 * churner.pairs
            outcome.failed += churner.step(add, remove)
        outcome.attempted += 1
        outcome.per_document[position] = outcome.per_document.get(position, 0) + 1
        start = clock()
        try:
            result = submit(number, chunks)
        except Exception as error:
            print(f"submit of pool document {position} raised {error!r}")
            outcome.failed += 1
            continue
        outcome.durations.append(clock() - start)
        stats = result.stats
        outcome.events += stats.events + stats.events_skipped
        outcome.bytes_in += sizes[position]
        outcome.bytes_out += stats.bytes_emitted
        if traced is not None:
            traced.counts.add(stats)
        if not check(position, result):
            print(f"submit {number}: pool document {position} routed "
                  "differently from its warm-up")
            outcome.failed += 1
    return outcome


class StatCounts:
    """Sums of the ``StreamStats`` counters over the traced pass."""

    FIELDS = ("events", "events_skipped", "expectations_created",
              "expectations_checked", "conditions_created",
              "candidates_buffered", "dfa_states_materialized",
              "transition_cache_lookups", "transition_cache_hits",
              "subtrees_emitted", "bytes_emitted")

    def __init__(self) -> None:
        self.totals = dict.fromkeys(self.FIELDS, 0)
        self.max_live_expectations = 0

    def add(self, stats) -> None:
        totals = self.totals
        for name in self.FIELDS:
            totals[name] += getattr(stats, name)
        if stats.max_live_expectations > self.max_live_expectations:
            self.max_live_expectations = stats.max_live_expectations


# ---------------------------------------------------------------------------
# Layer measurements outside the traced pass
# ---------------------------------------------------------------------------

def parser_chunk64_mb_per_s(inputs: workloads.Inputs) -> float:
    """The tokenizer alone, the pool re-fed in 64-byte chunks."""
    total_bytes = 0
    elapsed = 0.0
    for data in inputs.documents:
        pieces = [data[start:start + 64] for start in range(0, len(data), 64)]
        tokenizer = PushTokenizer()
        start = time.perf_counter()
        for piece in pieces:
            tokenizer.feed(piece)
        tokenizer.close()
        elapsed += time.perf_counter() - start
        total_bytes += len(data)
    return total_bytes / elapsed / 1e6


def delivery_ablation(inputs: workloads.Inputs, served: Served,
                      rounds: int = 2) -> Dict[str, float]:
    """The pool's pre-tokenized events through three sessions on one index —
    verdict, ids, substream — timing ``feed`` + ``results`` only: what each
    richer delivery adds on identical events."""
    streams = []
    for data in inputs.documents:
        tokenizer = PushTokenizer()
        streams.append(tokenizer.feed(data) + tokenizer.close())
    seconds = {}
    subtrees = 0
    for mode in ("verdict", "ids", "substream"):
        matcher = served.index.matcher(delivery=_DELIVERIES[mode]())
        elapsed = 0.0
        used = False
        gc.collect()
        for _ in range(rounds):
            for events in streams:
                if used:
                    matcher.reset()
                used = True
                start = time.perf_counter()
                for event in events:
                    matcher.feed(event)
                    if matcher.halted:
                        break
                result = matcher.results()
                elapsed += time.perf_counter() - start
                subtrees += result.stats.subtrees_emitted
        seconds[mode] = elapsed
    events = rounds * sum(len(stream) for stream in streams)
    extra = seconds["substream"] - seconds["ids"]
    return {
        "delivery.substream_extra_us_per_event": extra / events * 1e6,
        "delivery.ids_extra_us_per_event":
            (seconds["ids"] - seconds["verdict"]) / events * 1e6,
        "delivery.us_per_subtree": extra / subtrees * 1e6 if subtrees else 0.0,
    }


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

def _serialize(node) -> bytes:
    """A DOM subtree in the compact form the generated documents use."""
    def escape(value: str) -> str:
        return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")

    def render(node) -> str:
        if node.is_text:
            return escape(node.value or "")
        if not node.is_element:
            raise ValueError(f"no payload reference for {node.label()}")
        body = node.tag + "".join(
            f' {name}="{escape(value).replace(chr(34), "&quot;")}"'
            for name, value in node.attribute_items())
        if not node.children:
            return f"<{body} />"
        inner = "".join(render(child) for child in node.children)
        return f"<{body}>{inner}</{node.tag}>"

    return render(node).encode("utf-8")


def verify_against_dom(inputs: workloads.Inputs, queries: Dict[int, str],
                       routings: List[Routing]) -> List[int]:
    """Pool documents whose routing differs from the DOM evaluator's on a
    seeded sample of subscriptions.  ``routings[d]`` is what the broker
    returned for pool document ``d``."""
    rng = random.Random(f"router-bench/{inputs.seed}/verify")
    keys = sorted(queries)
    sample = rng.sample(keys, min(VERIFY_SUBSCRIPTIONS, len(keys)))
    paths = {key: parse_xpath(queries[key]) for key in sample}
    mode = inputs.workload.delivery
    wrong = []
    for position, data in enumerate(inputs.documents[:VERIFY_DOCUMENTS]):
        dom = parse_xml(data.decode("utf-8"))
        reported, matched = routings[position]
        served = {key: (node_ids, payload) for key, node_ids, payload in matched}
        ok = reported == len(queries)
        for key in sample:
            nodes = evaluate(paths[key], dom)
            if key not in served:
                ok = ok and not nodes
                continue
            node_ids, payload = served[key]
            if mode == "verdict":
                ok = ok and bool(nodes)
            else:
                ok = ok and node_ids == [node.position for node in nodes]
            if mode == "substream":
                ok = ok and payload == b"".join(_serialize(node) for node in nodes)
        if not ok:
            print(f"pool document {position}: routing differs from the DOM evaluator")
            wrong.append(position)
    return wrong


def verify_churned(inputs: workloads.Inputs, served: Served,
                   churner: Churner) -> Tuple[List[Routing], List[int]]:
    """After churn: the broker's routing of every pool document must equal a
    fresh broker's over the surviving subscriptions, and never name a
    removed key."""
    fresh = DocumentBroker(SubscriptionIndex(dict(churner.queries)),
                           delivery=VerdictDelivery())
    routings, wrong = [], []
    for position, chunks in enumerate(inputs.feed):
        routing = routing_of(served.broker.submit(("verify", position), chunks))
        routings.append(routing)
        reference = fresh.submit(position, chunks)
        keys = sorted(key for key, _, _ in routing[1])
        if (keys != sorted(reference.matching_keys)
                or routing[0] != len(reference.results)
                or churner.removed.intersection(keys)):
            print(f"pool document {position}: churned routing differs from "
                  "a fresh broker over the survivors")
            wrong.append(position)
    return routings, wrong


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------

def _metric(name: str, value: float, **extra) -> Dict:
    return {"value": value, "unit": metrics.UNITS[name], **extra}


def _end_to_end_metrics(workload: workloads.Workload,
                        outcomes: List[PassResult],
                        setup_seconds: List[float],
                        peak_rss_mb: float) -> Dict[str, Dict]:
    """Throughputs: median over the passes of ``count / Σ submit durations``.
    Latencies: percentiles of all timed submits pooled."""
    elapsed = [sum(outcome.durations) for outcome in outcomes]

    def rate(name: str, amount: Callable[[PassResult], float]) -> Dict:
        values = [amount(outcome) / seconds
                  for outcome, seconds in zip(outcomes, elapsed)]
        return _metric(name, median(values), passes=values)

    table = {
        "docs_per_s": rate("docs_per_s", lambda o: len(o.durations)),
        "events_per_s": rate("events_per_s", lambda o: o.events),
        "setup_s": _metric("setup_s", median(setup_seconds), passes=setup_seconds),
        "peak_rss_mb": _metric("peak_rss_mb", peak_rss_mb),
        "payload_mb_out_per_s": rate("payload_mb_out_per_s",
                                     lambda o: o.bytes_out / 1e6),
    }
    pooled = sorted(duration for outcome in outcomes
                    for duration in outcome.durations)
    for name, fraction in (("submit_p50_ms", 0.50), ("submit_p95_ms", 0.95),
                           ("submit_p99_ms", 0.99)):
        value = percentile(pooled, fraction)
        if value is not None:
            per_pass = (percentile(sorted(outcome.durations), fraction)
                        for outcome in outcomes)
            table[name] = _metric(
                name, value * 1e3, samples=len(pooled),
                samples_beyond=samples_beyond(len(pooled), fraction),
                passes=[p * 1e3 for p in per_pass if p is not None])
    if workload.churn_pairs:
        calls = [outcome.churn_durations for outcome in outcomes]
        table["churn_op_mean_us"] = _metric(
            "churn_op_mean_us", sum(map(sum, calls)) / sum(map(len, calls)) * 1e6,
            samples=sum(map(len, calls)),
            passes=[sum(durations) / len(durations) * 1e6 for durations in calls])
    return {name: table[name] for name in metrics.bounds_for(workload.name)
            if name in table}


def run_workload(name: str, seed: int, seconds: float, end_to_end: bool,
                 traced: bool, quick: bool = False,
                 trace_out: Optional[str] = None) -> Dict:
    """Run one workload and return its report.

    ``end_to_end`` runs the repeated set-ups and the three timed passes;
    without it (the per-layer run) one set-up and one untraced pass give the
    traced pass its baseline.
    """
    workload = workloads.BY_NAME[name]
    inputs = workloads.generate(workload, seed)
    pinned = workloads.PINNED_SHA256.get(name)
    if seed == workloads.DEFAULT_SEED and pinned not in (None, inputs.sha256):
        raise SystemExit(
            f"{name}: inputs at the default seed hash to {inputs.sha256}, "
            f"pinned {pinned}: the benchmark's inputs changed")
    count = workloads.docs_per_pass(workload, seconds, quick)
    passes = TIMED_PASSES if end_to_end and not quick else 1
    setups = SETUP_REPEATS if end_to_end and not quick else 1

    setup_seconds = []
    served = None
    for _ in range(setups):
        served = None       # free the previous set-up before timing the next
        gc.collect()
        start = time.perf_counter()
        served = set_up(inputs)
        setup_seconds.append(time.perf_counter() - start)

    churner = Churner(inputs) if workload.churn_pairs else None
    if churner is not None:
        check = ChurnCheck(churner)
    else:
        def check(position, result):
            return routing_of(result) == served.expected[position]

    broker_before = served.broker.stats.as_row()
    outcomes = [run_pass(inputs, served, count, number * count, check, churner)
                for number in range(passes)]
    broker_after = served.broker.stats.as_row()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    report: Dict = {
        "docs_per_pass": count,
        "passes": passes,
        "setups": setups,
        "inputs_sha256": inputs.sha256,
        "routing_sha256": routing_sha256(served.expected),
        "end_to_end": _end_to_end_metrics(workload, outcomes, setup_seconds,
                                          peak_rss_mb),
        "per_layer": {},
    }

    if traced:
        tracer = Tracer()
        tracer.spans.extend(served.spans)
        session = UnrolledSession(served.index, served.delivery, tracer)
        churn_before = served.index.churn.as_row()
        outcome = run_pass(inputs, served, count, passes * count, check,
                           churner, traced=session)
        churn_after = served.index.churn.as_row()
        layer = _layer_metrics(
            inputs, served, session, outcome, untraced=outcomes,
            broker_delta={key: broker_after[key] - broker_before[key]
                          for key in broker_after},
            churn_delta={key: churn_after[key] - churn_before[key]
                         for key in churn_after})
        outcomes.append(outcome)
        report["per_layer"] = {
            metric: _metric(metric, layer.get(metric, 0.0))
            for metric, _, _ in metrics.PER_LAYER}
        if trace_out:
            tracer.write(trace_out, name)

    # Verification: the warm-up routing (which every timed submit repeated)
    # against the DOM evaluator; under churn, the final routing instead.
    if churner is not None:
        routings, wrong = verify_churned(inputs, served, churner)
        queries = churner.queries
    else:
        routings, wrong = served.expected, []
        queries = dict(enumerate(inputs.queries))
    wrong = sorted(set(wrong + verify_against_dom(inputs, queries, routings)))
    misrouted = sum(outcome.per_document.get(position, 0)
                    for outcome in outcomes for position in wrong)
    report["attempted"] = sum(outcome.attempted for outcome in outcomes)
    report["failed"] = min(report["attempted"],
                           sum(outcome.failed for outcome in outcomes) + misrouted)
    report["correct"] = report["failed"] == 0 and not wrong
    return report


def _layer_metrics(inputs, served, session, outcome, untraced, broker_delta,
                   churn_delta) -> Dict[str, float]:
    """The per-layer numbers of the traced pass ``outcome``; ``untraced`` are
    the ``broker.submit`` passes before it, ``broker_delta`` their share of
    ``broker.stats``."""
    totals = span_totals(session.tracer.spans)

    def total(span_name: str) -> float:
        return totals.get(span_name, (0, 0, 0))[1] / 1e9

    def calls(span_name: str) -> int:
        return totals.get(span_name, (0, 0, 0))[0]

    counts = session.counts.totals
    documents = len(outcome.durations) or 1
    events = counts["events"] or 1
    offered = counts["events"] + counts["events_skipped"] or 1
    submit = total("submit") or 1e-9
    submit_self = totals.get("submit", (0, 0, 0))[2] / 1e9
    lookups = counts["transition_cache_lookups"]
    phases = served.phases
    layer = {
        "parser.us_per_event": total("parser.feed") / offered * 1e6,
        "parser.mb_per_s": (outcome.bytes_in / total("parser.feed") / 1e6
                            if total("parser.feed") else 0.0),
        "parser.share": total("parser.feed") / submit,
        "engine.reset_us_per_doc": total("engine.reset") / documents * 1e6,
        "engine.results_us_per_doc": total("engine.results") / documents * 1e6,
        "engine.fixed_share":
            (total("engine.reset") + total("engine.results")) / submit,
        "engine.feed_us_per_event": total("engine.feed") / events * 1e6,
        "engine.index_build_s": phases["engine.index_build"],
        "compile.parse_rewrite_s": phases["compile.parse_rewrite"],
        "automaton.cold_first_pass_s": phases["automaton.cold_first_pass"],
        "automaton.dfa_states": (session.matcher.dfa_state_count()
                                 if session.matcher is not None else 0),
        "automaton.lookups_per_event": lookups / events,
        "automaton.hit_ratio":
            counts["transition_cache_hits"] / lookups if lookups else 0.0,
        "automaton.states_materialized_per_doc":
            counts["dfa_states_materialized"] / documents,
        "automaton.targeted_flushes_per_doc":
            churn_delta["targeted_flushes"] / documents,
        "automaton.full_flushes": churn_delta["full_flushes"],
        "matcher.expectations_created_per_doc":
            counts["expectations_created"] / documents,
        "matcher.expectations_checked_per_event":
            counts["expectations_checked"] / events,
        "matcher.conditions_created_per_doc":
            counts["conditions_created"] / documents,
        "matcher.candidates_buffered_per_doc":
            counts["candidates_buffered"] / documents,
        "matcher.max_live_expectations": session.counts.max_live_expectations,
        "delivery.subtrees_per_doc": counts["subtrees_emitted"] / documents,
        "delivery.bytes_out_per_byte_in":
            counts["bytes_emitted"] / outcome.bytes_in if outcome.bytes_in else 0.0,
        "engine.add_us": (total("engine.add") / calls("engine.add") * 1e6
                          if calls("engine.add") else 0.0),
        "engine.remove_us": (total("engine.remove") / calls("engine.remove") * 1e6
                             if calls("engine.remove") else 0.0),
        "engine.sync_us_per_doc": total("engine.sync") / documents * 1e6,
        "engine.vacuum_runs": churn_delta["vacuum_runs"],
        "engine.session_rebuilds": max(0, session.builds - 1),
        "broker.chunks_per_doc": broker_delta["chunks"] / broker_delta["documents"],
        "broker.events_skipped_share": broker_delta["events_skipped"] / (
            broker_delta["events"] + broker_delta["events_skipped"]),
        "broker.mb_in_per_s": (sum(o.bytes_in for o in untraced)
                               / sum(sum(o.durations) for o in untraced) / 1e6),
        "trace.overhead_ratio": sum(outcome.durations) / median(
            [sum(o.durations) for o in untraced]),
        "trace.submit_coverage": 1.0 - submit_self / submit,
        "compile.rewritten_share": sum(
            has_reverse_steps(parse_xpath(query)) for query in inputs.queries
        ) / len(inputs.queries),
    }
    if inputs.workload.name == "stream_large_ids":
        layer["parser.mb_per_s_chunk64"] = parser_chunk64_mb_per_s(inputs)
    if inputs.workload.delivery == "substream":
        layer.update(delivery_ablation(inputs, served))
    return layer
