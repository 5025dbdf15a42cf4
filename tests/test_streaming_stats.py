"""Unit tests of the resource accounting record (repro.streaming.stats)."""

import dataclasses

import pytest

from repro.streaming import dom_evaluate, stream_evaluate
from repro.streaming.broker import BrokerStats
from repro.streaming.delivery import (
    NodeIdDelivery,
    SubstreamDelivery,
    VerdictDelivery,
)
from repro.streaming.engine import SubscriptionIndex
from repro.streaming.stats import ChurnStats, StreamStats
from repro.workloads.queries import differential_query_pool
from repro.xmlmodel.builder import document_events
from repro.xmlmodel.document import Document, element, text
from repro.xmlmodel.events import EndDocument, StartDocument
from repro.xmlmodel.generator import item_feed_document, journal_document


class TestStreamStats:
    def test_fresh_stats_are_zero(self):
        stats = StreamStats()
        assert stats.memory_units == 0
        assert all(value == 0 for value in stats.as_row().values())

    def test_memory_units_formula(self):
        stats = StreamStats(nodes_stored=5, candidates_buffered=3,
                            max_live_expectations=2)
        assert stats.memory_units == 10

    def test_as_row_reports_every_memory_quantity(self):
        row = StreamStats(events=7, nodes_seen=4, nodes_stored=1,
                          candidates_buffered=2, max_live_expectations=3,
                          buffered_value_chars=8, results=1).as_row()
        assert row["events"] == 7
        assert row["nodes_seen"] == 4
        assert row["memory_units"] == 1 + 2 + 3
        assert row["results"] == 1

    def test_as_row_reports_substream_emission_counters(self):
        row = StreamStats(subtrees_emitted=4, bytes_emitted=120).as_row()
        assert row["subtrees_emitted"] == 4
        assert row["bytes_emitted"] == 120

    @pytest.mark.parametrize("cls", [StreamStats, ChurnStats, BrokerStats])
    def test_as_row_carries_every_dataclass_field(self, cls):
        assert set(cls().as_row()) >= {
            field.name for field in dataclasses.fields(cls)}


MONOTONIC_COUNTERS = ("events", "nodes_seen", "max_depth",
                      "expectations_created", "max_live_expectations",
                      "conditions_created", "candidates_buffered",
                      "buffered_value_chars")


class TestCountersDuringARun:
    def test_counters_grow_monotonically_event_by_event(self):
        document = Document.from_tree(
            element("a",
                    element("b", text("x"), element("c")),
                    element("b", element("c", text("y")))))
        matcher = SubscriptionIndex(
            ["/descendant::b[child::c]/descendant::node()"]).matcher()
        previous = {name: 0 for name in MONOTONIC_COUNTERS}
        for event in document_events(document):
            matcher.feed(event)
            for name in MONOTONIC_COUNTERS:
                current = getattr(matcher.stats, name)
                assert current >= previous[name], name
                previous[name] = current
        assert matcher.stats.events == len(list(document_events(document)))

    def test_max_depth_is_a_high_water_mark(self):
        document = Document.from_tree(
            element("a", element("b", element("c")), element("b")))
        result = stream_evaluate("/descendant::c", document_events(document))
        assert result.stats.max_depth == 3

    def test_max_live_expectations_is_a_high_water_mark(self):
        document = Document.from_tree(
            element("a", element("b"), element("b"), element("b")))
        matcher = SubscriptionIndex(["/descendant::b/child::c"]).matcher(
            backend="expectations")
        matcher.process(document_events(document))
        # After the stream all expectations are discarded, but the high-water
        # mark keeps the peak.
        assert matcher.live_expectations() == []
        assert matcher.stats.max_live_expectations >= 2

    def test_empty_stream(self):
        result = stream_evaluate("/", [StartDocument(), EndDocument()])
        assert result.node_ids == [0]
        stats = result.stats
        assert stats.events == 2
        assert stats.nodes_seen == 1        # only the root
        assert stats.max_depth == 0
        assert stats.expectations_created == 0
        assert stats.results == 1

    def test_single_element_document(self):
        document = Document.from_tree(element("a"))
        result = stream_evaluate("/child::a", document_events(document))
        assert result.node_ids == [1]
        assert result.stats.nodes_seen == 2    # root + element
        assert result.stats.max_depth == 1
        assert result.stats.results == 1

    def test_buffered_value_chars_counts_join_text(self):
        document = Document.from_tree(
            element("a", element("b", text("xyz")), element("c", text("xyz"))))
        result = stream_evaluate("/descendant::b[self::node() = /descendant::c]",
                                 document_events(document))
        assert result.stats.buffered_value_chars >= len("xyz")


def assert_internally_consistent(stats, total_events=None):
    """Invariants every finished run must satisfy, whatever the backend."""
    row = stats.as_row()
    for name, value in row.items():
        assert value >= 0, (name, row)
    assert stats.attributes_seen <= stats.nodes_seen
    assert stats.transition_cache_hits <= stats.transition_cache_lookups
    assert stats.dfa_states_materialized <= max(
        1, stats.transition_cache_lookups)
    assert stats.max_live_expectations <= stats.expectations_created
    if total_events is not None:
        assert stats.events_skipped <= total_events
        assert stats.events + stats.events_skipped == total_events


class TestStatsInvariants:
    """Counter consistency on hand-built streams, across both backends.

    ``tests/test_streaming_stats.py`` historically exercised only the
    expectation backend; the ``backend`` fixture closes that gap.
    """

    def _document(self):
        return Document.from_tree(
            element("a",
                    element("b", text("x"),
                            element("c", attributes={"id": "1"})),
                    element("b", attributes={"id": "2", "kind": "x"}),
                    element("c", text("y"))))

    QUERIES = {
        "decided": "/descendant::b",
        "gated": "/descendant::b[child::c]",
        "attr": '//b[@id="2"]',
        "attr-select": "//c/@id",
        "sibling": "/child::a/child::b/following-sibling::c",
        "join": '/descendant::c[self::node() = "y"]',
        "missing": "/descendant::nosuchtag",
    }

    def test_full_run_counters_are_consistent(self, backend):
        events = list(document_events(self._document()))
        index = SubscriptionIndex(self.QUERIES)
        result = index.evaluate(events, backend=backend)
        assert_internally_consistent(result.stats, total_events=len(events))
        assert result.stats.events == len(events)

    def test_verdict_run_counters_are_consistent(self, backend):
        events = list(document_events(self._document()))
        index = SubscriptionIndex(self.QUERIES)
        result = index.evaluate(events, delivery=VerdictDelivery(),
                                backend=backend)
        assert_internally_consistent(result.stats, total_events=len(events))

    def test_single_query_counters_are_consistent(self, backend):
        events = list(document_events(self._document()))
        for query in self.QUERIES.values():
            stats = stream_evaluate(query, events, backend=backend).stats
            assert_internally_consistent(stats, total_events=len(events))

    def test_dfa_counters_stay_zero_on_the_expectation_backend(self):
        events = list(document_events(self._document()))
        stats = SubscriptionIndex(self.QUERIES).evaluate(
            events, backend="expectations").stats
        assert stats.dfa_states_materialized == 0
        assert stats.transition_cache_lookups == 0
        assert stats.transition_cache_hits == 0
        assert stats.transition_cache_flushed == 0

    def test_attribute_ids_never_collide_with_element_ids(self, backend):
        # Attribute nodes claim the positions right after their owner; the
        # id spaces reported for element, text and attribute selections must
        # be pairwise disjoint and dense.
        document = self._document()
        events = list(document_events(document))
        elements = stream_evaluate("//*", events, backend=backend).node_ids
        attributes = stream_evaluate("//@*", events,
                                     backend=backend).node_ids
        texts = stream_evaluate("//text()", events, backend=backend).node_ids
        assert not set(elements) & set(attributes)
        assert not set(elements) & set(texts)
        assert not set(attributes) & set(texts)
        assert sorted([0] + elements + attributes + texts) == \
            list(range(len(document)))


class TestEventsSkipped:
    """Early termination of verdict-only sessions (``events_skipped``)."""

    QUERIES = {
        "journals": "/descendant::journal",
        "titles": "/descendant::journal/descendant::title",
    }

    def _events(self):
        document = journal_document(journals=40, articles_per_journal=3,
                                    authors_per_article=2, seed=13)
        return list(document_events(document))

    def test_verdict_only_session_stops_early(self):
        events = self._events()
        index = SubscriptionIndex(self.QUERIES)
        result = index.evaluate(events, delivery=VerdictDelivery())
        stats = result.stats
        # Both subscriptions are satisfied within the first journal, so the
        # rest of the large document is never consumed.
        assert all(row.matched for row in result)
        assert stats.events < len(events)
        assert stats.events_skipped > 0
        assert stats.events + stats.events_skipped == len(events)
        assert stats.as_row()["events_skipped"] == stats.events_skipped

    def test_full_result_session_never_skips(self):
        events = self._events()
        stats = SubscriptionIndex(self.QUERIES).evaluate(events).stats
        assert stats.events == len(events)
        assert stats.events_skipped == 0

    def test_undecided_verdict_prevents_early_termination(self):
        events = self._events()
        queries = dict(self.QUERIES, missing="/descendant::nosuchtag")
        stats = SubscriptionIndex(queries).evaluate(
            events, delivery=VerdictDelivery()).stats
        # One subscription stays undecided until end of stream: no skipping.
        assert stats.events == len(events)
        assert stats.events_skipped == 0

    def test_feeding_a_halted_matcher_counts_skips(self):
        events = self._events()
        matcher = SubscriptionIndex(self.QUERIES).matcher(
            delivery=VerdictDelivery())
        for event in events:
            matcher.feed(event)
        assert matcher.halted
        assert matcher.stats.events + matcher.stats.events_skipped == len(events)
        before = matcher.stats.events_skipped
        matcher.feed(events[-1])
        assert matcher.stats.events_skipped == before + 1


# Work done by the engine — not just its answers — for one query pool over
# one fixed document, recorded before the `step_matched` hand-off refactor.
# A change that builds conditions behind satisfied sinks, spawns twice or
# stops pruning moves these totals while every result stays equal.
POOL_DOCUMENTS = {
    "journal": (
        lambda: journal_document(journals=3, articles_per_journal=2,
                                 authors_per_article=2, with_attributes=True,
                                 seed=7),
        dict(tags=("journal", "article", "title", "name"),
             attribute_names=("id", "tier"),
             attribute_values=("j1", "gold", "silver"))),
    "item_feed": (
        lambda: item_feed_document(items=12, seed=0),
        dict(tags=("item", "title", "price", "feed"),
             attribute_names=("id", "category", "currency"),
             attribute_values=("3", "books", "EUR", "USD"))),
}

POOL_COUNTERS = ("expectations_created", "expectations_checked",
                 "conditions_created", "candidates_buffered",
                 "max_live_expectations")

#: (document, backend, delivery) -> POOL_COUNTERS totals.  Recorded with
#: one index entry per *distinct* query of the pool (99 of 120 on journal,
#: 104 on item_feed) before repeated queries shared an automaton member:
#: the full pool must do exactly the work of its distinct set.  Re-recorded
#: when attribute-only qualifiers began to be decided from the start tag: a
#: false one no longer builds a condition, sink or expectation.
POOL_GOLDEN = {
    ("journal", "dfa", VerdictDelivery): (25, 61, 56, 98, 10),
    ("journal", "dfa", NodeIdDelivery): (33, 71, 62, 638, 13),
    ("journal", "dfa", SubstreamDelivery): (33, 71, 62, 638, 13),
    ("journal", "expectations", VerdictDelivery): (869, 2109, 56, 98, 238),
    ("journal", "expectations", NodeIdDelivery): (1868, 7143, 68, 3257, 521),
    ("journal", "expectations", SubstreamDelivery):
        (1868, 7143, 68, 3257, 521),
    ("item_feed", "dfa", VerdictDelivery): (68, 110, 88, 186, 22),
    ("item_feed", "dfa", NodeIdDelivery): (80, 129, 100, 738, 24),
    ("item_feed", "dfa", SubstreamDelivery): (80, 129, 100, 738, 24),
    ("item_feed", "expectations", VerdictDelivery):
        (1035, 2227, 88, 186, 249),
    ("item_feed", "expectations", NodeIdDelivery):
        (1923, 6975, 112, 3173, 544),
    ("item_feed", "expectations", SubstreamDelivery):
        (1923, 6975, 112, 3173, 544),
}


def _pool(document):
    build, vocabulary = POOL_DOCUMENTS[document]
    return (list(document_events(build())),
            differential_query_pool(120, seed=3, **vocabulary))


@pytest.mark.parametrize(
    "document,backend,delivery", list(POOL_GOLDEN),
    ids=lambda value: getattr(value, "__name__", value))
def test_pool_level_work_counters_are_pinned(document, backend, delivery):
    events, pool = _pool(document)
    stats = SubscriptionIndex(pool).evaluate(events, backend=backend,
                                             delivery=delivery()).stats
    assert tuple(getattr(stats, name) for name in POOL_COUNTERS) == \
        POOL_GOLDEN[(document, backend, delivery)]


@pytest.mark.parametrize(
    "document,backend,delivery", list(POOL_GOLDEN),
    ids=lambda value: getattr(value, "__name__", value))
def test_repeated_queries_do_the_work_of_their_distinct_set(
        document, backend, delivery):
    """Keys that repeat a query share its member: the whole pool costs what
    its distinct queries cost, and every key still gets the full answer."""
    events, pool = _pool(document)
    distinct = list(dict.fromkeys(pool))
    assert len(distinct) < len(pool)
    results = [SubscriptionIndex(queries).evaluate(
                   events, backend=backend, delivery=delivery())
               for queries in (pool, distinct)]
    assert [tuple(getattr(result.stats, name) for name in POOL_COUNTERS)
            for result in results] == [POOL_GOLDEN[(document, backend,
                                                    delivery)]] * 2
    answers = {query: dom_evaluate(query, events).node_ids
               for query in distinct}
    for row, query in zip(results[0].results, pool):
        assert row.matched == bool(answers[query]), query
        if delivery is not VerdictDelivery:
            assert row.node_ids == answers[query], query


#: (document, backend) -> the nonzero ``StreamStats.as_row()`` totals of one
#: ``stream_evaluate`` run per query of the pool, ``memory_units`` included.
#: Recorded on the two-class single-query matcher, before ``stream_evaluate``
#: became a one-subscription index session: the single-query door must do
#: exactly the work it did.  Re-recorded (like ``POOL_GOLDEN``) when
#: attribute-only qualifiers began to be decided from the start tag, and
#: ``buffered_value_chars`` again when a node's text began to be collected
#: once for everything waiting on its value, not once per waiting entry.
SINGLE_QUERY_GOLDEN = {
    ("journal", "dfa"): dict(
        events=6720, nodes_seen=4440, attributes_seen=360, max_depth=300,
        expectations_created=31, max_live_expectations=15,
        expectations_checked=90, dfa_states_materialized=132,
        transition_cache_lookups=2646, transition_cache_hits=2152,
        conditions_created=62, predicates_tested=86,
        candidates_buffered=420, buffered_value_chars=1152, results=303,
        memory_units=435),
    ("journal", "expectations"): dict(
        events=6720, nodes_seen=4440, attributes_seen=360, max_depth=300,
        expectations_created=1183, max_live_expectations=371,
        expectations_checked=3318, conditions_created=68,
        predicates_tested=117, candidates_buffered=1134,
        buffered_value_chars=1152, results=303, memory_units=1505),
    ("item_feed", "dfa"): dict(
        events=6000, nodes_seen=6120, attributes_seen=2400, max_depth=180,
        expectations_created=81, max_live_expectations=26,
        expectations_checked=135, dfa_states_materialized=136,
        transition_cache_lookups=2848, transition_cache_hits=2524,
        conditions_created=99, predicates_tested=75,
        candidates_buffered=520, buffered_value_chars=1675, results=322,
        memory_units=546),
    ("item_feed", "expectations"): dict(
        events=6000, nodes_seen=6120, attributes_seen=2400, max_depth=180,
        expectations_created=1251, max_live_expectations=341,
        expectations_checked=4221, conditions_created=111,
        predicates_tested=124, candidates_buffered=1953,
        buffered_value_chars=1675, results=322, memory_units=2294),
}


@pytest.mark.parametrize("document,backend", list(SINGLE_QUERY_GOLDEN))
def test_single_query_counters_are_pinned(document, backend):
    build, vocabulary = POOL_DOCUMENTS[document]
    events = list(document_events(build()))
    totals = dict.fromkeys(StreamStats().as_row(), 0)
    for query in differential_query_pool(60, seed=3, **vocabulary):
        result = stream_evaluate(query, events, backend=backend)
        assert result.node_ids == dom_evaluate(query, events).node_ids, query
        for name, value in result.stats.as_row().items():
            totals[name] += value
    assert {name: value for name, value in totals.items() if value} == \
        SINGLE_QUERY_GOLDEN[(document, backend)]
