"""Unit tests for single-query streaming (``stream_evaluate`` and the
session it runs, :class:`repro.streaming.matcher.MultiMatcher`)."""

import pytest

from repro.errors import ReverseAxisStreamingError, StreamingError
from repro.streaming import (
    SubscriptionIndex,
    dom_evaluate,
    stream_evaluate,
    stream_matches,
)
from repro.xmlmodel.builder import document_events
from repro.xmlmodel.events import (
    EndDocument,
    EndElement,
    StartDocument,
    StartElement,
    Text,
)
from repro.xmlmodel.parser import iter_events
from repro.datasets import FIGURE1_XML
from repro.xmlmodel.generator import journal_document
from repro.xpath.cache import compile_cache_info


def run(expression, document):
    return stream_evaluate(expression, document_events(document)).node_ids


def session(query, backend=None):
    """A node-ids session over a one-subscription index (what
    ``stream_evaluate`` runs), for tests that feed events one by one."""
    return SubscriptionIndex([query]).matcher(backend=backend)


def pulled_until(events, last):
    """``events`` as an iterator that fails the test if anything is pulled
    after the event at position ``last``."""
    for position, event in enumerate(events):
        if position > last:
            pytest.fail(f"pulled event {position} ({event!r}) after the "
                        "answer was decided")
        yield event


class TestBasicMatching:
    def test_descendant(self, figure1):
        assert run("/descendant::name", figure1) == [7, 9]

    def test_child_chain(self, figure1):
        assert run("/child::journal/child::authors/child::name", figure1) == [7, 9]

    def test_descendant_or_self_expansion(self, figure1):
        assert run("//name", figure1) == [7, 9]

    def test_self_step(self, figure1):
        assert run("/child::journal/self::journal", figure1) == [1]
        assert run("/child::journal/self::title", figure1) == []

    def test_text_selection(self, figure1):
        assert run("/descendant::name/child::text()", figure1) == [8, 10]

    def test_root_path(self, figure1):
        assert run("/", figure1) == [0]

    def test_wildcard(self, figure1):
        assert run("/child::journal/child::*", figure1) == [2, 4, 6, 11]


class TestSiblingAndFollowingAxes:
    def test_following_sibling(self, figure1):
        assert run("/descendant::title/following-sibling::price", figure1) == [11]
        assert run("/descendant::price/following-sibling::*", figure1) == []

    def test_following(self, figure1):
        assert run("/descendant::authors/following::price", figure1) == [11]
        assert run("/descendant::price/following::node()", figure1) == []

    def test_following_excludes_descendants(self, figure1):
        assert run("/descendant::authors/following::name", figure1) == []

    def test_following_from_text_anchor(self, figure1):
        assert run("/descendant::editor/child::text()/following::price",
                   figure1) == [11]


class TestQualifiers:
    def test_existence_qualifier(self, figure1):
        assert run("/descendant::journal[child::price]/child::title", figure1) == [2]
        assert run("/descendant::journal[child::missing]/child::title", figure1) == []

    def test_qualifier_resolved_after_candidate(self, figure1):
        # names are seen before the price: candidates must wait.
        assert run("/descendant::name[following::price]", figure1) == [7, 9]

    def test_nested_qualifier(self, figure1):
        assert run("/descendant::journal[child::authors[child::name]]/child::editor",
                   figure1) == [4]

    def test_and_or_qualifiers(self, figure1):
        assert run("/descendant::journal[child::title and child::price]", figure1) == [1]
        assert run("/descendant::journal[child::missing or child::price]", figure1) == [1]
        assert run("/descendant::journal[child::missing and child::price]", figure1) == []

    def test_identity_join_with_absolute_path(self, figure1):
        assert run("/descendant::name[following::price == /descendant::price]",
                   figure1) == [7, 9]

    def test_identity_join_absolute_seen_before_candidate(self, figure1):
        # The absolute operand (/child::journal/child::title) matches a node
        # that occurs *before* the candidate names; the shared sink spawned at
        # the start of the document must have recorded it already.
        assert run("/descendant::name[following::price == /child::journal/child::price]",
                   figure1) == [7, 9]
        assert run("/descendant::authors[child::name == /descendant::authors/child::name]",
                   figure1) == [6]

    def test_value_join(self, figure1):
        assert run("/descendant::editor[self::node() = /descendant::name]",
                   figure1) == [4]
        assert run("/descendant::title[self::node() = /descendant::name]",
                   figure1) == []

    def test_root_string_value_in_value_joins(self):
        # Regression: the streaming engine used to give the document root an
        # empty string value in value joins; like any node, its value is the
        # concatenation of all descendant text (finalized at end of stream),
        # matching the DOM baseline.
        from repro.streaming.dom_baseline import dom_evaluate
        from repro.xmlmodel.document import Document, element, text
        doc = Document.from_tree(element("a", element("b", text("x"))))
        events = list(document_events(doc))
        query = '/descendant-or-self::node()[self::node() = "x"]'
        dom = dom_evaluate(query, events).node_ids
        assert dom == [0, 1, 2, 3]  # the root itself matches
        for backend in ("expectations", "dfa"):
            got = stream_evaluate(query, events, backend=backend).node_ids
            assert got == dom, backend
        # "/" as a join operand likewise contributes the whole document text.
        operand = "//b[self::node() = /]"
        assert dom_evaluate(operand, events).node_ids == [2]
        for backend in ("expectations", "dfa"):
            assert stream_evaluate(operand, events,
                                   backend=backend).node_ids == [2], backend


class TestInputsAndErrors:
    def test_reverse_axes_rejected(self, figure1):
        with pytest.raises(ReverseAxisStreamingError):
            stream_evaluate("/descendant::price/preceding::name",
                            document_events(figure1))

    def test_relative_path_rejected(self, figure1):
        with pytest.raises(StreamingError):
            stream_evaluate("child::a", document_events(figure1))

    @pytest.mark.parametrize("backend", ["dfa", "expectations"])
    @pytest.mark.parametrize("query", ["child::a", "/child::a | child::b"])
    def test_relative_path_rejected_before_any_event_is_pulled(self, query,
                                                               backend):
        for evaluate in (stream_evaluate, stream_matches):
            with pytest.raises(StreamingError, match="absolute"):
                evaluate(query, pulled_until([StartDocument()], -1),
                         backend=backend)

    def test_results_before_end_of_stream_rejected(self, figure1):
        matcher = session("/descendant::name")
        events = list(document_events(figure1))
        for event in events[:-1]:
            matcher.feed(event)
        with pytest.raises(StreamingError):
            matcher.results()

    @pytest.mark.parametrize("backend", ["dfa", "expectations"])
    @pytest.mark.parametrize("shape", ["before StartDocument",
                                       "after EndDocument",
                                       "EndElement closing the root"])
    def test_events_outside_a_document_are_a_clear_error(self, backend,
                                                         shape):
        # Not a bare IndexError (dfa), not a silent match (expectations),
        # and a stray EndElement must not pop the root entry.
        strays = [StartElement("name", 1), Text("x", 1), EndElement("name", 1)]
        if shape == "EndElement closing the root":
            prefix, strays = [StartDocument()], strays[-1:]
        elif shape == "after EndDocument":
            prefix = [StartDocument(), EndDocument()]
        else:
            prefix = []
        for stray in strays:
            matcher = session("/descendant::name", backend=backend)
            for event in prefix:
                matcher.feed(event)
            with pytest.raises(StreamingError, match="outside a document|"
                                                     "without an open"):
                matcher.feed(stray)

    def test_events_from_xml_text(self):
        result = stream_evaluate("/descendant::name", iter_events(FIGURE1_XML))
        assert len(result) == 2

    def test_stream_matches_boolean(self, figure1):
        assert stream_matches("/descendant::price", document_events(figure1))
        assert not stream_matches("/descendant::missing", document_events(figure1))

    def test_single_queries_leave_the_shared_compile_cache_alone(self,
                                                                figure1):
        before = compile_cache_info()
        stream_evaluate("/descendant::name", document_events(figure1))
        stream_matches("/descendant::name", document_events(figure1))
        assert compile_cache_info() == before

    @pytest.mark.parametrize("backend", ["dfa", "expectations"])
    def test_stream_matches_stops_at_the_deciding_event(self, backend):
        # A verdict is decided at the first match's StartElement: the rest
        # of the 18k-event document is never pulled.
        events = list(document_events(journal_document(journals=200)))
        first_title = next(position for position, event in enumerate(events)
                           if isinstance(event, StartElement)
                           and event.tag == "title")
        assert first_title < 10 and len(events) > 18000
        assert stream_matches("/descendant::title",
                              pulled_until(events, first_title),
                              backend=backend)


class TestDispatchIndex:
    """The tag-indexed expectation dispatch is a pure optimization."""

    QUERIES = (
        "/descendant::name",
        "/child::journal/child::authors/child::name",
        "//name",
        "/descendant::title/following-sibling::price",
        "/descendant::journal[child::price]/child::title",
        "/descendant::name[following::price == /descendant::price]",
        "/descendant::name/child::text()",
        "/child::journal/child::*",
    )

    @pytest.mark.parametrize("query", QUERIES)
    def test_dispatch_agrees_with_dom(self, figure1, query):
        events = list(document_events(figure1))
        assert (stream_evaluate(query, events, backend="expectations").node_ids
                == dom_evaluate(query, events).node_ids)

    def test_named_tests_skip_unrelated_tags(self, catalogue):
        # A single named-test step is only ever checked against elements of
        # that tag: one check per matching start-element.
        events = list(document_events(catalogue))
        result = stream_evaluate("/descendant::price", events,
                                 backend="expectations")
        assert result.stats.expectations_checked == len(result)

    def test_child_expectations_expire_with_their_anchor(self, figure1):
        # /child::journal/child::authors/child::name: once </authors> is
        # seen, the child::name expectation anchored at it must be gone even
        # though the stream continues.
        matcher = session("/child::journal/child::authors/child::name")
        events = list(document_events(figure1))
        from repro.xmlmodel.events import EndElement
        authors_end = next(index for index, event in enumerate(events)
                           if isinstance(event, EndElement)
                           and event.tag == "authors")
        for event in events[:authors_end + 1]:
            matcher.feed(event)
        names = [expectation for expectation in matcher.live_expectations()
                 if expectation.step.node_test.name == "name"]
        assert names == []

    def test_satisfied_existence_sink_unlinks_its_expectations(self, figure1):
        # [descendant::name] resolves at the first name; its expectation is
        # unlinked the moment the sink satisfies, not at some later event.
        matcher = session("/child::journal[descendant::name]")
        events = list(document_events(figure1))
        from repro.xmlmodel.events import StartElement
        first_name = next(index for index, event in enumerate(events)
                          if isinstance(event, StartElement)
                          and event.tag == "name")
        for event in events[:first_name + 1]:
            matcher.feed(event)
        qualifier_expectations = [
            expectation for expectation in matcher.live_expectations()
            if expectation.step.node_test.name == "name"]
        assert qualifier_expectations == []
        assert matcher.process(events[first_name + 1:])[0].node_ids == [1]

    def test_following_sibling_window_pops_with_the_parent(self, figure1):
        # title/following-sibling::price is anchored under journal; when
        # </journal> arrives the sibling window must be dropped.
        matcher = session("/descendant::title/following-sibling::price")
        events = list(document_events(figure1))
        from repro.xmlmodel.events import EndElement
        journal_end = next(index for index, event in enumerate(events)
                           if isinstance(event, EndElement)
                           and event.tag == "journal")
        for event in events[:journal_end + 1]:
            matcher.feed(event)
        siblings = [expectation for expectation in matcher.live_expectations()
                    if expectation.step.node_test.name == "price"]
        assert siblings == []


class TestStatistics:
    def test_stats_are_populated(self, figure1):
        result = stream_evaluate("/descendant::name[following::price]",
                                 document_events(figure1))
        stats = result.stats
        assert stats.events == len(list(document_events(figure1)))
        assert stats.nodes_seen == len(figure1)
        assert stats.max_depth == 3
        assert stats.results == 2
        assert stats.candidates_buffered >= 2
        assert stats.memory_units > 0

    def test_no_document_nodes_are_stored(self, figure1):
        result = stream_evaluate("/descendant::name", document_events(figure1))
        assert result.stats.nodes_stored == 0

    def test_existence_conditions_resolve_eagerly(self):
        # On a wide document, [child::value] conditions resolve as soon as the
        # first value child is seen; buffering must stay small.
        from repro.xmlmodel.generator import wide_document
        doc = wide_document(width=300)
        result = stream_evaluate("/child::collection/child::item[child::value]",
                                 document_events(doc))
        assert len(result) == 300
        assert result.stats.max_live_expectations < 20


class TestInstanceLayout:
    def test_a_session_stays_under_thirty_instance_attributes(self):
        """At 30 instance attributes CPython stops sharing a class's
        instance dict keys, and every ``self.`` lookup on the hot path gets
        slower: a 30th ``MultiMatcher`` attribute measured ~9% off
        ``stream_large_ids`` events/s.  New per-session state belongs on an
        existing object or in a parameter."""
        from repro.streaming import SubstreamDelivery
        index = SubscriptionIndex(['//a[@b = "1"]/c'])
        for backend in ("dfa", "expectations"):
            for delivery in (None, SubstreamDelivery()):
                matcher = index.matcher(backend=backend, delivery=delivery)
                assert len(vars(matcher)) < 30, (
                    f"MultiMatcher has {len(vars(matcher))} instance "
                    "attributes; at 30 CPython's key-sharing instance dicts "
                    "stop applying (measured ~9% slower on the "
                    "stream_large_ids router workload)")
