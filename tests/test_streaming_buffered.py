"""Unit tests of the pruned-buffer baseline (repro.streaming.buffered)."""

from repro.streaming import buffered_evaluate, dom_evaluate
from repro.xmlmodel.builder import document_events
from repro.xmlmodel.document import Document, element, text
from repro.xmlmodel.events import StartElement


def _events(tree):
    return list(document_events(Document.from_tree(tree)))


class TestPruning:
    def test_text_is_dropped_when_the_path_cannot_observe_it(self):
        events = _events(element("a", element("b", text("hello")),
                                 element("b", text("world"))))
        result = buffered_evaluate("/descendant::b", events)
        # Both text nodes are pruned from the buffer but still counted as seen.
        assert result.stats.nodes_stored == result.stats.nodes_seen - 2
        assert len(result.node_ids) == 2

    def test_text_is_kept_for_text_node_tests(self):
        events = _events(element("a", element("b", text("hello"))))
        result = buffered_evaluate("/descendant::text()", events)
        assert result.stats.nodes_stored == result.stats.nodes_seen
        assert len(result.node_ids) == 1

    def test_text_is_kept_for_value_joins(self):
        events = _events(element("a", element("b", text("x")),
                                 element("c", text("x"))))
        result = buffered_evaluate(
            "/descendant::b[self::node() = /descendant::c]", events)
        assert result.stats.nodes_stored == result.stats.nodes_seen
        assert len(result.node_ids) == 1

    def test_pruned_results_use_original_node_ids(self):
        # Text nodes shift element positions; the pruned buffer must map its
        # positions back to the original stream's ids.
        tree = element("a", text("pad"), element("b"), text("pad"),
                       element("b"))
        events = _events(tree)
        pruned = buffered_evaluate("/descendant::b", events)
        dom = dom_evaluate("/descendant::b", events)
        assert pruned.node_ids == dom.node_ids


class TestBufferAccounting:
    def test_nodes_stored_is_the_buffer_high_water_mark(self):
        events = _events(element("a", element("b"), element("c")))
        result = buffered_evaluate("/descendant::*", events)
        # Structural nodes are all kept: root + 3 elements.
        assert result.stats.nodes_stored == 4
        assert result.stats.memory_units >= result.stats.nodes_stored

    def test_reverse_axes_are_supported(self):
        events = _events(element("a", element("b", element("c"))))
        result = buffered_evaluate("/descendant::c/ancestor::b", events)
        dom = dom_evaluate("/descendant::c/ancestor::b", events)
        assert result.node_ids == dom.node_ids != []

    def test_events_counter(self):
        events = _events(element("a", element("b", text("t"))))
        result = buffered_evaluate("/descendant::b", events)
        assert result.stats.events == len(events)


class TestEdgeCases:
    def test_single_element_document(self):
        events = _events(element("a"))
        result = buffered_evaluate("/child::a", events)
        assert result.node_ids == [1]
        assert result.stats.nodes_stored == 2   # root + the element
        assert result.stats.results == 1

    def test_single_element_no_match(self):
        events = _events(element("a"))
        result = buffered_evaluate("/child::b", events)
        assert result.node_ids == []
        assert not result.matched

    def test_root_only_query(self):
        events = _events(element("a"))
        result = buffered_evaluate("/", events)
        assert result.node_ids == [0]


class EndowedStartElement(StartElement):
    """A StartElement subclass whose class name starts with ``End``.

    Regression guard: event classification used to rely on
    ``hasattr(event, "tag")`` plus ``__class__.__name__.startswith("End")``,
    which misclassified an event like this one as a closing tag and silently
    corrupted the pruned-buffer id mapping.  The ``isinstance`` checks must
    classify by type, not by name.
    """


class TestEventClassification:
    def test_start_element_subclasses_classified_by_type_not_name(self):
        events = _events(element("a", text("pad"), element("b"), element("b")))
        renamed = [
            EndowedStartElement(tag=event.tag, node_id=event.node_id)
            if type(event) is StartElement else event
            for event in events
        ]
        plain = buffered_evaluate("/descendant::b", events)
        subclassed = buffered_evaluate("/descendant::b", renamed)
        assert subclassed.node_ids == plain.node_ids != []
        # A subclass is a different event: equal fields do not make it equal.
        assert renamed[1] != events[1] and renamed[1].tag == events[1].tag
