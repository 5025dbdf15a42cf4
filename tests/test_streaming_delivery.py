"""Unit tests for the emission layer (repro.streaming.delivery).

Covers the three delivery modes end to end — verdicts, node ids, and
substream payload extraction — plus the shared single-pass tee mechanics:
overlapping windows sharing one region by reference, per-slice render
caching, leaf (text/attribute) captures, whole-document root captures,
streaming-callback routing order, deferred emission behind undecided
conditions, and the broker-level plumbing (the ``delivery`` parameter,
payload accounting, the ``history_limit=0`` retention edge).
"""

import inspect

import pytest

from repro.semantics.evaluator import select_positions
from repro.streaming import (
    DocumentBroker,
    MultiMatcher,
    NodeIdDelivery,
    SubscriptionIndex,
    SubstreamDelivery,
    VerdictDelivery,
)
from repro.streaming.delivery import SubtreeTee, resolve_delivery
from repro.xmlmodel.builder import document_events
from repro.xmlmodel.document import Document, element, text
from repro.xmlmodel.events import EndElement, StartElement, Text
from repro.xmlmodel.parser import iter_events, parse_xml
from repro.xmlmodel.serialize import escape_text, to_xml
from repro.xmlmodel.stream_serialize import serialize_events
from repro.xpath.parser import parse_xpath

BACKENDS = ("dfa", "expectations")


def _catalogue() -> Document:
    return Document.from_tree(element(
        "catalog",
        element("journal", element("title", text("a&b")),
                element("article",
                        element("authors", element("name", text("anna")),
                                element("name", text("bo")))),
                attributes={"tier": "gold"}),
        element("journal", element("title", text("late")),
                attributes={"tier": "silver"}),
        element("price", text("9"))))


def _subtree_bytes(events, node_id):
    """Reference payload for one matched node, computed independently of
    the tee: element -> its event slice re-serialized, text/attribute ->
    the escaped value, document root -> the whole stream."""
    if node_id == 0:
        return serialize_events(events)
    for position, event in enumerate(events):
        if isinstance(event, Text) and event.node_id == node_id:
            return escape_text(event.value).encode()
        if not isinstance(event, StartElement):
            continue
        if event.node_id == node_id:
            depth = 0
            for offset in range(position, len(events)):
                follower = events[offset]
                if isinstance(follower, StartElement):
                    depth += 1
                elif isinstance(follower, EndElement):
                    depth -= 1
                    if depth == 0:
                        return serialize_events(events[position:offset + 1])
        elif (event.attributes
              and event.node_id < node_id
              <= event.node_id + len(event.attributes)):
            value = event.attributes[node_id - event.node_id - 1][1]
            return escape_text(value).encode()
    raise AssertionError(f"no node {node_id} in the stream")


def _expected_payload(events, node_ids):
    return b"".join(_subtree_bytes(events, nid) for nid in sorted(node_ids))


class TestResolveDelivery:
    def test_default_is_node_ids(self):
        assert isinstance(resolve_delivery(), NodeIdDelivery)

    def test_explicit_delivery_passes_through(self):
        delivery = SubstreamDelivery()
        assert resolve_delivery(delivery) is delivery
        assert delivery.captures and not delivery.matches_only

    def test_rejects_non_delivery(self):
        with pytest.raises(TypeError):
            resolve_delivery("substream")

    @pytest.mark.parametrize("entry_point", [
        MultiMatcher, SubscriptionIndex.matcher, SubscriptionIndex.evaluate,
        DocumentBroker, resolve_delivery], ids=lambda f: f.__qualname__)
    def test_delivery_is_the_only_spelling(self, entry_point):
        parameters = inspect.signature(entry_point).parameters
        assert "delivery" in parameters
        assert not {"matches_only", "on_payload"} & set(parameters)


class TestSubtreeTee:
    """The shared buffer mechanics, exercised directly."""

    def test_disengaged_tee_buffers_nothing(self):
        tee = SubtreeTee()
        tee.element_start(StartElement("a", 1), [])
        tee.text(Text("x", 2))
        assert tee.element_end(EndElement("a", 1)) == ()
        # The zero-cost idle property: no window ever opened, no region
        # was ever allocated, nothing was retained.
        assert tee.region is None and tee.open_windows == 0

    def test_nested_windows_share_one_region_by_reference(self):
        tee = SubtreeTee()
        tee.element_start(StartElement("outer", 1), [(0, object())])
        region = tee.region
        tee.element_start(StartElement("inner", 2), [(1, object())])
        assert tee.region is region  # no second buffer for the overlap
        (inner,) = tee.element_end(EndElement("inner", 2))
        (outer,) = tee.element_end(EndElement("outer", 1))
        assert inner.region is outer.region is region
        assert outer.render() == b"<outer><inner /></outer>"
        assert inner.render() == b"<inner />"
        # Last window closed: the tee disengaged again.
        assert tee.region is None and tee.open_windows == 0

    def test_two_claims_on_one_element_share_a_slice_rendering(self):
        tee = SubtreeTee()
        tee.element_start(StartElement("a", 1),
                          [(0, object()), (1, object())])
        tee.text(Text("payload", 2))
        first, second = tee.element_end(EndElement("a", 1))
        assert first.region is second.region
        assert (first.start, first.end) == (second.start, second.end)
        # render() memoizes per slice: the very same bytes object.
        assert first.render() is second.render()

    def test_rewind_forgets_everything(self):
        tee = SubtreeTee()
        tee.element_start(StartElement("a", 1), [(0, object())])
        tee.rewind()
        assert tee.region is None and tee.open_windows == 0
        assert tee.element_end(EndElement("a", 1)) == ()


@pytest.mark.parametrize("backend", BACKENDS)
class TestSubstreamEvaluation:
    def test_payloads_equal_independent_subtree_serialization(self, backend):
        events = list(document_events(_catalogue()))
        index = SubscriptionIndex()
        index.add("//journal", key="journals")
        index.add("//authors", key="authors")
        index.add("//authors/name", key="names")
        index.add("//journal/@tier", key="tiers")
        index.add("/", key="whole")
        index.add("//missing", key="nobody")
        result = index.evaluate(events, backend=backend,
                                delivery=SubstreamDelivery())
        plain = index.evaluate(events, backend=backend)
        for sub in result:
            # Node ids are byte-for-byte the legacy answer...
            assert sub.node_ids == plain[sub.key].node_ids
            # ...and the payload is exactly those subtrees, serialized,
            # in document order.
            assert sub.payload == _expected_payload(events, sub.node_ids)
        assert result["nobody"].payload == b""
        # Overlap sanity: the journal payload contains the nested ones.
        assert result["authors"].payload in result["journals"].payload
        assert result["whole"].payload == serialize_events(events)

    def test_node_id_mode_carries_no_payload_and_no_tee(self, backend):
        events = list(document_events(_catalogue()))
        index = SubscriptionIndex()
        index.add("//journal", key="journals")
        matcher = index.matcher(backend=backend)
        assert matcher._tee is None  # substream machinery never engaged
        result = matcher.process(events)
        assert result["journals"].payload is None
        assert result.stats.subtrees_emitted == 0
        assert result.stats.bytes_emitted == 0

    def test_callback_mode_streams_in_close_order(self, backend):
        events = list(document_events(_catalogue()))
        index = SubscriptionIndex()
        index.add("//journal", key="journals")
        index.add("//authors", key="authors")
        calls = []
        result = index.evaluate(
            events, backend=backend,
            delivery=SubstreamDelivery(
                on_payload=lambda key, nid, data:
                calls.append((key, nid, data))))
        # Streamed: nothing buffered on the results.
        assert all(sub.payload is None for sub in result)
        # Windows close innermost-first: authors before its journal.
        assert [key for key, _, _ in calls] == ["authors", "journals",
                                                "journals"]
        for key, node_id, data in calls:
            assert data == _subtree_bytes(events, node_id)

    def test_deferred_condition_gates_emission(self, backend):
        # [following::price] is undecidable when the title closes; the
        # capture must be held back and settled at end of stream.
        index = SubscriptionIndex()
        index.add("/descendant::title[following::price]", key="titles")
        with_price = list(document_events(_catalogue()))
        result = index.evaluate(with_price, backend=backend,
                                delivery=SubstreamDelivery())
        assert result["titles"].matched
        assert result["titles"].payload == _expected_payload(
            with_price, result["titles"].node_ids)
        without_price = list(document_events(Document.from_tree(
            element("catalog", element("journal",
                                       element("title", text("t")))))))
        held = index.evaluate(without_price, backend=backend,
                              delivery=SubstreamDelivery())
        assert not held["titles"].matched
        assert held["titles"].payload == b""

    def test_stats_and_registry_account_for_captures(self, backend):
        events = list(document_events(_catalogue()))
        index = SubscriptionIndex()
        index.add("//journal", key="journals")
        index.add("//title", key="titles")
        matcher = index.matcher(backend=backend,
                                delivery=SubstreamDelivery())
        result = matcher.process(events)
        emitted = sum(len(sub.node_ids) for sub in result)
        assert result.stats.subtrees_emitted == emitted
        assert result.stats.bytes_emitted == sum(len(sub.payload)
                                                 for sub in result)
        row = result.stats.as_row()
        assert row["subtrees_emitted"] == emitted
        assert row["bytes_emitted"] == result.stats.bytes_emitted
        # Every capture window closed by end of document.
        assert matcher.registry_sizes()["open_capture_windows"] == 0

    def test_session_reuse_resets_payload_buffers(self, backend):
        index = SubscriptionIndex()
        index.add("//title", key="titles")
        matcher = index.matcher(backend=backend,
                                delivery=SubstreamDelivery())
        first = matcher.process(document_events(_catalogue()))
        assert first["titles"].payload
        matcher.reset()
        small = list(document_events(Document.from_tree(
            element("catalog", element("journal",
                                       element("title", text("solo")))))))
        second = matcher.process(small)
        # Only the second document's subtrees — nothing leaked across.
        assert second["titles"].payload == _expected_payload(
            small, second["titles"].node_ids)
        assert second.stats.subtrees_emitted == 1


class TestFlushMidCapture:
    """A DFA cache flush while a capture window is open must preserve the
    open ``SubtreeTee`` region: the tee is matcher state, and the flush
    forgets only automaton state (the run keeps the states it holds).
    """

    N_TAGS = 120  # enough distinct tags to overflow the floor cache bound

    def _workload(self):
        xml = ("<root><wrap>"
               + "".join(f"<t{i}>x{i}</t{i}>" for i in range(self.N_TAGS))
               + "</wrap></root>")
        events = list(iter_events(xml))
        subscriptions = {f"s{i}": f"//t{i}" for i in range(self.N_TAGS)}
        # The ancestor capture: its window spans every flush below.
        subscriptions["wrap"] = "//wrap"
        return events, subscriptions

    def _run(self, events, subscriptions, backend, cap=None):
        kwargs = {} if cap is None else {"dfa_transition_cap": cap}
        index = SubscriptionIndex(subscriptions, **kwargs)
        return index.evaluate(events, backend=backend,
                              delivery=SubstreamDelivery())

    def test_payload_identical_across_forced_flushes(self):
        events, subscriptions = self._workload()
        flushed = self._run(events, subscriptions, "dfa", cap=2)
        # The tiny cap really did force wholesale flushes mid-document,
        # i.e. while <wrap>'s capture region was open.
        assert flushed.stats.transition_cache_flushed > 0
        for reference_backend, cap in (("dfa", None), ("expectations", None)):
            reference = self._run(events, subscriptions,
                                  reference_backend, cap=cap)
            assert reference.stats.transition_cache_flushed == 0
            assert flushed["wrap"].payload == reference["wrap"].payload
            for i in (0, self.N_TAGS // 2, self.N_TAGS - 1):
                assert (flushed[f"s{i}"].payload
                        == reference[f"s{i}"].payload), i

    def test_payload_matches_independent_serialization(self):
        events, subscriptions = self._workload()
        flushed = self._run(events, subscriptions, "dfa", cap=2)
        assert flushed["wrap"].payload == _expected_payload(
            events, flushed["wrap"].node_ids)

    def test_targeted_invalidation_mid_capture(self):
        # Live churn's targeted invalidation is the other way cached DFA
        # state goes away; an open capture must survive it just the same.
        # Pinned to the dfa backend: only the automaton has a cache to flush.
        events, subscriptions = self._workload()
        index = SubscriptionIndex(subscriptions)
        baseline = index.evaluate(events, backend="dfa",
                                  delivery=SubstreamDelivery())
        index.add_subscription("late", "//t0/inner")
        assert index.churn.targeted_flushes > 0
        after = index.evaluate(events, backend="dfa",
                               delivery=SubstreamDelivery())
        assert after["wrap"].payload == baseline["wrap"].payload


class TestVerdictDelivery:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_equivalent_to_matches_only(self, backend):
        events = list(document_events(_catalogue()))
        index = SubscriptionIndex()
        index.add("//journal", key="journals")
        index.add("//missing", key="nobody")
        via_delivery = index.evaluate(events, backend=backend,
                                      delivery=VerdictDelivery())
        matching = index.matching(events, backend=backend)
        for key in ("journals", "nobody"):
            assert via_delivery[key].matched == (key in matching)
            assert via_delivery[key].node_ids == []
            assert via_delivery[key].payload is None


class TestBrokerDelivery:
    def _chunks(self, document):
        xml_text = to_xml(document, indent=0)
        return [xml_text[i:i + 48] for i in range(0, len(xml_text), 48)]

    def test_buffered_substream_through_chunked_submit(self):
        index = SubscriptionIndex()
        index.add("//journal", key="journals")
        index.add("//journal/@tier", key="tiers")
        broker = DocumentBroker(index, delivery=SubstreamDelivery())
        doc = _catalogue()
        result = broker.submit("doc-1", self._chunks(doc))
        events = list(document_events(doc))
        for sub in result:
            assert sub.payload == _expected_payload(events, sub.node_ids)
        assert broker.stats.subtrees_emitted == sum(
            len(sub.node_ids) for sub in result)
        assert broker.stats.bytes_emitted == sum(
            len(sub.payload) for sub in result)

    def test_on_payload_shorthand_accumulates_across_documents(self):
        index = SubscriptionIndex()
        index.add("//title", key="titles")
        mailbox = []
        broker = DocumentBroker(
            index, delivery=SubstreamDelivery(
                on_payload=lambda key, nid, data: mailbox.append((key, data))))
        broker.submit("doc-1", self._chunks(_catalogue()))
        broker.submit("doc-2", self._chunks(_catalogue()))
        assert len(mailbox) == 4  # two titles per document
        assert all(key == "titles" for key, _ in mailbox)
        assert broker.stats.subtrees_emitted == 4
        assert broker.stats.bytes_emitted == sum(len(d) for _, d in mailbox)

    def test_history_limit_zero_disables_retention(self):
        # The eviction edge: maxlen=0 keeps *no* records while the
        # aggregate stats keep accumulating normally.
        broker = DocumentBroker({"titles": "//title"}, history_limit=0)
        broker.submit("doc-1", self._chunks(_catalogue()))
        broker.submit("doc-2", self._chunks(_catalogue()))
        assert broker.history == []
        assert broker.stats.documents == 2
        assert broker.stats.deliveries == 2

    def test_history_limit_none_is_unbounded(self):
        broker = DocumentBroker({"titles": "//title"}, history_limit=None)
        for number in range(5):
            broker.submit(f"doc-{number}", self._chunks(_catalogue()))
        assert [record.document_id for record in broker.history] == \
               [f"doc-{number}" for number in range(5)]


#: Named descendant-or-self chains past the automaton's alternative cap
#: (see tests/test_streaming_automaton.py): the automaton cannot carry such
#: a member and hands it whole to the expectation engine at a root gate.
DOS_CHAIN_65 = "/descendant-or-self::a" * 65


class TestExplosionMembersThroughTheServingPath:
    """Members past the alternative cap, served by a churning broker: every
    delivery mode on both backends must equal the DOM evaluator."""

    DOCUMENTS = (
        "<a><a><b>x</b></a><a><c/></a><b/></a>",
        "<r><a><c><a><b>y</b></a></c></a><a/><b/></r>",
        "<a><c><a><b/></a></c><b>z</b></a>",
    )

    def _check(self, broker, mode, name, text, queries):
        result = broker.submit(name, text)
        document = parse_xml(text)
        events = list(iter_events(text))
        assert sorted(r.key for r in result) == sorted(queries)
        for key, query in queries.items():
            expected = select_positions(parse_xpath(query), document)
            assert result[key].matched == bool(expected), (name, key)
            if mode == "verdict":
                continue
            assert result[key].node_ids == expected, (name, key)
            if mode == "substream":
                assert result[key].payload == _expected_payload(
                    events, expected), (name, key)
        sizes = broker.session.registry_sizes()
        assert all(size == 0 for size in sizes.values()), (name, sizes)

    @pytest.mark.parametrize("mode", ["verdict", "ids", "substream"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_results_equal_dom_across_churn(self, backend, mode):
        delivery = {"verdict": VerdictDelivery, "ids": NodeIdDelivery,
                    "substream": SubstreamDelivery}[mode]()
        queries = {
            "chain": DOS_CHAIN_65,
            "union": f"/a | {DOS_CHAIN_65}",
            "qualified": f"{DOS_CHAIN_65}[child::b]",
            "plain": "//b",
        }
        broker = DocumentBroker(SubscriptionIndex(dict(queries)),
                                backend=backend, delivery=delivery)
        first, second, third = self.DOCUMENTS
        self._check(broker, mode, "first", first, queries)
        session = broker.session
        broker.unsubscribe("chain")
        del queries["chain"]
        self._check(broker, mode, "second", second, queries)
        queries["rechained"] = f"{DOS_CHAIN_65}/child::b"
        broker.subscribe("rechained", queries["rechained"])
        self._check(broker, mode, "third", third, queries)
        # Served by one warm session throughout: no rebuild, no vacuum.
        assert broker.session is session
        assert broker.index.churn.vacuum_runs == 0
