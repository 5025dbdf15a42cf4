"""Property: substream payloads equal the DOM evaluator's answer subtrees.

For random documents and random subscription batches, the substream
delivery mode must hand every subscription exactly the bytes you would get
by evaluating its query on the fully built DOM and re-serializing each
answer subtree in document order — regardless of the structural backend
(lazy DFA vs expectation engine) and regardless of how the document's XML
text is chunked on its way into the broker (the tee operates on the event
stream, after tokenization).

The documents are serialized and re-parsed first and the oracle runs on
the *re-parsed* event stream: the generator may produce adjacent text
siblings, which any parse legally merges, so node ids are only comparable
on the canonical stream the broker itself will see.

Value tests ``[. = "v"]`` / ``["v" = .]`` on a final element step are only
decided when the element closes, after its start tag went by: their
payloads must still span the whole element.  The batches mix them in on
elements (mixed content, nested text, escaped characters, empty elements)
and on text, attribute and root carriers.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.streaming import (
    DocumentBroker,
    SubscriptionIndex,
    SubstreamDelivery,
)
from repro.streaming.dom_baseline import dom_evaluate
from repro.xmlmodel.builder import document_events
from repro.xmlmodel.document import Document, element, text
from repro.xmlmodel.events import EndElement, StartElement, Text
from repro.xmlmodel.parser import parse_xml
from repro.xmlmodel.serialize import escape_text, to_xml
from repro.xmlmodel.stream_serialize import serialize_events
from repro.xpath.cache import QueryCache

from tests.property.strategies import (
    TAGS,
    TEXTS,
    documents,
    forward_absolute_paths,
    reverse_absolute_paths,
)

SETTINGS = dict(deadline=None,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.filter_too_much])

BACKENDS = ("dfa", "expectations")
CHUNK_SIZES = (1, 7, 64, 10_000)

#: Character data of the value-test documents: escaped on the wire.
VALUE_TEXTS = TEXTS + ("a&b", "x<y")
#: Literals: single texts, concatenations (mixed content, nested text) and
#: the empty string (empty elements).
LITERALS = VALUE_TEXTS + ("", "xy", "xyz", "xa&b", "yx<y")
VALUE_SHAPES = (
    '//{t}[. = "{v}"]',
    '//{t}["{v}" = .]',
    '/descendant::{t}/descendant-or-self::*[. = "{v}"]',
    '//{t}[@id]["{v}" = .]',
    '//{t}/text()[. = "{v}"]',
    '//{t}/@id[. = "{v}"]',
    '/self::node()[. = "{v}"]',
)


def value_tests(literals=st.sampled_from(LITERALS)):
    return st.builds(lambda shape, tag, value: shape.format(t=tag, v=value),
                     st.sampled_from(VALUE_SHAPES),
                     st.sampled_from(TAGS + ("*",)), literals)

forward_batches = st.lists(st.one_of(forward_absolute_paths(), value_tests()),
                           min_size=1, max_size=3)
reverse_batches = st.lists(reverse_absolute_paths(), min_size=1, max_size=2)
value_documents = documents(texts=VALUE_TEXTS, attributes=True)


@st.composite
def value_cases(draw):
    """A document and value tests whose literals mostly are string values
    of its own nodes, so that most tests select something."""
    document = draw(value_documents)
    present = sorted({node.text_content() for node in document.nodes})
    literals = st.one_of(st.sampled_from(present), st.sampled_from(LITERALS))
    return document, draw(st.lists(value_tests(literals), min_size=1,
                                   max_size=4))


def _answer_bytes(events, node_id):
    """Serialize one DOM answer node straight from the event stream:
    an element's payload is its whole subtree, a text node's the escaped
    character data, an attribute's the escaped value."""
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


def payload_oracle(events, node_ids):
    """The substream payload of ``node_ids``: their answer bytes, in
    document order."""
    return b"".join(_answer_bytes(events, nid) for nid in sorted(node_ids))


def _chunked(xml_text, size):
    return [xml_text[start:start + size]
            for start in range(0, len(xml_text), size)]


def _assert_substream_equals_dom(document, queries):
    xml_text = to_xml(document, indent=0)
    canonical = list(document_events(parse_xml(xml_text)))
    index = SubscriptionIndex(cache=QueryCache())
    for position, query in enumerate(queries):
        index.add(query, key=position)
    expected = {
        position: payload_oracle(canonical,
                          dom_evaluate(index.subscriptions[position].path,
                                       canonical).node_ids)
        for position in range(len(queries))
    }
    for backend in BACKENDS:
        for chunk_size in CHUNK_SIZES:
            broker = DocumentBroker(index, backend=backend,
                                    delivery=SubstreamDelivery())
            result = broker.submit("doc", _chunked(xml_text, chunk_size))
            for position, query in enumerate(queries):
                assert result[position].payload == expected[position], (
                    backend, chunk_size, query)
            session = broker.session
            assert session.registry_sizes()["open_capture_windows"] == 0


@given(document=st.one_of(documents(), value_documents),
       queries=forward_batches)
@settings(max_examples=30, **SETTINGS)
def test_substream_equals_dom_answer_subtrees(document, queries):
    _assert_substream_equals_dom(document, queries)


@given(case=value_cases())
@settings(max_examples=30, **SETTINGS)
def test_substream_equals_dom_on_value_tests(case):
    """Only value tests, on documents where their literals occur."""
    _assert_substream_equals_dom(*case)


def test_a_value_test_decided_at_the_close_captures_the_whole_element():
    """``//b[. = "x"]`` is decided at ``</b>``; the payload is still
    ``<b>x</b>``, beside a start-tag match on the same element."""
    document = Document.from_tree(element(
        "a", element("b", text("x")), element("b", element("c", text("x"))),
        element("b"), element("b", text("y"), element("b", text("x")))))
    _assert_substream_equals_dom(document, [
        '//b[. = "x"]', '//b["" = .]', "//b", '//b[. = "yx"]',
        '//*[. = "x"]', '/self::node()[. = "xxyx"]'])


@given(document=documents(), queries=reverse_batches)
@settings(max_examples=15, **SETTINGS)
def test_substream_equals_dom_after_reverse_axis_rewriting(document, queries):
    """Reverse-axis subscriptions are rewritten on entry; the payloads must
    still be the rewritten query's DOM answers, byte for byte."""
    _assert_substream_equals_dom(document, queries)


def test_overlapping_and_nested_matches_share_one_tee_buffer():
    """Deterministic companion to the property: descendant-recursive
    matches (a inside a inside a) plus sibling overlap, all captured in
    one pass, every payload independently correct, tee fully disengaged
    afterwards."""
    document = Document.from_tree(element(
        "a",
        element("a", element("b", text("x")), element("a", text("y"))),
        element("b", element("a", text("z"))),
        attributes={"id": "r"}))
    queries = ["//a", "//b", "//a/a", "/a/@id", "/descendant::text()"]
    _assert_substream_equals_dom(document, queries)
    # The nested payloads are literally substrings of the outermost match.
    events = list(document_events(document))
    index = SubscriptionIndex()
    for position, query in enumerate(queries):
        index.add(query, key=position)
    result = index.evaluate(events, delivery=SubstreamDelivery())
    outer = _answer_bytes(events, result[0].node_ids[0])
    for node_id in result[2].node_ids:  # every //a/a sits inside the root a
        assert _answer_bytes(events, node_id) in outer
