"""Property: attribute qualifiers answer exactly what the DOM evaluator does.

Attribute-only qualifiers — ``[@a]``, ``[@*]``, ``[@a = "v"]``,
``["v" = @a]`` and ``and`` / ``or`` combinations of them — are decided from
the carrier's start tag.  This suite pins that decision against
:func:`~repro.streaming.dom_baseline.dom_evaluate` wherever such a
qualifier can stand:

* on spine steps, beside non-attribute qualifiers in the same step
  (``[child::y]``, ``[. = "v"]``) and mixed into one ``and`` / ``or``;
* inside nested qualifiers (``//x[child::y[@a = "v"]]``);
* after ``self::`` and ``descendant-or-self::`` anchors;
* on carriers without attributes: text nodes, attribute nodes and the
  document root.

Beside them stand value tests ``[. = "v"]`` / ``["v" = .]``: on a final
element step they are decided at the element's close, so the substream
payloads (compared byte for byte with the DOM answers) must still span the
whole element.  Documents carry attribute values and text written with
entity and character references, mixed content and empty elements, and
each is fed whole and split into chunks, through both backends and every
delivery.  A subscription that joins mid-document over already
materialized DFA states shows from the next document on.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.streaming import DocumentBroker, SubscriptionIndex
from repro.streaming.dom_baseline import dom_evaluate
from repro.xmlmodel.parser import iter_events
from repro.xpath.cache import QueryCache

from tests.dense_oracle import DELIVERIES, assert_sparse_equals_dense
from tests.property.test_substream_extraction import payload_oracle

SETTINGS = dict(deadline=None,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.filter_too_much])

COMPILE_CACHE = QueryCache(maxsize=4096)

TAGS = ("x", "y", "z")
NAMES = ("a", "b")
#: Attribute values, and how each may be spelled in the markup.
SPELLINGS = {
    "v": ("v", "&#118;", "&#x76;"),
    "w": ("w",),
    "a&b": ("a&amp;b", "a&#38;b"),
    "x<y": ("x&lt;y", "x&#60;y"),
}
VALUES = tuple(SPELLINGS)


# ---------------------------------------------------------------------------
# Documents
# ---------------------------------------------------------------------------

@st.composite
def _attributes(draw):
    names = [name for name in NAMES if draw(st.booleans())]
    return "".join(
        ' {}="{}"'.format(name, draw(st.sampled_from(
            SPELLINGS[draw(st.sampled_from(VALUES))])))
        for name in names)


def _element(depth, min_children=0):
    children = (st.lists(st.one_of(st.deferred(lambda: _element(depth - 1)),
                                   st.sampled_from(("v", "w", "&#118;",
                                                    "a&amp;b"))),
                         min_size=min_children, max_size=4)
                if depth else st.just([]))
    return st.builds(lambda tag, attributes, kids:
                     f"<{tag}{attributes}>{''.join(kids)}</{tag}>",
                     st.sampled_from(TAGS), _attributes(), children)


documents = _element(3, min_children=2)


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------

def _literal(value):
    return f'"{value}"'


attribute_leaves = st.one_of(
    st.sampled_from(NAMES).map(lambda name: f"@{name}"),
    st.just("@*"),
    st.tuples(st.sampled_from(NAMES + ("*",)), st.sampled_from(VALUES)).map(
        lambda pair: f"@{pair[0]} = {_literal(pair[1])}"),
    st.tuples(st.sampled_from(VALUES), st.sampled_from(NAMES)).map(
        lambda pair: f"{_literal(pair[0])} = @{pair[1]}"))

attribute_predicates = st.recursive(
    attribute_leaves,
    lambda inner: st.tuples(inner, st.sampled_from(("and", "or")), inner).map(
        lambda parts: f"({parts[0]} {parts[1]} {parts[2]})"),
    max_leaves=4)

#: String values a node of these documents may have, ``""`` for empty ones.
STRING_VALUES = ("v", "w", "vw", "", "a&b")

other_qualifiers = st.one_of(
    st.sampled_from(TAGS).map(lambda tag: f"child::{tag}"),
    st.sampled_from(STRING_VALUES).map(
        lambda value: f". = {_literal(value)}"),
    st.sampled_from(STRING_VALUES).map(
        lambda value: f"{_literal(value)} = ."),
    st.sampled_from(TAGS).map(lambda tag: f"descendant::{tag}[@a]"))

#: One qualifier: attribute-only, other, or the two mixed in one formula.
qualifiers = st.one_of(
    attribute_predicates,
    other_qualifiers,
    st.tuples(attribute_predicates, st.sampled_from(("and", "or")),
              other_qualifiers).map(
        lambda parts: f"{parts[0]} {parts[1]} {parts[2]}"))

#: The qualifier list of one step, attribute-only and other ones side by side.
qualifier_lists = st.lists(qualifiers, min_size=1, max_size=2).map(
    lambda quals: "".join(f"[{qual}]" for qual in quals))

tags = st.sampled_from(TAGS + ("*",))

#: Where the qualifier list ``Q`` stands.
POSITIONS = (
    "//{t}{q}",
    "//{t}{q}/child::{u}",
    "/descendant::{t}{q}/descendant::{u}",
    "//{t}[child::{u}{q}]",
    "//{t}[descendant::{u}{q}/child::*]",
    "//{t}/self::*{q}",
    "//{t}/self::{u}{q}/child::node()",
    "//{t}/descendant-or-self::*{q}",
    "//{t}[self::*{q}]",
    "//{t}/text(){q}",
    "//{t}/@a{q}",
    "/self::node(){q}//{t}",
    "/self::node(){q}",
    "//{t}/following-sibling::{u}{q}",
)

queries = st.builds(lambda position, t, u, q: position.format(t=t, u=u, q=q),
                    st.sampled_from(POSITIONS), tags, tags, qualifier_lists)


# ---------------------------------------------------------------------------
# The check
# ---------------------------------------------------------------------------

def _chunks(text, cuts):
    bounds = sorted({0, len(text), *(cut % (len(text) + 1) for cut in cuts)})
    return [text[start:stop] for start, stop in zip(bounds, bounds[1:])]


def _assert_rows_match_dom(broker, result, expected, keys, events):
    assert_sparse_equals_dense(broker.session, result)
    delivery = broker.session._delivery
    for key in keys:
        row = result[key]
        assert row.matched == bool(expected[key]), key
        if not delivery.matches_only:
            assert row.node_ids == expected[key], key
        if delivery.captures and delivery.on_payload is None:
            assert row.payload == payload_oracle(events, expected[key]), key


def _assert_every_run_matches_dom(document, batch, cuts):
    """Both backends, every delivery, the document whole and in chunks."""
    events = list(iter_events(document))
    index = SubscriptionIndex(dict(enumerate(batch)), cache=COMPILE_CACHE)
    expected = {subscription.key: dom_evaluate(subscription.path,
                                               events).node_ids
                for subscription in index.subscriptions}
    for backend in ("dfa", "expectations"):
        for delivery in DELIVERIES:
            broker = DocumentBroker(index, backend=backend,
                                    delivery=delivery())
            for feed in (document, _chunks(document, cuts)):
                result = broker.submit("doc", feed)
                _assert_rows_match_dom(broker, result, expected, expected,
                                       events)
    return expected


@given(document=documents,
       batch=st.lists(queries, min_size=1, max_size=4),
       cuts=st.lists(st.integers(min_value=0, max_value=400), max_size=3))
@settings(max_examples=150, **SETTINGS)
def test_attribute_qualifiers_match_the_dom_evaluator(document, batch, cuts):
    _assert_every_run_matches_dom(document, batch, cuts)


#: Every position crossed with every predicate shape, on documents where
#: each shape both holds and fails somewhere.
SWEEP_DOCUMENTS = (
    '<x a="v" b="a&amp;b"><y a="&#118;">v<z b="x&lt;y"/></y>'
    '<y b="w"><x a="x&#60;y">w</x></y>v'
    '<z a="a&#38;b" b="&#x76;"><x/><y a="v" b="v"/></z></x>',
    '<z><x a="w"><y a="v" b="v">w</y></x><x a="v" b="a&amp;b"><y/>v</x>'
    '<y a="x&lt;y"><x b="v"><z a="v">v</z></x></y></z>',
)
SWEEP_QUALIFIERS = (
    "[@a]", "[@*]", '[@a = "v"]', '["a&b" = @b]', '[@* = "x<y"]',
    '[@a = "v"][@b]', '[(@a = "w" or @b = "v") and @*]',
    '[@a = "v" and @b = "v"]', "[@b][child::y]", '[@a = "v"][. = "v"]',
    '[@a = "x<y" or child::z]', '["v" = @a][descendant::z[@b]]',
    '["vw" = .]', '[@b][. = ""]',
)


def test_every_position_and_shape_matches_the_dom_evaluator():
    batch = [position.format(t=t, u="y", q=qualifiers)
             for position in POSITIONS for t in ("x", "*")
             for qualifiers in SWEEP_QUALIFIERS]
    for document in SWEEP_DOCUMENTS:
        expected = _assert_every_run_matches_dom(document, batch, [17, 60])
        # The sweep is only as strong as its hits.
        assert sum(map(bool, expected.values())) > len(batch) // 3


@given(document=documents, late=queries,
       cut=st.integers(min_value=0, max_value=400))
@settings(max_examples=50, **SETTINGS)
def test_a_late_subscription_shows_from_the_next_document(document, late,
                                                          cut):
    """The late query shares the warm DFA states of the standing ones (same
    spine tags, other qualifiers); it joins between two chunks and must be
    answered, exactly, from the next document on."""
    events = list(iter_events(document))
    standing = {f"s{position}": query.format(t=tag)
                for position, (query, tag) in enumerate(
                    (query, tag) for query in ("//{t}[child::*]",
                                               "//{t}/self::*[@a]",
                                               "//{t}/text()")
                    for tag in TAGS + ("*",))}
    cut %= len(document) + 1
    for delivery in DELIVERIES:
        broker = DocumentBroker(SubscriptionIndex(standing,
                                                  cache=COMPILE_CACHE),
                                backend="dfa", delivery=delivery())
        broker.submit("warm-up", document)

        def churned():
            yield document[:cut]
            broker.subscribe("late", late)
            yield document[cut:]

        expected = {subscription.key: dom_evaluate(subscription.path,
                                                   events).node_ids
                    for subscription in broker.subscriptions}
        during = broker.submit("during", churned())
        assert "late" not in during.by_key
        _assert_rows_match_dom(broker, during, expected, standing, events)
        expected["late"] = dom_evaluate(
            broker.index.subscriptions[-1].path, events).node_ids
        after = broker.submit("after", document)
        _assert_rows_match_dom(broker, after, expected, expected, events)
