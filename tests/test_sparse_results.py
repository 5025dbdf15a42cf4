"""Per-document cost is O(matches), not O(N) — pinned as counts, never as
timings — and a returned :class:`MultiMatchResult` is a value.

At N=5000 a submit builds one ``SubscriptionResult`` per *matching*
subscription, ``reset()`` visits only the result sinks the document touched,
and between documents nothing is left behind anywhere.  The sparse result
synthesizes its unmatched rows on first access; whatever is read from it,
and whenever, later documents and churn on the same broker cannot change it.
"""

import pytest

from repro.errors import XMLSyntaxError
from repro.streaming import (
    DocumentBroker,
    NodeIdDelivery,
    SubscriptionIndex,
    VerdictDelivery,
    matcher,
)
from repro.streaming.matcher import MultiMatcher, _Sink
from repro.xmlmodel.parser import iter_events

from tests.dense_oracle import DELIVERIES

N = 5000
#: 4990 structural subscriptions and ten behind an attribute qualifier.
QUERIES = {**{f"s{i}": f"//s{i}" for i in range(N - 10)},
           **{f"g{i}": f"//g{i}[@on]" for i in range(10)}}

#: k -> (document, matching keys in ordinal order, sinks touched).  The k=7
#: document also reaches ``g7`` without the attribute: its ``[@on]`` is
#: decided false on the start tag, so nothing is delivered or touched.
DOCUMENTS = {
    0: ("<r><zz/><s5000/></r>", [], 0),
    1: ("<r><zz/><s42>text</s42></r>", ["s42"], 1),
    7: ('<r><s4000/><g5 on="1"/><s17/><g7 off="1"/><s3><s99/></s3>'
        '<g0 on="1"/><s1234/><s17/></r>',
        ["s3", "s17", "s99", "s1234", "s4000", "g0", "g5"], 7),
}


@pytest.fixture(scope="module")
def big_index():
    return SubscriptionIndex(QUERIES)


@pytest.fixture
def rows_built(monkeypatch):
    """Counts every ``SubscriptionResult`` the engine constructs."""
    class Counted(matcher.SubscriptionResult):
        built = 0

        def __init__(self, *args, **kwargs):
            Counted.built += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(matcher, "SubscriptionResult", Counted)
    return Counted


class _CountingList(list):
    """The touched list, counting the sinks an iteration hands out."""

    visited = 0

    def __iter__(self):
        for sink in list.__iter__(self):
            self.visited += 1
            yield sink


def _count_reset_visits(session):
    touched = _CountingList(session._touched)
    session._touched = touched
    for sink in session._sinks:
        sink.touched = touched
    return touched


def assert_nothing_left_behind(session):
    sizes = session.registry_sizes()
    assert all(size == 0 for size in sizes.values()), sizes
    assert session._touched == [] and not session._satisfied
    assert all(not sink.entries and not sink.satisfied
               for sink in session._sinks)


@pytest.mark.parametrize("delivery", [VerdictDelivery, NodeIdDelivery])
@pytest.mark.parametrize("k", sorted(DOCUMENTS))
def test_submit_builds_a_row_per_match_and_reset_visits_the_touched(
        big_index, backend, delivery, k, rows_built):
    document, matching, touched_sinks = DOCUMENTS[k]
    broker = DocumentBroker(big_index, backend=backend, delivery=delivery())
    broker.submit("warm-up", DOCUMENTS[7][0])
    session = broker.session
    touched = _count_reset_visits(session)

    rows_built.built = 0
    result = broker.submit("counted", document)
    assert rows_built.built == k
    assert result.matching_keys == matching
    assert [row.key for row in result.matched_results] == matching
    assert len(result) == N and rows_built.built == k
    assert broker.history[-1].matched_keys == tuple(matching)
    assert len(touched) == touched_sinks

    # The unmatched rows exist from the first read of ``results`` on.
    assert len(result.results) == N and rows_built.built == N
    assert result.results is result.results
    assert [row.key for row in result if row.matched] == matching

    touched.visited = 0
    session.reset()
    assert touched.visited == touched_sinks
    assert_nothing_left_behind(session)


@pytest.mark.parametrize("delivery", [VerdictDelivery, NodeIdDelivery])
def test_a_submit_that_raised_mid_document_leaves_nothing_behind(
        big_index, backend, delivery, rows_built):
    broker = DocumentBroker(big_index, backend=backend, delivery=delivery())
    broker.submit("warm-up", DOCUMENTS[0][0])      # touches no sink
    session = broker.session
    touched = _count_reset_visits(session)
    with pytest.raises(XMLSyntaxError):
        # The first chunk is fed — and delivers — before the second fails.
        broker.submit("broken", ['<r><s3/><g0 on="1"/><g7/>', "<s17></r>"])
    assert broker.session is session        # salvaged, not rebuilt
    assert touched.visited == 2
    assert_nothing_left_behind(session)

    document, matching, touched_sinks = DOCUMENTS[7]
    rows_built.built = 0
    result = broker.submit("after", document)
    assert rows_built.built == 7 and result.matching_keys == matching
    assert len(touched) == touched_sinks


# ---------------------------------------------------------------------------
# A returned result is a value
# ---------------------------------------------------------------------------

SUBSCRIPTIONS = {
    "names": "//name",
    "priced": "//item[@price]/name",
    "absent": "//nosuchtag",
    "second": "//item[@id = '2']",
}
FIRST = ('<feed><item id="1" price="3"><name>a</name></item>'
         '<item id="2"><name>b</name></item></feed>')
SECOND = "<feed><item id='9'><other/></item></feed>"

def _views(result):
    return (list(result.results), result.matching_keys, len(result),
            dict(result.by_key), result.matched_results,
            [row.key for row in result])


def _reachable(thing, seen):
    """Everything ``thing`` holds on to through containers and attributes."""
    if id(thing) in seen:
        return
    seen.add(id(thing))
    yield thing
    if isinstance(thing, dict):
        held = list(thing) + list(thing.values())
    elif isinstance(thing, (list, tuple, set, frozenset)):
        held = thing
    else:
        held = getattr(thing, "__dict__", {}).values()
    for item in held:
        yield from _reachable(item, seen)


@pytest.mark.parametrize("read_before_churn", [True, False])
@pytest.mark.parametrize("delivery", DELIVERIES)
def test_a_result_is_a_value_under_later_documents_and_churn(
        backend, delivery, read_before_churn):
    expected = _views(SubscriptionIndex(SUBSCRIPTIONS).evaluate(
        list(iter_events(FIRST)), backend=backend, delivery=delivery()))
    assert expected[1] == ["names", "priced", "second"]

    broker = DocumentBroker(SUBSCRIPTIONS, backend=backend,
                            delivery=delivery())
    first = broker.submit("first", FIRST)
    if read_before_churn:
        assert _views(first) == expected

    broker.submit("second", SECOND)
    broker.unsubscribe("names")
    broker.subscribe("late", "//item")
    broker.submit("third", FIRST)
    assert broker.index.vacuum() == 1
    broker.submit("fourth", SECOND)

    assert _views(first) == expected
    assert not any(isinstance(thing, (_Sink, MultiMatcher))
                   for thing in _reachable(first, set()))
