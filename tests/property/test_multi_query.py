"""Property: the multi-subscription engine equals independent evaluation.

For random documents and random query batches, every subscription's result
from :class:`SubscriptionIndex`/:class:`MultiMatcher` must be identical to
an independent :func:`stream_evaluate` run of the same (compiled) query —
node ids and match verdicts alike.  This is the contract that makes the
shared-trie engine a pure optimization.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.streaming import (
    SubscriptionIndex,
    VerdictDelivery,
    stream_evaluate,
)
from repro.xmlmodel.builder import document_events
from repro.xpath.cache import QueryCache

from tests.property.strategies import (
    documents,
    forward_absolute_paths,
    reverse_absolute_paths,
)

SETTINGS = dict(deadline=None,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.filter_too_much])

forward_batches = st.lists(forward_absolute_paths(), min_size=1, max_size=5)
reverse_batches = st.lists(reverse_absolute_paths(), min_size=1, max_size=3)


@given(document=documents(), queries=forward_batches)
@settings(max_examples=200, **SETTINGS)
def test_multi_matcher_equals_independent_runs(document, queries):
    events = list(document_events(document))
    index = SubscriptionIndex(cache=QueryCache())
    for position, query in enumerate(queries):
        index.add(query, key=position)
    result = index.evaluate(events)
    assert len(result) == len(queries)
    for position, query in enumerate(queries):
        independent = stream_evaluate(
            index.subscriptions[position].path, events)
        assert result[position].node_ids == independent.node_ids, query
        assert result[position].matched == independent.matched, query


@given(document=documents(), queries=reverse_batches)
@settings(max_examples=50, **SETTINGS)
def test_multi_matcher_equals_independent_runs_after_rewriting(document, queries):
    """Reverse-axis subscriptions are rewritten on entry; results still agree."""
    events = list(document_events(document))
    index = SubscriptionIndex(cache=QueryCache())
    for position, query in enumerate(queries):
        index.add(query, key=position)
    result = index.evaluate(events)
    for position, query in enumerate(queries):
        compiled = index.subscriptions[position].path
        independent = stream_evaluate(compiled, events)
        assert result[position].node_ids == independent.node_ids, query


@given(document=documents(), queries=forward_batches)
@settings(max_examples=50, **SETTINGS)
def test_matches_only_verdicts_equal_stream_matches(document, queries):
    """The SDI fast path decides exactly the same verdicts as a full
    node-ids evaluation (not as ``stream_matches``, itself a verdict
    session)."""
    events = list(document_events(document))
    index = SubscriptionIndex(cache=QueryCache())
    for position, query in enumerate(queries):
        index.add(query, key=position)
    verdicts = index.evaluate(events, delivery=VerdictDelivery())
    for position, query in enumerate(queries):
        expected = stream_evaluate(index.subscriptions[position].path,
                                   events).matched
        assert verdicts[position].matched == expected, query
