"""The dense readout ``MultiMatcher.results()`` had before it went sparse,
kept as the reference the sparse :class:`MultiMatchResult` is compared with.

It walks *every* subscription and its member's sink — one row per live
subscription, matched or not — straight off the finished session, so it knows nothing of
the touched-sink list.  Call it after ``results()`` (which settles deferred
captures) and before the session is reset or the index churned again.
"""

from typing import List

from repro.streaming import (
    MultiMatcher,
    MultiMatchResult,
    NodeIdDelivery,
    SubscriptionResult,
    SubstreamDelivery,
    VerdictDelivery,
)

#: Every answer shape, as factories: verdict, ids, substream buffered on the
#: rows, substream streamed to a callback (the rows then carry ``None``).
DELIVERIES = (VerdictDelivery, NodeIdDelivery, SubstreamDelivery,
              lambda: SubstreamDelivery(on_payload=lambda *payload: None))


def dense_readout(matcher: MultiMatcher) -> List[SubscriptionResult]:
    delivery = matcher._delivery
    buffered_payloads = delivery.captures and delivery.on_payload is None
    member_of = {subscription.ordinal: member
                 for member, keys in enumerate(matcher._members)
                 for subscription in keys}
    rows = []
    for subscription in matcher._subscriptions:
        if subscription.ordinal in matcher._retired:
            continue
        member = member_of[subscription.ordinal]
        sink = matcher._sinks[member]
        if delivery.matches_only:
            node_ids = []
            matched = sink.nonempty()
        else:
            node_ids = sorted({entry.node_id for entry in sink.entries
                               if entry.holds()})
            matched = bool(node_ids)
        payload = None
        if buffered_payloads:
            chunks = matcher._payloads.get(member)
            payload = (b"".join(chunks[node_id] for node_id in sorted(chunks))
                       if chunks else b"")
        rows.append(SubscriptionResult(key=subscription.key,
                                       query=subscription.source,
                                       matched=matched, node_ids=node_ids,
                                       payload=payload))
    return rows


def assert_sparse_equals_dense(matcher: MultiMatcher,
                               result: MultiMatchResult) -> None:
    """Every view of the sparse result against the dense loop.  The
    O(matches) views are read first, before ``results`` materializes."""
    dense = dense_readout(matcher)
    matched = [row for row in dense if row.matched]
    assert result.matching_keys == [row.key for row in matched]
    assert result.matched_results == matched
    assert len(result) == len(dense)
    assert result.results == dense
    assert list(result) == dense
    assert result.by_key == {row.key: row for row in dense}


def evaluate_checked(index, events, backend=None,
                     delivery=None) -> MultiMatchResult:
    """``SubscriptionIndex.evaluate`` with the dense comparison applied."""
    matcher = index.matcher(backend=backend, delivery=delivery)
    result = matcher.process(events)
    assert_sparse_equals_dense(matcher, result)
    return result
