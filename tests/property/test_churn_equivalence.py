"""Property: live subscription churn is invisible to the results.

For random documents, random query pools, and a random interleaving of
``add_subscription`` / ``remove_subscription`` / ``evaluate`` operations on
one long-lived :class:`SubscriptionIndex`, the final evaluation must equal
a *fresh-compiled* index over the surviving subscription set — three-way,
on both streaming backends and against the DOM reference.  Churn (shared
automaton mutation, targeted DFA invalidation, ordinal retirement, deferred
vacuum) is a pure optimization: it may never change an answer.  Keys
outnumber the pool's queries, so key sets repeat queries: keys on one
compiled path share one member, and churn on them is per key.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.semantics.evaluator import select_positions
from repro.streaming import DocumentBroker, SubscriptionIndex
from repro.xmlmodel.builder import document_events
from repro.xmlmodel.serialize import to_xml

from tests.dense_oracle import (
    DELIVERIES,
    assert_sparse_equals_dense,
    evaluate_checked,
)
from tests.property.strategies import documents, forward_absolute_paths

SETTINGS = dict(deadline=None,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.filter_too_much])

#: One churn script: which keys start registered, then a sequence of
#: (op, key) steps.  Key ``k`` subscribes to ``pool[k % len(pool)]``: with
#: fewer queries than keys, several keys share one query.
churn_scripts = st.lists(
    st.tuples(st.sampled_from(["add", "remove", "evaluate"]),
              st.integers(min_value=0, max_value=7)),
    min_size=1, max_size=12)


def _query(pool, key):
    return pool[key % len(pool)]


def _apply_script(index, script, pool, events):
    """Drive one churn script."""
    for op, key in script:
        if op == "add":
            if key not in {s.key for s in index.subscriptions}:
                index.add_subscription(key, _query(pool, key))
        elif op == "remove":
            try:
                index.remove_subscription(key)
            except KeyError:
                pass
        else:
            # Evaluations between churn steps are what ties the live
            # structures to real matcher state (warm automaton, sessions).
            evaluate_checked(index, events)


@given(document=documents(),
       pool=st.lists(forward_absolute_paths(), min_size=1, max_size=8),
       initial=st.integers(min_value=0, max_value=7),
       script=churn_scripts)
@settings(max_examples=60, **SETTINGS)
def test_churned_index_equals_fresh_index_over_survivors(
        document, pool, initial, script):
    events = list(document_events(document))
    index = SubscriptionIndex(
        {key: _query(pool, key) for key in range(initial)})
    _apply_script(index, script, pool, events)

    survivors = {s.key: _query(pool, s.key) for s in index.subscriptions}
    fresh = SubscriptionIndex(survivors)
    for backend in ("dfa", "expectations"):
        churned_result = evaluate_checked(index, events, backend=backend)
        fresh_result = evaluate_checked(fresh, events, backend=backend)
        assert sorted(churned_result.matching_keys) \
            == sorted(fresh_result.matching_keys), backend
        for key in survivors:
            assert churned_result[key].node_ids \
                == fresh_result[key].node_ids, (backend, key)
            # The DOM reference closes the three-way loop.
            compiled = next(s.path for s in index.subscriptions
                            if s.key == key)
            assert churned_result[key].node_ids == select_positions(
                compiled, document), (backend, key)


@given(document=documents(),
       pool=st.lists(forward_absolute_paths(), min_size=2, max_size=6),
       script=churn_scripts)
@settings(max_examples=30, **SETTINGS)
def test_broker_churn_equals_fresh_broker(document, pool, script):
    """The same invariant one layer up: a churned broker session (sync /
    retirement / rebuild-on-vacuum) answers like a fresh broker."""
    xml = to_xml(document, indent=0)
    broker = DocumentBroker({0: pool[0]})
    broker.submit("warmup", xml)
    for op, key in script:
        if op == "add":
            if key not in {s.key for s in broker.subscriptions}:
                broker.subscribe(key, _query(pool, key))
        elif op == "remove":
            try:
                broker.unsubscribe(key)
            except KeyError:
                pass
        else:
            interleaved = broker.submit("interleaved", xml)
            assert_sparse_equals_dense(broker.session, interleaved)

    survivors = {s.key: _query(pool, s.key) for s in broker.subscriptions}
    churned = broker.submit("final", xml)
    assert_sparse_equals_dense(broker.session, churned)
    fresh = DocumentBroker(survivors).submit("final", xml)
    assert sorted(churned.matching_keys) == sorted(fresh.matching_keys)
    for key in survivors:
        assert churned[key].node_ids == fresh[key].node_ids, key


@given(document=documents(),
       pool=st.lists(forward_absolute_paths(), min_size=3, max_size=6),
       cut=st.floats(min_value=0.0, max_value=1.0),
       drop_late=st.booleans())
@settings(max_examples=30, **SETTINGS)
def test_mid_document_churn_reads_out_like_the_dense_loop(
        document, pool, cut, drop_late):
    """Ordinals retired mid-document and subscriptions added before the
    session's ``sync`` (one of them retired again at once: an ordinal the
    session never carried): the sparse result equals the dense readout, in
    every delivery mode on both backends — and so does the next document's,
    after ``sync`` + ``reset``, which also equals a fresh index's."""
    events = list(document_events(document))
    split = int(len(events) * cut)
    for backend in ("dfa", "expectations"):
        for delivery in DELIVERIES:
            # vacuum_ratio=1: removals never remap ordinals under the session.
            index = SubscriptionIndex(dict(enumerate(pool[:-1])),
                                      vacuum_ratio=1.0)
            matcher = index.matcher(backend=backend, delivery=delivery())
            for event in events[:split]:
                matcher.feed(event)
            index.remove_subscription(0)
            index.add_subscription("late", pool[-1])
            index.add_subscription("later", pool[0])
            if drop_late:
                index.remove_subscription("late")
            for event in events[split:]:
                matcher.feed(event)
            result = matcher.results()
            assert_sparse_equals_dense(matcher, result)
            assert [row.key for row in result] == list(range(1, len(pool) - 1))

            matcher.sync()
            matcher.reset()
            following = matcher.process(events)
            assert_sparse_equals_dense(matcher, following)
            fresh = SubscriptionIndex(
                {s.key: s.source for s in index.subscriptions}
            ).evaluate(events, backend=backend, delivery=delivery())
            assert following.results == fresh.results


@given(document=documents(), query=forward_absolute_paths(),
       replacement=forward_absolute_paths())
@settings(max_examples=40, **SETTINGS)
def test_remove_then_readd_same_key(document, query, replacement):
    """Deterministic churn corner: a key freed by removal is immediately
    reusable, and the re-registration answers for its *new* query with a
    fresh ordinal (no delivery leakage from the retired one)."""
    events = list(document_events(document))
    index = SubscriptionIndex({"k": query, "other": query})
    index.evaluate(events)
    index.remove_subscription("k")
    index.add_subscription("k", replacement)
    result = index.evaluate(events)
    reference = SubscriptionIndex({"k": replacement}).evaluate(events)
    assert result["k"].node_ids == reference["k"].node_ids
    assert result["k"].matched == reference["k"].matched
    assert result["k"].node_ids == select_positions(
        next(s.path for s in index.subscriptions if s.key == "k"), document)
