"""Three-way differential property: lazy DFA == expectations == DOM.

The lazy-DFA backend (:mod:`repro.streaming.automaton`) must be a pure
optimization: for *every* document and *every* subscription pool, its match
sets and per-subscription verdicts have to coincide with the expectation
engine's — and both with the DOM baseline, which evaluates the same compiled
path on the materialized tree.  This suite drives all three over

* hypothesis-generated documents and query batches (attribute-free and
  attribute-bearing),
* the deterministic :func:`repro.workloads.queries.differential_query_pool`
  (structurally decided spines, qualifier gates, ``following`` fallbacks,
  attribute tests and value comparisons, absolute-path joins, unions) over
  ``random_document``/``item_feed_document`` pools — 300+ query cases
  independent of the hypothesis profile,

and additionally pins the session-reuse contract of the DFA backend: a
broker session leaves every engine registry empty between documents and the
shared automaton's DFA state count stays stable across ``reset()`` once the
transition table is warm.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.streaming import (
    DocumentBroker,
    NodeIdDelivery,
    SubscriptionIndex,
    SubstreamDelivery,
    VerdictDelivery,
)
from repro.streaming.dom_baseline import dom_evaluate
from repro.workloads.queries import (
    attribute_subscription_workload,
    differential_query_pool,
)
from repro.xmlmodel.builder import document_events
from repro.xmlmodel.generator import item_feed_document, random_document
from repro.xmlmodel.parser import iter_events
from repro.xmlmodel.serialize import to_xml
from repro.xpath.cache import QueryCache

from tests.dense_oracle import assert_sparse_equals_dense, evaluate_checked
from tests.property.strategies import documents, forward_absolute_paths

SETTINGS = dict(deadline=None,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.filter_too_much])

#: One compile cache for the whole suite: the pools repeat queries, and
#: compilation (parse + rewrite) is not what this suite tests.
COMPILE_CACHE = QueryCache(maxsize=4096)

#: Deterministic pools covering every dispatch regime (see module docstring).
MIXED_POOL = differential_query_pool(120, seed=3)
ATTRIBUTE_POOL = attribute_subscription_workload(60, seed=5, item_ids=12)

query_batches = st.lists(
    st.one_of(forward_absolute_paths(),
              st.sampled_from(MIXED_POOL),
              st.sampled_from(ATTRIBUTE_POOL)),
    min_size=1, max_size=4)

attribute_documents = st.builds(
    lambda seed, probability: random_document(
        attribute_probability=probability, text_probability=0.3, seed=seed),
    st.integers(min_value=0, max_value=200),
    st.sampled_from([0.0, 0.4, 0.8]))

feed_documents = st.builds(
    lambda items, seed: item_feed_document(items=items, seed=seed),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=50))


def assert_three_way(document, queries):
    """DFA == expectations == DOM, match sets and verdicts alike — and every
    sparse result equal to the dense readout of its session
    (``evaluate_checked``), in all three delivery modes."""
    events = list(document_events(document))
    index = SubscriptionIndex(cache=COMPILE_CACHE)
    for position, query in enumerate(queries):
        index.add(query, key=position)
    dfa = evaluate_checked(index, events, backend="dfa")
    expectations = evaluate_checked(index, events, backend="expectations")
    for position, query in enumerate(queries):
        dom = dom_evaluate(index.subscriptions[position].path, events)
        assert dfa[position].node_ids == expectations[position].node_ids \
            == dom.node_ids, query
        assert dfa[position].matched == expectations[position].matched \
            == dom.matched, query
    dfa_verdicts = evaluate_checked(index, events, delivery=VerdictDelivery(),
                                    backend="dfa")
    exp_verdicts = evaluate_checked(index, events, delivery=VerdictDelivery(),
                                    backend="expectations")
    for position, query in enumerate(queries):
        assert dfa_verdicts[position].matched \
            == exp_verdicts[position].matched \
            == dfa[position].matched, query
    # Substream: payloads buffered on the rows, or streamed to a callback
    # (the rows then carry ``None``).
    for backend in ("dfa", "expectations"):
        buffered = evaluate_checked(index, events, backend=backend,
                                    delivery=SubstreamDelivery())
        streamed = evaluate_checked(
            index, events, backend=backend,
            delivery=SubstreamDelivery(on_payload=lambda *payload: None))
        for position, query in enumerate(queries):
            assert buffered[position].node_ids \
                == streamed[position].node_ids \
                == dfa[position].node_ids, (backend, query)
            assert streamed[position].payload is None


@given(document=documents(), queries=query_batches)
@settings(max_examples=100, **SETTINGS)
def test_three_way_equivalence_on_random_documents(document, queries):
    assert_three_way(document, queries)


@given(document=attribute_documents, queries=query_batches)
@settings(max_examples=100, **SETTINGS)
def test_three_way_equivalence_on_attribute_documents(document, queries):
    assert_three_way(document, queries)


@given(document=feed_documents,
       queries=st.lists(st.sampled_from(ATTRIBUTE_POOL + MIXED_POOL),
                        min_size=1, max_size=4))
@settings(max_examples=60, **SETTINGS)
def test_three_way_equivalence_on_item_feeds(document, queries):
    assert_three_way(document, queries)


def test_three_way_equivalence_deterministic_pool():
    """300+ generated query cases, independent of the hypothesis profile.

    Every query of the mixed pool (plus a slice of the attribute workload)
    is checked on two document shapes — query by query, so a failure names
    the exact case.
    """
    pool = differential_query_pool(120, seed=9) + ATTRIBUTE_POOL[:30]
    docs = [random_document(attribute_probability=0.5, text_probability=0.3,
                            max_depth=4, seed=17),
            item_feed_document(items=10, seed=23)]
    cases = 0
    for document in docs:
        events = list(document_events(document))
        index = SubscriptionIndex(cache=COMPILE_CACHE)
        for position, query in enumerate(pool):
            index.add(query, key=position)
        dfa = index.evaluate(events, backend="dfa")
        expectations = index.evaluate(events, backend="expectations")
        for position, query in enumerate(pool):
            dom = dom_evaluate(index.subscriptions[position].path, events)
            assert dfa[position].node_ids == expectations[position].node_ids \
                == dom.node_ids, (query, document is docs[0])
            cases += 1
    assert cases == 2 * len(pool) >= 300


@given(document=st.one_of(attribute_documents, feed_documents),
       split=st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=25, **SETTINGS)
def test_flushes_inside_events_change_nothing(document, split):
    """The smallest cache bound flushes *inside* events, while the run still
    holds states the automaton has forgotten — and a subscription arrives
    mid-document on top.  Every delivery mode must answer exactly as a
    broker with room to spare, and as the DOM evaluator."""
    pool = dict(enumerate(MIXED_POOL + ATTRIBUTE_POOL))
    late_query = "//item[@id]/following-sibling::*"
    text = to_xml(document, indent=0)
    cut = int(len(text) * split)
    events = list(iter_events(text))
    for delivery in (VerdictDelivery, NodeIdDelivery, SubstreamDelivery):
        brokers = [DocumentBroker(SubscriptionIndex(pool, cache=COMPILE_CACHE,
                                                    dfa_transition_cap=cap),
                                  backend="dfa", delivery=delivery())
                   for cap in (16, 65536)]

        def churned(broker):
            yield text[:cut]
            broker.subscribe("late", late_query)
            yield text[cut:]

        # The add takes effect at the session's next document: the second
        # submit is the one that reports "late".
        for chunks in (churned, lambda broker: [text]):
            tiny, roomy = (broker.submit("doc", chunks(broker))
                           for broker in brokers)
            # "late" was added before the session's sync: no row yet.
            assert_sparse_equals_dense(brokers[0].session, tiny)
            assert_sparse_equals_dense(brokers[1].session, roomy)
            # Until its first flush the tiny cache fills exactly like the
            # roomy one, so a roomy cache past 16 entries means it flushed.
            figures = brokers[1].session._automaton_run.automaton.describe()
            if figures["dfa_states"] + figures["transitions_cached"] > 16:
                assert brokers[0].session._automaton_run.automaton.describe()[
                    "flushes"]
            assert figures["flushes"] == 0
            paths = {subscription.key: subscription.path
                     for subscription in brokers[0].subscriptions}
            assert [result.key for result in tiny] \
                == [result.key for result in roomy]
            for result in tiny:
                dom = dom_evaluate(paths[result.key], events)
                assert result == roomy[result.key], result.query
                assert result.matched == dom.matched, result.query
                if delivery is not VerdictDelivery:
                    assert result.node_ids == dom.node_ids, result.query
        assert "late" in tiny.by_key


class TestBrokerSessionReuse:
    """Registry emptiness and DFA state stability across reset()."""

    QUERIES = differential_query_pool(40, seed=11)

    def _documents(self):
        return [random_document(attribute_probability=0.5,
                                text_probability=0.3, seed=seed)
                for seed in range(4)]

    def test_registries_empty_and_state_count_stable(self):
        index = SubscriptionIndex(dict(enumerate(self.QUERIES)),
                                  cache=COMPILE_CACHE)
        broker = DocumentBroker(index, backend="dfa")
        docs = self._documents()
        counts = []
        for round_index, document in enumerate(docs + docs):
            text = to_xml(document, indent=0)
            result = broker.submit(f"doc-{round_index}", text)
            fresh = index.evaluate(list(iter_events(text)), backend="dfa")
            for position in range(len(self.QUERIES)):
                assert result[position].node_ids == fresh[position].node_ids
            sizes = broker.session.registry_sizes()
            assert all(size == 0 for size in sizes.values()), sizes
            counts.append(broker.session.dfa_state_count())
        # The first pass may materialize states; the second pass re-serves
        # the same documents through the reused session and must not — the
        # automaton is warm, reset() keeps it.
        warm = counts[len(docs) - 1]
        assert counts[len(docs):] == [warm] * len(docs)

    def test_warm_session_runs_entirely_from_the_transition_cache(self):
        index = SubscriptionIndex(dict(enumerate(self.QUERIES)),
                                  cache=COMPILE_CACHE)
        broker = DocumentBroker(index, backend="dfa")
        text = to_xml(self._documents()[0], indent=0)
        broker.submit("cold", text)
        warm = broker.submit("warm", text)
        stats = warm.stats
        assert stats.dfa_states_materialized == 0
        assert stats.transition_cache_hits == stats.transition_cache_lookups
        assert stats.transition_cache_lookups > 0
