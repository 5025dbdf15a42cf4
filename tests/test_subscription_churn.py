"""Deterministic tests of live subscription churn (the acceptance contract).

The churn API's performance promise is structural, so these tests assert it
structurally: below the documented thresholds an ``add_subscription`` costs
one *targeted* DFA invalidation (the automaton object, its materialized
states, and the warmed transitions of untouched states all survive), a
``remove_subscription`` costs no recompilation at all, and only crossing
``vacuum_ratio`` triggers the deferred rebuild.  The new
:class:`~repro.streaming.stats.ChurnStats` counters are the witness.

Tests that assert automaton internals (targeted flushes, warm transition
caches, ``describe()``) pin ``backend="dfa"`` explicitly so the suite also
passes under ``REPRO_STREAMING_BACKEND=expectations`` — the expectation
engine has no cache to flush, so churn there is just a version bump.
"""

import pytest

from repro.errors import StreamingError
from repro.streaming import (
    DocumentBroker,
    SubscriptionIndex,
    SubstreamDelivery,
    VerdictDelivery,
    dom_evaluate,
)
from repro.xmlmodel.parser import iter_events

N = 80  # large enough that one add touches well under TARGETED_FLUSH_RATIO


def _index(**kwargs):
    return SubscriptionIndex({f"s{i}": f"//t{i}" for i in range(N)}, **kwargs)


def _document():
    xml = ("<root>" + "".join(f"<t{i}>x</t{i}>" for i in range(N)) + "</root>")
    return list(iter_events(xml))


class TestIncrementalAdd:
    def test_add_triggers_targeted_not_full_invalidation(self):
        index = _index()
        events = _document()
        index.evaluate(events, backend="dfa")  # warm the automaton
        automaton = index._automaton
        for i in range(5):
            index.add_subscription(f"extra{i}", f"//t{i}/inner")
        churn = index.churn
        assert churn.subscriptions_added == 5
        assert churn.targeted_flushes == 5
        assert churn.full_flushes == 0
        assert churn.vacuum_runs == 0
        # The world was not recompiled: same automaton object, no parts drop.
        assert index._automaton is automaton

    def test_warm_transitions_of_untouched_states_survive(self):
        index = _index()
        events = _document()
        index.evaluate(events, backend="dfa")
        warm = index.evaluate(events, backend="dfa")
        assert warm.stats.transition_cache_hits == \
            warm.stats.transition_cache_lookups
        index.add_subscription("extra", "//t0/inner")
        after = index.evaluate(events, backend="dfa")
        # Only the touched fragment's states recompute; the bulk of the
        # table stays warm (strictly more hits than cold, near-warm total).
        assert after.stats.transition_cache_hits \
            > after.stats.transition_cache_lookups // 2

    def test_add_before_first_build_is_not_an_invalidation(self):
        index = _index()
        index.add_subscription("extra", "//late")
        assert index.churn.subscriptions_added == 1
        assert index.churn.targeted_flushes == 0
        assert index.churn.full_flushes == 0

    def test_duplicate_key_rejected_and_uncounted(self):
        index = _index()
        with pytest.raises(ValueError):
            index.add_subscription("s0", "//dup")
        assert index.churn.subscriptions_added == 0

    def test_results_after_add_include_the_new_subscription(self):
        index = _index()
        events = _document()
        index.evaluate(events)
        index.add_subscription("t5again", "//t5")
        result = index.evaluate(events)
        assert result["t5again"].matched
        assert result["t5again"].node_ids == result["s5"].node_ids


class TestRetirementAndVacuum:
    def test_remove_below_ratio_does_not_recompile(self):
        index = _index()
        events = _document()
        index.evaluate(events, backend="dfa")
        automaton = index._automaton
        removed = int(N * index._vacuum_ratio) - 1
        for i in range(removed):
            index.remove_subscription(f"s{i}")
        assert index.churn.vacuum_runs == 0
        assert index._automaton is automaton
        assert len(index) == N - removed
        assert index.retired_count == removed
        result = index.evaluate(events)
        assert "s0" not in result.by_key
        assert result[f"s{removed}"].matched

    def test_crossing_the_ratio_vacuums(self):
        index = _index()
        index.evaluate(_document())
        goal = int(N * index._vacuum_ratio) + 1
        for i in range(goal):
            index.remove_subscription(f"s{i}")
        assert index.churn.vacuum_runs == 1
        assert index.retired_count == 0  # reclaimed
        assert len(index) == N - goal
        # Ordinals were remapped densely.
        assert [s.ordinal for s in index.subscriptions] \
            == list(range(N - goal))

    def test_explicit_vacuum_reports_reclaimed(self):
        index = _index(vacuum_ratio=1.0)  # never automatic
        index.remove_subscription("s0")
        index.remove_subscription("s1")
        assert index.churn.vacuum_runs == 0
        assert index.vacuum() == 2
        assert index.churn.vacuum_runs == 1
        assert index.vacuum() == 0  # idempotent on a clean index

    def test_unknown_key_raises_keyerror(self):
        index = _index()
        with pytest.raises(KeyError):
            index.remove_subscription("nope")

    def test_vacuumed_matcher_must_be_rebuilt(self):
        index = _index(vacuum_ratio=0.0)  # vacuum on every remove
        events = _document()
        matcher = index.matcher()
        matcher.process(events)
        index.remove_subscription("s0")
        assert index.churn.vacuum_runs == 1
        with pytest.raises(StreamingError, match="vacuumed"):
            matcher.reset()
        with pytest.raises(StreamingError, match="vacuumed"):
            matcher.sync()
        # A fresh matcher serves the compacted index.
        result = index.matcher().process(events)
        assert len(result) == N - 1


class TestLiveSessions:
    def test_removal_takes_effect_mid_document(self):
        index = _index()
        events = _document()
        matcher = index.matcher()
        half = len(events) // 2
        for event in events[:half]:
            matcher.feed(event)
        index.remove_subscription(f"s{N - 1}")  # matches late in the doc
        for event in events[half:]:
            matcher.feed(event)
        result = matcher.results()
        assert not any(sub.key == f"s{N - 1}" for sub in result)

    def test_mid_document_add_takes_effect_next_document(self):
        index = _index()
        events = _document()
        matcher = index.matcher()
        half = len(events) // 2
        for event in events[:half]:
            matcher.feed(event)
        index.add_subscription("late", "//t1")
        for event in events[half:]:
            matcher.feed(event)
        result = matcher.results()
        # This document: the session predates the add and does not carry it.
        assert not any(sub.key == "late" for sub in result)
        # Next document, after a sync: delivered.
        matcher.sync()
        matcher.reset()
        follow_up = matcher.process(events)
        assert follow_up["late"].matched

    @pytest.mark.parametrize("backend", ["dfa", "expectations"])
    def test_matches_only_sessions_follow_churn(self, backend):
        index = _index()
        events = _document()
        matcher = index.matcher(delivery=VerdictDelivery(), backend=backend)
        matcher.process(events)
        index.add_subscription("late", "//t2")
        index.remove_subscription("s3")
        matcher.sync()
        matcher.reset()
        result = matcher.process(events)
        assert result["late"].matched
        assert "s3" not in result.by_key
        assert result["s4"].matched


class TestChurnStatsPlumbing:
    def test_as_row_round_trips(self):
        index = _index()
        index.evaluate(_document())
        index.add_subscription("extra", "//t0/inner")
        index.remove_subscription("s1")
        row = index.churn.as_row()
        assert row["subscriptions_added"] == 1
        assert row["subscriptions_removed"] == 1
        assert row["targeted_flushes"] == index.churn.targeted_flushes
        assert set(row) == {"subscriptions_added", "subscriptions_removed",
                            "targeted_flushes", "full_flushes",
                            "vacuum_runs"}

    def test_describe_reports_invalidations(self):
        index = _index()
        index.evaluate(_document(), backend="dfa")
        index.add_subscription("extra", "//t0/inner")
        description = index._automaton.describe()
        assert description["targeted_invalidations"] == 1
        assert description["full_invalidations"] == 0


class TestBrokerSessionAmortization:
    def test_session_survives_a_whole_churn_storm(self):
        broker = DocumentBroker({f"s{i}": f"//t{i}" for i in range(N)})
        xml = "<root>" + "".join(f"<t{i}/>" for i in range(N)) + "</root>"
        broker.submit("warmup", xml)
        session = broker.session
        for i in range(5):
            broker.subscribe(f"extra{i}", f"//t{i}/inner")
        broker.submit("mid", xml)
        assert broker.session is session  # synced, not rebuilt
        broker.unsubscribe("s0")
        result = broker.submit("final", xml)
        assert broker.session is session  # retirement needs no rebuild
        assert "s0" not in result.by_key
        assert result["s1"].matched


#: Keys on one compiled path share one member; churn is per key.
SHARED = "/descendant::t[child::u]"
SHARED_XML = "<root><t><u/></t><v/><t>x</t><t>y<u/></t></root>"


def _assert_clean(matcher):
    assert set(matcher.registry_sizes().values()) == {0}


class TestSharedMembers:
    def _session(self, backend, keys, **kwargs):
        index = SubscriptionIndex({key: SHARED for key in keys},
                                  vacuum_ratio=1.0, **kwargs)
        return index, index.matcher(backend=backend)

    def _answer(self):
        return dom_evaluate(SHARED, list(iter_events(SHARED_XML))).node_ids

    def test_unsubscribe_one_of_two_keys_mid_document(self, backend):
        events = list(iter_events(SHARED_XML))
        index, matcher = self._session(backend, ("a", "b"))
        for event in events[:4]:
            matcher.feed(event)
        index.remove_subscription("a")
        for event in events[4:]:
            matcher.feed(event)
        result = matcher.results()
        _assert_clean(matcher)
        assert "a" not in result.by_key and result.matching_keys == ["b"]
        assert result["b"].node_ids == self._answer() != []
        assert index.sharing_summary()["members"] == 1
        matcher.sync()
        matcher.reset()
        assert matcher.process(events)["b"].node_ids == self._answer()
        _assert_clean(matcher)

    def test_key_joining_a_member_mid_document(self, backend):
        events = list(iter_events(SHARED_XML))
        index, matcher = self._session(backend, ("a",))
        automaton = index._automaton
        for event in events[:4]:
            matcher.feed(event)
        index.add_subscription("b", SHARED)
        for event in events[4:]:
            matcher.feed(event)
        result = matcher.results()
        _assert_clean(matcher)
        assert result.matching_keys == ["a"] and "b" not in result.by_key
        # Joining a live member needs no automaton update.
        assert index._automaton is automaton
        assert index.churn.targeted_flushes == index.churn.full_flushes == 0
        matcher.sync()
        matcher.reset()
        follow_up = matcher.process(events)
        _assert_clean(matcher)
        assert follow_up.matching_keys == ["a", "b"]
        assert follow_up["b"].node_ids == follow_up["a"].node_ids \
            == self._answer()

    def test_last_key_retires_the_member_then_vacuum_reclaims_it(self,
                                                                 backend):
        events = list(iter_events(SHARED_XML))
        index = SubscriptionIndex({"a": SHARED, "b": SHARED, "c": "//v"},
                                  vacuum_ratio=1.0)
        matcher = index.matcher(backend=backend)
        matcher.process(events)
        _assert_clean(matcher)
        index.remove_subscription("a")
        assert index._retired_members == set()
        index.remove_subscription("b")
        assert index._retired_members == {0}
        assert index.sharing_summary()["members"] == 1
        matcher.sync()
        matcher.reset()
        assert matcher.process(events).matching_keys == ["c"]
        _assert_clean(matcher)
        assert index.vacuum() == 1
        assert len(index._members) == 1 and not index._retired_members
        assert [s.ordinal for s in index.subscriptions] == [0]
        fresh = index.matcher(backend=backend)
        assert fresh.process(events).matching_keys == ["c"]
        _assert_clean(fresh)

    def test_resubscribe_the_same_query_after_a_vacuum(self, backend):
        events = list(iter_events(SHARED_XML))
        index = SubscriptionIndex({"a": SHARED, "b": SHARED, "c": "//v"},
                                  vacuum_ratio=1.0)
        index.evaluate(events, backend=backend)
        index.remove_subscription("a")
        index.remove_subscription("b")
        index.vacuum()
        index.add_subscription("a", SHARED)
        index.add_subscription("d", SHARED)
        assert index.sharing_summary()["members"] == 2
        matcher = index.matcher(backend=backend)
        result = matcher.process(events)
        _assert_clean(matcher)
        assert result.matching_keys == ["c", "a", "d"]
        assert result["a"].node_ids == result["d"].node_ids \
            == self._answer()


class TestPerKeySubstreamDelivery:
    """One member's captures render once and reach every key."""

    XML = "<r><x><y>1</y><x>2</x></x><y>3</y><x/></r>"
    QUERIES = {"a": "/descendant::x", "inner": "/descendant::x/child::y",
               "b": "/descendant::x"}

    def test_on_payload_once_per_key_with_identical_bytes(self, backend):
        events = list(iter_events(self.XML))
        calls = []
        shared = SubscriptionIndex(self.QUERIES).evaluate(
            events, backend=backend,
            delivery=SubstreamDelivery(
                on_payload=lambda *call: calls.append(call)))
        by_key = {key: [(node, data) for k, node, data in calls if k == key]
                  for key in self.QUERIES}
        assert by_key["a"] == by_key["b"]
        # Nested captures stream out as their windows close, inner first.
        assert [data for _, data in by_key["a"]] == [
            b"<x>2</x>", b"<x><y>1</y><x>2</x></x>", b"<x />"]
        buffered = SubscriptionIndex(self.QUERIES).evaluate(
            events, backend=backend, delivery=SubstreamDelivery())
        assert buffered["a"].payload == buffered["b"].payload \
            == b"".join(data for _, data in sorted(by_key["a"]))
        assert buffered["inner"].payload == b"<y>1</y>"
        # Delivered per key; matched once per member.
        distinct = SubscriptionIndex({"a": self.QUERIES["a"],
                                      "inner": self.QUERIES["inner"]}
                                     ).evaluate(events, backend=backend,
                                                delivery=SubstreamDelivery())
        for stats in (shared.stats, buffered.stats):
            assert stats.subtrees_emitted == len(calls) == 7
            assert stats.bytes_emitted == sum(len(c[2]) for c in calls)
            assert stats.results == 2 * 3 + 1
            for name in ("expectations_created", "conditions_created",
                         "candidates_buffered"):
                assert getattr(stats, name) == getattr(distinct.stats, name)

    def test_callback_unsubscribing_its_own_key(self, backend):
        """A key dropped by its own callback mid-fan-out costs the other
        keys of the member nothing."""
        events = list(iter_events(self.XML))
        index = SubscriptionIndex(self.QUERIES)
        calls = []

        def on_payload(key, node_id, data):
            calls.append(key)
            if key == "a":
                index.remove_subscription("a")

        result = index.evaluate(events, backend=backend,
                                delivery=SubstreamDelivery(on_payload=on_payload))
        assert calls.count("a") == 1 and calls.count("b") == 3
        assert result.matching_keys == ["inner", "b"]


def test_sharing_summary_counts_members():
    index = SubscriptionIndex({"a": "//t", "b": "//t", "c": "/descendant::t",
                               "d": "//v"})
    summary = index.sharing_summary()
    assert summary["paths"] == 4
    # "//t" and "/descendant::t" compile to different paths: two members.
    assert (summary["members"], summary["max_keys_per_member"]) == (3, 2)
    assert SubscriptionIndex().sharing_summary()["members"] == 0
