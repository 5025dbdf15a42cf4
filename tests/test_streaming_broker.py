"""Tests of the push-mode document broker (repro.streaming.broker)."""

import pytest

from repro.errors import XMLSyntaxError
from repro.streaming import (
    DocumentBroker,
    SubscriptionIndex,
    VerdictDelivery,
)
from repro.streaming.broker import DocumentRecord
from repro.xmlmodel.builder import document_events
from repro.xmlmodel.generator import journal_document
from repro.xmlmodel.parser import iter_events
from repro.xmlmodel.serialize import to_xml

SUBSCRIPTIONS = {
    "names": "/descendant::journal/descendant::name",
    "editors": "/descendant::editor[parent::journal]",
    "pricing": "/descendant::price/preceding::name",
    "joined": "//title[self::node() = /descendant::title]",
    "missing": "/descendant::nosuchtag",
}


def _documents():
    specs = [
        dict(journals=1, articles_per_journal=1, authors_per_article=1, seed=1),
        dict(journals=2, articles_per_journal=2, authors_per_article=1, seed=2),
        dict(journals=3, articles_per_journal=1, authors_per_article=2,
             with_price=False, seed=3),
        dict(journals=1, articles_per_journal=3, authors_per_article=2, seed=4),
    ]
    return {f"doc-{index}": journal_document(**spec)
            for index, spec in enumerate(specs)}


def _chunked(text, size):
    return [text[start:start + size] for start in range(0, len(text), size)]


class TestDifferential:
    """broker.submit == a fresh SubscriptionIndex.evaluate per document."""

    @pytest.mark.parametrize("chunk_size", [1, 7, 64, 10_000])
    def test_results_match_fresh_evaluate_per_document(self, chunk_size,
                                                      backend):
        broker = DocumentBroker(SUBSCRIPTIONS, backend=backend)
        index = SubscriptionIndex(SUBSCRIPTIONS)
        for name, document in _documents().items():
            text = to_xml(document, indent=0)
            result = broker.submit(name, _chunked(text, chunk_size))
            fresh = index.evaluate(list(iter_events(text)), backend=backend)
            for key in SUBSCRIPTIONS:
                assert result[key].node_ids == fresh[key].node_ids, (name, key)
                assert result[key].matched == fresh[key].matched, (name, key)

    def test_verdict_mode_matches_fresh_evaluate(self, backend):
        broker = DocumentBroker(SUBSCRIPTIONS, delivery=VerdictDelivery(),
                                backend=backend)
        index = SubscriptionIndex(SUBSCRIPTIONS)
        for name, document in _documents().items():
            text = to_xml(document, indent=0)
            result = broker.submit(name, _chunked(text, 32))
            fresh = index.evaluate(list(iter_events(text)),
                                   delivery=VerdictDelivery(),
                                   backend=backend)
            for key in SUBSCRIPTIONS:
                assert result[key].matched == fresh[key].matched, (name, key)

    def test_bytes_chunks(self):
        broker = DocumentBroker(SUBSCRIPTIONS)
        index = SubscriptionIndex(SUBSCRIPTIONS)
        document = journal_document(journals=2, articles_per_journal=2,
                                    authors_per_article=2, seed=9)
        text = to_xml(document, indent=0)
        encoded = text.encode("utf-8")
        result = broker.submit("bytes-doc",
                               [encoded[start:start + 13]
                                for start in range(0, len(encoded), 13)])
        fresh = index.evaluate(list(iter_events(text)))
        for key in SUBSCRIPTIONS:
            assert result[key].node_ids == fresh[key].node_ids

    def test_submit_events_matches_submit_text(self):
        broker = DocumentBroker(SUBSCRIPTIONS)
        document = journal_document(journals=2, articles_per_journal=1,
                                    authors_per_article=1, seed=5)
        via_events = broker.submit_events("ev", list(document_events(document)))
        via_text = broker.submit("tx", to_xml(document, indent=0))
        for key in SUBSCRIPTIONS:
            assert via_events[key].node_ids == via_text[key].node_ids

    def test_single_string_chunk_accepted(self):
        broker = DocumentBroker({"root": "/child::journal"})
        result = broker.submit("one", "<journal><title>t</title></journal>")
        assert result["root"].matched


class TestSessionReuse:
    def test_registries_empty_between_submits(self, backend):
        broker = DocumentBroker(SUBSCRIPTIONS, backend=backend)
        for name, document in _documents().items():
            broker.submit(name, _chunked(to_xml(document, indent=0), 16))
            sizes = broker.session.registry_sizes()
            assert all(size == 0 for size in sizes.values()), (name, sizes)

    def test_mid_chunk_early_termination_counts_skipped_events(self):
        # The whole document arrives as one chunk: the events tokenized
        # after every verdict settled are counted as skipped.
        broker = DocumentBroker({"j": "/descendant::journal"},
                                delivery=VerdictDelivery())
        big = journal_document(journals=30, articles_per_journal=3,
                               authors_per_article=2, seed=7)
        text = to_xml(big, indent=0)
        result = broker.submit("one-chunk", text)
        total = len(list(iter_events(text)))
        assert result["j"].matched
        assert result.stats.events < total
        assert result.stats.events_skipped > 0
        # The halted session never asks the tokenizer to close(), so the
        # final EndDocument is never produced — everything else is accounted
        # for as either processed or skipped.
        assert result.stats.events + result.stats.events_skipped == total - 1
        assert broker.stats.events_skipped == result.stats.events_skipped
        assert broker.history[-1].events_skipped == result.stats.events_skipped

    def test_registries_empty_after_early_termination(self, backend):
        # All subscriptions decided early: the session halts mid-document and
        # must still come back clean for the next submit.
        broker = DocumentBroker({"j": "/descendant::journal"},
                                delivery=VerdictDelivery(), backend=backend)
        big = journal_document(journals=30, articles_per_journal=3,
                               authors_per_article=2, seed=7)
        result = broker.submit("big", _chunked(to_xml(big, indent=0), 64))
        assert result["j"].matched
        assert broker.session.halted
        assert broker.stats.chunks_skipped > 0
        assert all(size == 0
                   for size in broker.session.registry_sizes().values())
        # The next document is unaffected by the halted predecessor.
        no_match = broker.submit("empty", "<article><name>n</name></article>")
        assert not no_match["j"].matched

    def test_results_do_not_leak_across_documents(self, backend):
        broker = DocumentBroker({"names": "/descendant::name"},
                                backend=backend)
        with_names = journal_document(journals=1, articles_per_journal=1,
                                      authors_per_article=2, seed=1)
        first = broker.submit("with", to_xml(with_names, indent=0))
        assert first["names"].node_ids
        second = broker.submit("without", "<journal><title>t</title></journal>")
        assert second["names"].node_ids == []
        assert first["names"].node_ids  # earlier result object unchanged

    def test_session_is_reused_not_rebuilt(self):
        broker = DocumentBroker(SUBSCRIPTIONS)
        broker.submit("a", "<journal><name>n</name></journal>")
        session = broker.session
        broker.submit("b", "<journal><name>n</name></journal>")
        assert broker.session is session

    def test_adding_a_subscription_keeps_the_session(self, backend):
        # Registering on the broker or directly on its index updates the
        # index incrementally; the warm session syncs at the next checkout.
        document = "<journal><title>t</title><name>n</name></journal>"
        broker = DocumentBroker({"names": "/descendant::name"},
                                backend=backend)
        broker.submit("a", document)
        session = broker.session
        broker.subscribe("titles", "/descendant::title")
        broker.index.add_many({"journals": "/child::journal"})
        result = broker.submit("b", document)
        assert broker.session is session
        fresh = DocumentBroker({"names": "/descendant::name",
                                "titles": "/descendant::title",
                                "journals": "/child::journal"},
                               backend=backend).submit("b", document)
        assert [(r.key, r.matched, r.node_ids) for r in result] \
            == [(r.key, r.matched, r.node_ids) for r in fresh]
        assert result["titles"].matched and result["journals"].matched

    def test_malformed_document_leaves_a_working_broker(self, backend):
        broker = DocumentBroker({"names": "/descendant::name"},
                                backend=backend)
        with pytest.raises(XMLSyntaxError):
            broker.submit("bad", "<journal><name>n</name>")
        # The poisoned stream state is cleared; the next submit works.
        result = broker.submit("good", "<journal><name>n</name></journal>")
        assert result["names"].matched
        assert broker.stats.documents == 1  # the failed submit is not counted

    def test_submit_after_mid_document_error_equals_fresh_evaluate(
            self, backend):
        # Regression: a tokenizer error mid-document used to discard the
        # whole session; it must now be salvaged — and whether salvaged or
        # rebuilt, the *next* submit has to answer exactly like a fresh
        # SubscriptionIndex.evaluate, with no state leaking from the dead
        # document.
        broker = DocumentBroker(SUBSCRIPTIONS, backend=backend)
        index = SubscriptionIndex(SUBSCRIPTIONS)
        good = to_xml(journal_document(journals=2, articles_per_journal=2,
                                       authors_per_article=2, seed=6),
                      indent=0)
        broker.submit("warmup", _chunked(good, 32))
        session = broker.session
        # The malformed document dies *after* the matcher has consumed real
        # events (the error sits mid-stream, past several elements).
        bad = good[:len(good) // 2] + "<&broken"
        with pytest.raises(XMLSyntaxError):
            broker.submit("bad", _chunked(bad, 16))
        sizes = broker.session.registry_sizes()
        assert all(size == 0 for size in sizes.values()), sizes
        result = broker.submit("after-error", _chunked(good, 32))
        fresh = index.evaluate(list(iter_events(good)), backend=backend)
        for key in SUBSCRIPTIONS:
            assert result[key].node_ids == fresh[key].node_ids, key
            assert result[key].matched == fresh[key].matched, key
        # The session survived the error instead of being rebuilt.
        assert broker.session is session
        assert broker.stats.documents == 2

    def test_error_on_first_event_of_a_session(self, backend):
        # The error path also holds before the session ever finished a
        # document (nothing to salvage *from*).
        broker = DocumentBroker({"names": "/descendant::name"},
                                backend=backend)
        with pytest.raises(XMLSyntaxError):
            broker.submit("bad", "<a><b></a></b>")
        result = broker.submit("good", "<journal><name>n</name></journal>")
        assert result["names"].matched


class TestLiveChurn:
    """subscribe/unsubscribe on a running broker, between submits."""

    DOC = "<journal><name>n</name><title>t</title></journal>"

    def test_subscribe_takes_effect_next_submit(self, backend):
        broker = DocumentBroker({"names": "/descendant::name"},
                                backend=backend)
        broker.submit("a", self.DOC)
        session = broker.session
        broker.subscribe("titles", "/descendant::title")
        result = broker.submit("b", self.DOC)
        assert result["titles"].matched
        assert result["names"].matched
        # The session was extended incrementally, not rebuilt.
        assert broker.session is session

    def test_unsubscribe_stops_deliveries(self, backend):
        broker = DocumentBroker(dict(SUBSCRIPTIONS), backend=backend)
        before = broker.submit("a", self.DOC)
        assert before["names"].matched
        broker.unsubscribe("names")
        after = broker.submit("b", self.DOC)
        with pytest.raises(KeyError):
            after["names"]
        assert "names" not in after.matching_keys
        assert after["joined"].matched == before["joined"].matched

    def test_unsubscribe_unknown_key_raises(self):
        broker = DocumentBroker({"names": "/descendant::name"})
        with pytest.raises(KeyError):
            broker.unsubscribe("nope")

    def test_churn_on_shared_index_is_allowed(self, backend):
        # Unlike add(), live churn is version-checked: every broker on the
        # shared index syncs at its own next submit.
        index = SubscriptionIndex({"names": "/descendant::name"})
        first = DocumentBroker(index, backend=backend)
        second = DocumentBroker(index, backend=backend)
        first.submit("a", self.DOC)
        second.submit("a", self.DOC)
        first.subscribe("titles", "/descendant::title")
        assert second.submit("b", self.DOC)["titles"].matched
        assert first.submit("b", self.DOC)["titles"].matched

    def test_vacuum_forces_a_fresh_session(self, backend):
        broker = DocumentBroker(dict(SUBSCRIPTIONS), backend=backend)
        broker.submit("a", self.DOC)
        session = broker.session
        removed = [key for key in list(SUBSCRIPTIONS) if key != "names"]
        for key in removed:
            broker.unsubscribe(key)
        assert broker.index.churn.vacuum_runs > 0
        result = broker.submit("b", self.DOC)
        assert broker.session is not session
        assert result.matching_keys == ["names"]

    @pytest.mark.parametrize("mode", ["verdicts", "ids", "substream"])
    def test_churn_across_delivery_modes(self, backend, mode):
        from repro.streaming.delivery import SubstreamDelivery
        kwargs = {"backend": backend}
        if mode == "verdicts":
            kwargs["delivery"] = VerdictDelivery()
        elif mode == "substream":
            kwargs["delivery"] = SubstreamDelivery()
        broker = DocumentBroker({"names": "/descendant::name"}, **kwargs)
        broker.submit("a", self.DOC)
        broker.subscribe("titles", "/descendant::title")
        broker.unsubscribe("names")
        result = broker.submit("b", self.DOC)
        assert result.matching_keys == ["titles"]
        if mode == "substream":
            assert b"<title>" in result["titles"].payload

    def test_remove_then_readd_same_key(self, backend):
        broker = DocumentBroker({"k": "/descendant::name"}, backend=backend)
        assert broker.submit("a", self.DOC)["k"].matched
        broker.unsubscribe("k")
        broker.subscribe("k", "/descendant::title")
        result = broker.submit("b", self.DOC)
        assert result["k"].matched
        assert result["k"].query == "/descendant::title"


class TestAccounting:
    def test_failed_submit_leaves_aggregates_untouched(self, backend):
        # A failed document's partial work — chunks fed, events consumed,
        # subtrees/bytes emitted — must not fold into the aggregates or the
        # history: nothing was served to anyone.
        import dataclasses

        broker = DocumentBroker(SUBSCRIPTIONS, backend=backend)
        good = to_xml(journal_document(journals=2, articles_per_journal=2,
                                       authors_per_article=2, seed=6),
                      indent=0)
        broker.submit("warmup", _chunked(good, 32))
        snapshot = dataclasses.replace(broker.stats)
        history = broker.history
        bad = good[:len(good) // 2] + "<&broken"
        with pytest.raises(XMLSyntaxError):
            broker.submit("bad", _chunked(bad, 16))
        assert broker.stats == snapshot
        assert broker.history == history

    def test_failed_substream_submit_leaves_aggregates_untouched(self):
        # Substream mode is the sharpest case: the dead document may have
        # emitted payload subtrees before the error.
        import dataclasses

        from repro.streaming.delivery import SubstreamDelivery

        broker = DocumentBroker({"names": "/descendant::name"},
                                delivery=SubstreamDelivery())
        broker.submit("warmup", "<journal><name>n</name></journal>")
        snapshot = dataclasses.replace(broker.stats)
        # The <name> subtree closes (payload emitted) before the error.
        with pytest.raises(XMLSyntaxError):
            broker.submit("bad", "<journal><name>n</name><&broken")
        assert broker.stats == snapshot
        assert broker.stats.subtrees_emitted == snapshot.subtrees_emitted

    def test_aggregate_stats_accumulate(self):
        broker = DocumentBroker(SUBSCRIPTIONS)
        total_events = 0
        for name, document in _documents().items():
            result = broker.submit(name, _chunked(to_xml(document, indent=0), 32))
            total_events += result.stats.events
        stats = broker.stats
        assert stats.documents == len(_documents())
        assert stats.events == total_events
        assert stats.deliveries >= stats.documents_matched
        assert stats.chunks > 0
        row = stats.as_row()
        assert row["documents"] == stats.documents

    def test_history_records_documents(self):
        broker = DocumentBroker({"names": "/descendant::name"},
                                history_limit=2)
        for index in range(3):
            broker.submit(f"doc-{index}", "<journal><name>n</name></journal>")
        history = broker.history
        assert len(history) == 2  # bounded
        assert history[-1] == DocumentRecord(
            document_id="doc-2", matched_keys=("names",),
            events=history[-1].events, events_skipped=0)
        assert [record.document_id for record in history] == ["doc-1", "doc-2"]
