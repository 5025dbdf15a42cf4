"""Unit tests of the lazy-DFA backend (repro.streaming.automaton)."""

import pytest

from repro.errors import StreamingError
from repro.streaming import (
    DocumentBroker,
    SubscriptionIndex,
    VerdictDelivery,
    stream_evaluate,
)
from repro.streaming.automaton import (
    BACKEND_ENV_VAR,
    DEFAULT_TRANSITION_CAP,
    compile_subscription_automaton,
    resolve_backend,
)
from repro.streaming.dom_baseline import dom_evaluate
from repro.xmlmodel.builder import document_events
from repro.xmlmodel.document import Document, element, text
from repro.xmlmodel.serialize import to_xml
from repro.xmlmodel.generator import (
    item_feed_document,
    journal_document,
    tagged_sections_document,
)
from repro.xpath import analysis
from repro.xpath.axes import Axis
from repro.xpath.parser import parse_xpath


class TestBackendResolution:
    def test_explicit_backends(self):
        assert resolve_backend("dfa") == "dfa"
        assert resolve_backend("expectations") == "expectations"

    def test_default_is_dfa(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert resolve_backend(None) == "dfa"

    def test_empty_environment_value_means_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "")
        assert resolve_backend(None) == "dfa"

    def test_environment_variable_overrides_the_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "expectations")
        assert resolve_backend(None) == "expectations"
        # An explicit argument still wins over the environment.
        assert resolve_backend("dfa") == "dfa"

    def test_unknown_backend_rejected(self):
        with pytest.raises(StreamingError, match="unknown streaming backend"):
            resolve_backend("nfa")

    def test_unknown_environment_backend_rejected_naming_the_variable(
            self, monkeypatch):
        # The same error fires whether the bad value came from the caller
        # or the environment; only the environment names its source.
        monkeypatch.setenv(BACKEND_ENV_VAR, "nfa")
        with pytest.raises(StreamingError,
                           match=f"unknown streaming backend 'nfa' "
                                 f"\\(from {BACKEND_ENV_VAR}\\)"):
            resolve_backend(None)
        with pytest.raises(StreamingError) as caller_error:
            resolve_backend("nfa")
        assert BACKEND_ENV_VAR not in str(caller_error.value)

    def test_matcher_exposes_its_backend(self):
        index = SubscriptionIndex({"q": "/descendant::a"})
        assert index.matcher(backend="dfa").backend == "dfa"
        assert index.matcher(backend="expectations").backend == "expectations"


#: Adversarial named descendant-or-self chains: k repetitions compile to
#: exactly k shared-prefix alternatives, so 64 sits at the cap and 65 is
#: the first spine past it (``//`` descents fold instead and never fork).
DOS_CHAIN_64 = "/descendant-or-self::a" * 64
DOS_CHAIN_65 = "/descendant-or-self::a" * 65


def root_gates(automaton):
    """Unqualified gates on NFA state 0: the members handed whole to the
    expectation engine at document start because the automaton cannot carry
    them.  (A qualified gate there is an ordinary hand-off whose prefix
    folded into the root, e.g. ``/self::node()[...]``.)"""
    return [gate for gate in automaton._nfa[0].gates if not gate.qualifiers]


class TestSpineClassification:
    @pytest.mark.parametrize("query, decided", [
        ("/descendant::a/child::b", True),
        ("//a/@id", True),
        ("/", True),
        ("/a/b/c | //d", True),
        # Sibling windows compile: following/following-sibling spines are
        # decided by the automaton (close-event arming), no fallback.
        ("/descendant::a/following::b", True),
        ("/a | /b/following-sibling::c", True),
        ("/following::a", True),
        # // descents fold into the next item instead of forking, so long
        # //-chains stay one alternative.
        ("//a" * 8, True),
        ("/descendant::a[child::b]", False),
        # Alternative explosion (named descendant-or-self chains past the
        # cap): handed to the expectation engine at a root gate, so not
        # decided by DFA accept sets — the classifier mirrors the compiler.
        (DOS_CHAIN_64, True),
        (DOS_CHAIN_65, False),
    ])
    def test_is_structurally_decided(self, query, decided):
        assert analysis.is_structurally_decided(parse_xpath(query)) == decided

    def test_spine_cut_points(self):
        path = parse_xpath("/a/b[child::c]/d")
        assert analysis.automaton_spine_cut(path) == 1
        # Sibling-axis steps no longer cut the spine...
        assert analysis.automaton_spine_cut(
            parse_xpath("/a/following::b")) is None
        # ...unless they carry qualifiers, like any other step.
        assert analysis.automaton_spine_cut(
            parse_xpath("/a/following::b[child::c]")) == 1
        assert analysis.automaton_spine_cut(parse_xpath("/a/b")) is None

    def test_is_automaton_compilable(self):
        assert analysis.is_automaton_compilable(parse_xpath("/a[child::b]"))
        assert analysis.is_automaton_compilable(
            parse_xpath("/a/following::b"))
        assert analysis.is_automaton_compilable(
            parse_xpath("/following::a"))
        assert analysis.is_automaton_compilable(parse_xpath("//a" * 8))
        # Boundary of the alternative cap: 64 compiles, 65 is root-gated.
        assert analysis.is_automaton_compilable(parse_xpath(DOS_CHAIN_64))
        assert not analysis.is_automaton_compilable(parse_xpath(DOS_CHAIN_65))

    def test_alternative_counts_at_the_cap_boundary(self):
        sixty_four = parse_xpath(DOS_CHAIN_64)
        alternatives = analysis.automaton_spine_alternatives(
            sixty_four.steps)
        assert len(alternatives) == 64
        assert analysis.automaton_spine_alternatives(
            parse_xpath(DOS_CHAIN_65).steps) is None
        # One alternative short of the cap, the 65-chain would compile.
        assert analysis.automaton_spine_alternatives(
            parse_xpath(DOS_CHAIN_65).steps, limit=65) is not None

    def test_descent_folding_keeps_slash_slash_chains_linear(self):
        # //a//b compiles to the single alternative (desc a, desc b).
        path = parse_xpath("//a//b")
        alternatives = analysis.automaton_spine_alternatives(path.steps)
        assert alternatives == [
            ((analysis.M_DESC, (analysis.K_NAME, "a")),
             (analysis.M_DESC, (analysis.K_NAME, "b")))]
        assert len(analysis.automaton_spine_alternatives(
            parse_xpath("//a" * 8).steps)) == 1

    def test_classifiers_agree_with_the_compiler(self):
        # is_automaton_compilable must predict the root gates exactly —
        # they share one kernel in repro.xpath.analysis.
        from repro.workloads.queries import differential_query_pool
        from repro.xpath.ast import Bottom, iter_union_members
        queries = differential_query_pool(60, seed=21) + [
            "//a" * 8, "/following::a", "/a/following::b", "/",
            DOS_CHAIN_65, f"/a | {DOS_CHAIN_65}",
        ]
        for query in queries:
            path = parse_xpath(query)
            automaton = compile_subscription_automaton([(0, path)])
            gated = {gate.remaining for gate in root_gates(automaton)}
            for member in iter_union_members(path):
                if isinstance(member, Bottom):
                    continue
                assert analysis.is_automaton_compilable(member) \
                    == (member.steps not in gated), query

    def test_supported_axes_are_all_forward_axes(self):
        assert Axis.FOLLOWING in analysis.AUTOMATON_SPINE_AXES
        assert Axis.FOLLOWING_SIBLING in analysis.AUTOMATON_SPINE_AXES
        assert Axis.ATTRIBUTE in analysis.AUTOMATON_SPINE_AXES
        assert Axis.PARENT not in analysis.AUTOMATON_SPINE_AXES
        assert Axis.ANCESTOR not in analysis.AUTOMATON_SPINE_AXES


class TestCompilation:
    def test_window_spines_no_longer_fall_back(self):
        # Window spines compile with no root gate and evaluate equal to DOM.
        queries = ["/descendant::a", "/following::a",
                   "/a | /following-sibling::b", "//a" * 8,
                   "//a/following::b", "/r/a/following-sibling::b"]
        paths = [parse_xpath(query) for query in queries]
        automaton = compile_subscription_automaton(list(enumerate(paths)))
        assert root_gates(automaton) == []
        assert automaton.state_count() >= 2  # dead + start
        tree = element("r", element("a", element("b")), element("b"),
                       element("a"), element("b"))
        events = list(document_events(Document.from_tree(tree)))
        result = SubscriptionIndex(queries).evaluate(events, backend="dfa")
        for position, path in enumerate(paths):
            assert result[position].node_ids \
                == dom_evaluate(path, events).node_ids, queries[position]
        assert result[4].node_ids and result[5].node_ids

    def test_fallback_partition(self):
        exploding = parse_xpath(DOS_CHAIN_65)
        automaton = compile_subscription_automaton([
            (0, parse_xpath("/descendant::a")),
            (1, exploding),
            (2, parse_xpath(f"/a | {DOS_CHAIN_65}")),
        ])
        # Only the exploding members are gated at the root, whole and
        # unqualified; everything else compiles into the automaton.
        assert [(gate.ordinal, gate.qualifiers, gate.remaining)
                for gate in root_gates(automaton)] == [
            (1, (), exploding.steps), (2, (), exploding.steps)]
        assert list(automaton.start.gates) == root_gates(automaton)
        assert automaton.state_count() >= 2  # dead + start

    def test_alternative_explosion_falls_back(self):
        # Named descendant-or-self chains fork a shared-prefix alternative
        # per step; past the limit the member routes to the expectation
        # engine through a root gate — and both backends still agree.
        automaton = compile_subscription_automaton(
            [(0, parse_xpath(DOS_CHAIN_65))])
        assert [gate.ordinal for gate in root_gates(automaton)] == [0]
        assert root_gates(compile_subscription_automaton(
            [(0, parse_xpath(DOS_CHAIN_64))])) == []
        document = Document.from_tree(
            element("a", element("a", element("a"))))
        events = list(document_events(document))
        for query in (DOS_CHAIN_64, DOS_CHAIN_65, "//a" * 8):
            assert stream_evaluate(query, events, backend="dfa").node_ids \
                == stream_evaluate(query, events,
                                   backend="expectations").node_ids, query

    def test_trie_sharing_keeps_shared_prefix_fragments_linear(self):
        # The 64 alternatives of the dos-chain share prefixes pairwise; the
        # builder memoizes (state, item) pairs, so the NFA stays linear in
        # the spine length instead of quadratic in the alternative count.
        automaton = compile_subscription_automaton(
            [(0, parse_xpath(DOS_CHAIN_64))])
        assert root_gates(automaton) == []
        assert automaton.describe()["nfa_states"] < 4 * 64

    def test_union_members_share_spine_prefixes(self):
        # Ten members over one spine prefix thread through one fragment
        # with per-member accept tags instead of ten parallel chains.
        shared = compile_subscription_automaton(
            [(i, parse_xpath(f"/db/journal/t{i}")) for i in range(10)])
        lone = compile_subscription_automaton(
            [(0, parse_xpath("/db/journal/t0"))])
        per_member = (shared.describe()["nfa_states"]
                      - lone.describe()["nfa_states"])
        # Each extra member may only add its distinguishing final state.
        assert per_member == 9

    def test_relative_member_rejected(self):
        with pytest.raises(StreamingError, match="absolute"):
            compile_subscription_automaton([(0, parse_xpath("child::a"))])

    def test_impossible_spines_compile_to_nothing(self):
        # text() has no children: nothing to match, nothing to gate.
        automaton = compile_subscription_automaton(
            [(0, parse_xpath("/child::text()/child::a"))])
        assert root_gates(automaton) == []
        document = Document.from_tree(element("a", text("x"), element("a")))
        result = stream_evaluate("/child::text()/child::a",
                                 document_events(document), backend="dfa")
        assert result.node_ids == []

    def test_describe_reports_sizes(self):
        index = SubscriptionIndex({"q": "/descendant::a/child::b"})
        matcher = index.matcher(backend="dfa")
        document = Document.from_tree(element("a", element("b")))
        matcher.process(document_events(document))
        figures = matcher._automaton_run.automaton.describe()
        assert figures["nfa_states"] > 0
        assert figures["dfa_states"] == matcher.dfa_state_count() > 0
        assert figures["transition_cap"] == DEFAULT_TRANSITION_CAP


class TestLazyMaterialization:
    def test_states_materialize_on_demand_and_are_shared(self):
        index = SubscriptionIndex({"q": "//a/b"})
        document = Document.from_tree(
            element("a", element("b"), element("c", element("a", element("b")))))
        events = list(document_events(document))
        first = index.matcher(backend="dfa")
        first.process(events)
        assert first.stats.dfa_states_materialized > 0
        assert first.stats.transition_cache_lookups > 0
        # A second matcher over the same index shares the warmed automaton.
        second = index.matcher(backend="dfa")
        second.process(events)
        assert second.stats.dfa_states_materialized == 0
        assert (second.stats.transition_cache_hits
                == second.stats.transition_cache_lookups)
        assert second.dfa_state_count() == first.dfa_state_count()

    def test_bounded_table_evicts_and_stays_correct(self):
        # A cap far below the document's tag diversity forces flushes inside
        # the document and continuous re-materialization; results must not
        # change.
        document = tagged_sections_document(sections=30, depth=2, seed=4)
        events = list(document_events(document))
        queries = {f"q{i}": f"/child::db/child::t{i:02d}" for i in range(8)}
        capped = SubscriptionIndex(queries, dfa_transition_cap=16)
        roomy = SubscriptionIndex(queries)
        capped_result = capped.evaluate(events, backend="dfa")
        roomy_result = roomy.evaluate(events, backend="dfa")
        for key in queries:
            assert capped_result[key].node_ids == roomy_result[key].node_ids
        assert capped_result.stats.transition_cache_flushed > 0
        assert roomy_result.stats.transition_cache_flushed == 0

    def test_state_set_is_flushed_when_it_outgrows_its_bound(self):
        # Documents whose ancestor chains keep combining tags in new ways
        # materialize a new DFA state per distinct NFA subset; a long-lived
        # session must flush (and lazily rebuild) instead of growing without
        # bound — states and cached transitions share the one bound — and
        # results must not change across the flush.
        import itertools
        import random
        tags = [f"t{i:02d}" for i in range(12)]
        queries = {i: f"//{a}//{b}"
                   for i, (a, b) in enumerate(itertools.islice(
                       itertools.permutations(tags, 2), 24))}
        capped = SubscriptionIndex(queries, dfa_transition_cap=16)
        reference = SubscriptionIndex(queries)
        broker = DocumentBroker(capped, backend="dfa")
        rng = random.Random(5)
        flushed_stats = None
        for round_index in range(80):
            chain = rng.sample(tags, 7)
            node = element(chain[-1])
            for tag in reversed(chain[:-1]):
                node = element(tag, node)
            events = list(document_events(Document.from_tree(node)))
            result = broker.submit(round_index, to_xml(
                Document.from_tree(node), indent=0))
            fresh = reference.evaluate(events, backend="dfa")
            for key in queries:
                assert result[key].node_ids == fresh[key].node_ids, key
            automaton = broker.session._automaton_run.automaton
            figures = automaton.describe()
            assert automaton.state_count() + figures["transitions_cached"] \
                <= figures["transition_cap"] + 2
            if figures["flushes"] and flushed_stats is None:
                flushed_stats = result.stats
        assert broker.session._automaton_run.automaton.describe()["flushes"] > 0
        assert flushed_stats is not None
        assert flushed_stats.transition_cache_flushed > 0

    def test_dead_branches_cost_one_lookup(self):
        # A subscription rooted at a tag the document never opens drives the
        # run into the dead state; everything below short-circuits.
        index = SubscriptionIndex({"q": "/child::nosuch/descendant::a"})
        document = Document.from_tree(
            element("r", element("a", element("a")), element("a")))
        matcher = index.matcher(backend="dfa")
        matcher.process(list(document_events(document)))
        # Only the root element's transition is ever computed; the children
        # inherit the dead state without a lookup.
        assert matcher.stats.transition_cache_lookups == 1


class TestQualifierGating:
    def test_expectations_spawn_only_at_structural_matches(self):
        # 40 journals, but only journal elements can open the gate of
        # //journal[child::price]: the expectation engine spawns per event,
        # the DFA backend once per journal.
        document = journal_document(journals=40, articles_per_journal=2,
                                    authors_per_article=2, seed=5)
        events = list(document_events(document))
        query = "/descendant::journal[child::price]/child::title"
        gated = stream_evaluate(query, events, backend="dfa")
        full = stream_evaluate(query, events, backend="expectations")
        assert gated.node_ids == full.node_ids
        assert 0 < gated.stats.expectations_created
        assert (gated.stats.expectations_created
                < full.stats.expectations_created)

    def test_structurally_decided_subscriptions_spawn_nothing(self):
        document = journal_document(journals=10, seed=3)
        events = list(document_events(document))
        result = stream_evaluate("/descendant::journal/child::title", events,
                                 backend="dfa")
        assert result.node_ids
        assert result.stats.expectations_created == 0
        assert result.stats.conditions_created == 0

    def test_sibling_windows_run_without_expectations(self):
        # //title/following-sibling::price used to hand over to the
        # expectation engine mid-spine; the sibling window now compiles and
        # the whole query is decided by the automaton alone.
        document = journal_document(journals=6, seed=2)
        events = list(document_events(document))
        query = "/descendant::title/following-sibling::price"
        dfa = stream_evaluate(query, events, backend="dfa")
        exp = stream_evaluate(query, events, backend="expectations")
        assert dfa.node_ids == exp.node_ids != []
        assert dfa.stats.expectations_created == 0
        assert exp.stats.expectations_created > 0

    def test_window_step_with_qualifiers_gates_at_the_window(self):
        # Qualifiers on a sibling-axis step gate like on any other step:
        # the window itself runs on the automaton, only nodes reaching it
        # spawn the qualifier machinery.
        tree = element("r",
                       element("a"),
                       element("b", element("c")),
                       element("b"))
        events = list(document_events(Document.from_tree(tree)))
        query = "/r/a/following-sibling::b[child::c]"
        dfa = stream_evaluate(query, events, backend="dfa")
        exp = stream_evaluate(query, events, backend="expectations")
        assert dfa.node_ids == exp.node_ids != []
        assert len(dfa.node_ids) == 1
        # Only the two structurally-reaching b siblings built conditions.
        assert dfa.stats.conditions_created == 2

    def test_attribute_gates_decide_at_start_element(self):
        feed = item_feed_document(items=20, seed=7)
        events = list(document_events(feed))
        index = SubscriptionIndex({"first": '//item[@id="0"]'})
        matcher = index.matcher(delivery=VerdictDelivery(), backend="dfa")
        result = matcher.process(events)
        assert result["first"].matched
        assert matcher.halted
        assert matcher.stats.events_skipped > 0


class TestSiblingWindows:
    """Close-event arming semantics of compiled following/following-sibling."""

    def _both(self, query, tree):
        events = list(document_events(Document.from_tree(tree)))
        dfa = stream_evaluate(query, events, backend="dfa")
        exp = stream_evaluate(query, events, backend="expectations")
        assert dfa.node_ids == exp.node_ids, query
        return dfa

    def test_sibling_window_expires_when_the_parent_closes(self):
        # The second b is a sibling of the anchor; the third lives outside
        # the anchor's parent and must not match.
        tree = element("r",
                       element("p", element("a"), element("b")),
                       element("b"))
        result = self._both("//a/following-sibling::b", tree)
        assert len(result.node_ids) == 1

    def test_sibling_window_skips_preceding_siblings(self):
        tree = element("r", element("b"), element("a"), element("b"))
        result = self._both("/r/a/following-sibling::b", tree)
        assert len(result.node_ids) == 1

    def test_following_window_stays_armed_across_depths(self):
        # following::b matches everything after the anchor's close,
        # whatever the depth.
        tree = element("r",
                       element("p", element("a"), element("b")),
                       element("q", element("b")),
                       element("b"))
        result = self._both("//a/following::b", tree)
        assert len(result.node_ids) == 3

    def test_following_excludes_the_anchors_own_subtree(self):
        tree = element("r",
                       element("a", element("b")),
                       element("b"))
        result = self._both("//a/following::b", tree)
        assert len(result.node_ids) == 1

    def test_root_anchored_windows_are_empty(self):
        tree = element("r", element("a"))
        assert self._both("/following::a", tree).node_ids == []
        assert self._both("/following-sibling::a", tree).node_ids == []

    def test_text_anchors_arm_at_the_text_event(self):
        # Text nodes have no close event; their windows arm immediately.
        tree = element("r", text("x"), element("b"))
        assert len(self._both("//following::b", tree).node_ids) == 1
        assert len(self._both(
            "//text()/following-sibling::b", tree).node_ids) == 1

    def test_windows_continue_into_ordinary_steps(self):
        tree = element("r",
                       element("a"),
                       element("b", element("c"), element("d")))
        result = self._both("/r/a/following-sibling::b/c", tree)
        assert len(result.node_ids) == 1

    def test_first_step_window_members_run_without_wholesale_fallback(self):
        # Acceptance criterion: first-step following/following-sibling
        # members and deep //-windows compile — nothing is gated at the root.
        from repro.workloads.queries import differential_query_pool
        pool = differential_query_pool(120, seed=3)
        assert any("following" in query for query in pool)
        automaton = compile_subscription_automaton(
            [(ordinal, parse_xpath(query))
             for ordinal, query in enumerate(pool)])
        assert root_gates(automaton) == []

    def test_window_queries_leave_no_expectation_residue(self):
        index = SubscriptionIndex({0: "//a/following::b",
                                   1: "/r/a/following-sibling::b"})
        matcher = index.matcher(backend="dfa")
        tree = element("r", element("a"), element("b"))
        matcher.process(list(document_events(Document.from_tree(tree))))
        assert matcher.stats.expectations_created == 0
        sizes = matcher.registry_sizes()
        assert all(size == 0 for size in sizes.values()), sizes


class TestRootAccepts:
    def test_root_only_path(self):
        document = Document.from_tree(element("a"))
        assert stream_evaluate("/", document_events(document),
                               backend="dfa").node_ids == [0]

    def test_root_gate(self):
        # A qualifier on the very first step gates at the document root.
        document = Document.from_tree(element("a", element("b")))
        events = list(document_events(document))
        for query in ("/descendant-or-self::node()[child::a]",
                      "/child::a[child::b]"):
            dfa = stream_evaluate(query, events, backend="dfa").node_ids
            exp = stream_evaluate(query, events,
                                  backend="expectations").node_ids
            assert dfa == exp, query
