"""Tests for the normalizer of rewritten paths (repro.rewrite.simplify)."""

import pytest

from repro.datasets import figure1_document
from repro.rewrite import rare, remove_reverse_axes, simplify
from repro.semantics.equivalence import paths_equivalent_on
from repro.streaming.dom_baseline import dom_evaluate
from repro.workloads.queries import PAPER_QUERIES
from repro.xmlmodel.parser import iter_events
from repro.xpath import analysis
from repro.xpath.cache import QueryCache
from repro.xpath.parser import parse_xpath
from repro.xpath.serializer import to_string


def _normalized(query):
    return to_string(simplify(parse_xpath(query)))


class TestSimplifications:
    def test_redundant_self_node_step_dropped(self):
        path = parse_xpath("/self::node()/child::a/self::node()/child::b")
        assert to_string(simplify(path)) == "/child::a/child::b"

    def test_self_step_with_qualifier_is_kept(self):
        path = parse_xpath("/self::node()[child::a]/child::b")
        assert to_string(simplify(path)) == "/self::node()[child::a]/child::b"

    def test_trivial_self_qualifier_dropped(self):
        path = parse_xpath("/descendant::a[self::node()]")
        assert to_string(simplify(path)) == "/descendant::a"

    def test_duplicate_union_members_merged(self):
        path = parse_xpath("/descendant::a | /descendant::a | /descendant::b")
        assert to_string(simplify(path)) == "/descendant::a | /descendant::b"

    def test_bottom_members_dropped(self):
        path = parse_xpath("/descendant::a | ⊥")
        assert to_string(simplify(path)) == "/descendant::a"

    def test_root_only_path_untouched(self):
        assert to_string(simplify(parse_xpath("/"))) == "/"

    def test_relative_single_self_step_survives(self):
        path = parse_xpath("self::node()")
        assert to_string(simplify(path)) == "self::node()"

    def test_or_with_trivial_branch_collapses(self):
        path = parse_xpath("/descendant::a[self::node() or child::b]")
        assert to_string(simplify(path)) == "/descendant::a"

    def test_and_with_trivial_branch_keeps_other(self):
        path = parse_xpath("/descendant::a[self::node() and child::b]")
        assert to_string(simplify(path)) == "/descendant::a[child::b]"


@pytest.mark.parametrize("expression", [
    "/descendant::c/self::a[parent::b]",
    "/descendant::a[child::b/ancestor::c]",
    "/descendant::a/following::b/preceding::c",
    "/descendant::a[preceding::b == /descendant::b]",
])
@pytest.mark.parametrize("ruleset", ["ruleset1", "ruleset2"])
class TestSimplifyPreservesEquivalence:
    def test_simplified_rewriting_still_equivalent(self, expression, ruleset,
                                                   document_pool):
        original = parse_xpath(expression)
        rewritten = remove_reverse_axes(original, ruleset=ruleset)
        simplified = simplify(rewritten)
        assert analysis.path_length(simplified) <= analysis.path_length(rewritten)
        report = paths_equivalent_on(original, simplified, document_pool)
        assert report.equivalent, report.describe()


class TestNormalizingRules:
    def test_a_node_test_conflict_is_bottom(self):
        assert _normalized("/child::price[child::a]/self::item") == "⊥"
        assert _normalized("/descendant::a/self::text()/child::b") == "⊥"
        assert _normalized("/attribute::a/self::b") == "⊥"

    def test_a_bottom_arm_leaves_its_union(self):
        assert _normalized("/child::a/self::b | /descendant::c") == \
            "/descendant::c"

    def test_self_on_the_root_matches_node_only(self):
        assert _normalized("/self::item/child::a") == "⊥"
        assert _normalized("/self::node()[child::a]/self::item") == "⊥"

    def test_self_folds_into_the_step_before_it(self):
        assert _normalized(
            "/descendant-or-self::node()[child::a]/self::item/child::b") == \
            "/descendant-or-self::item[child::a]/child::b"
        assert _normalized("/child::*/self::a[child::b]") == \
            "/child::a[child::b]"
        assert _normalized("/child::a/attribute::*/self::node()[. = \"1\"]") \
            == '/child::a/attribute::*[self::node() = "1"]'

    def test_a_false_qualifier_empties_its_step(self):
        assert _normalized("/descendant::a[child::b/self::c]") == "⊥"
        assert _normalized("/descendant::a[child::b/self::c or child::d]") \
            == "/descendant::a[child::d]"
        assert _normalized(
            "/descendant::a[child::b/self::c = /child::d]") == "⊥"

    def test_arms_differing_in_one_steps_qualifiers_merge(self):
        assert _normalized(
            "/child::p[child::a]/child::r | /child::p[child::b]/child::r") \
            == "/child::p[child::a or child::b]/child::r"

    def test_a_qualifier_free_arm_absorbs_its_partner(self):
        assert _normalized(
            "/child::p/child::r | /child::p[child::b]/child::r") == \
            "/child::p/child::r"

    def test_merges_cascade(self):
        assert _normalized(
            "/child::p[child::a]/child::r[child::c]"
            " | /child::p[child::b]/child::r[child::c]"
            " | /child::p[child::a]/child::r[child::d]"
            " | /child::p[child::b]/child::r[child::d]") == \
            "/child::p[child::a or child::b]/child::r[child::c or child::d]"

    def test_descendant_folding(self):
        assert _normalized(
            "/descendant::a[descendant::node()[child::b[child::c]]"
            " or child::b[child::c]]") == "/descendant::a[descendant::b[child::c]]"
        assert _normalized(
            "/descendant::a[child::b/child::c"
            " or descendant::node()/child::b/child::c]") == \
            "/descendant::a[descendant::b/child::c]"


#: An item feed in the shape of the router benchmark's documents.
ITEM_FEEDS = (
    '<feed><item id="1"><title>t</title><price currency="USD">9</price>'
    '</item><item id="2"><title>u</title><price>3</price></item>'
    '<item><item><title>v</title><price currency="EUR">4</price></item>'
    '<title>w</title></item></feed>',
    '<feed><price currency="USD">1</price><item><title>t</title></item>'
    '</feed>',
)


def test_the_ancestor_shape_compiles_to_one_arm():
    """RuleSet2's three arms for this shape — one of them a node-test
    conflict — normalize to the one arm a person would write."""
    query = "//price/@currency/ancestor::item/title"
    compiled = QueryCache().compile(query)
    assert to_string(compiled) == (
        "/descendant-or-self::item[descendant::price[attribute::currency]]"
        "/child::title")
    assert analysis.union_term_count(remove_reverse_axes(
        parse_xpath(query))) == 3
    for feed in ITEM_FEEDS:
        events = list(iter_events(feed))
        assert dom_evaluate(compiled, events).node_ids == \
            dom_evaluate(query, events).node_ids


@pytest.mark.parametrize("query", PAPER_QUERIES, ids=lambda q: q.label)
@pytest.mark.parametrize("ruleset", ["ruleset1", "ruleset2"])
def test_normalized_paper_rewrites_are_equivalent_and_never_larger(
        query, ruleset, document_pool):
    original = parse_xpath(query.xpath)
    rewritten = rare(original, ruleset=ruleset).result
    normalized = simplify(rewritten)
    for measure in (analysis.path_length, analysis.union_term_count,
                    analysis.count_joins):
        assert measure(normalized) <= measure(rewritten)
    documents = list(document_pool) + [figure1_document()]
    report = paths_equivalent_on(original, normalized, documents)
    assert report.equivalent, report.describe()
