"""Property: every rewriting produced by ``rare`` is equivalent to its input.

This is the central correctness property of the paper (Lemma 4.1.3 /
Theorems 4.1 and 4.2): for random absolute paths with reverse axes, the
output of ``rare`` with either rule set selects exactly the same nodes as the
input, for every document and every context node — checked here on randomized
documents.  The output must also be reverse-axis free.  The normalizer the compile
path runs on that output (:func:`repro.rewrite.simplify`) must keep it
equivalent, never make it larger, and stay linear on RuleSet2's
exponential outputs.
"""

import time

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.errors import RRJoinError
from repro.rewrite import rare, simplify
from repro.semantics.evaluator import evaluate
from repro.streaming.dom_baseline import dom_evaluate
from repro.workloads.queries import following_reverse_chain
from repro.xmlmodel.builder import document_events
from repro.xmlmodel.document import Document, element, text
from repro.xpath import analysis
from repro.xpath.cache import QueryCache
from repro.xpath.parser import parse_xpath
from repro.xpath.serializer import to_string

from tests.property.strategies import (
    documents,
    forward_absolute_paths,
    reverse_absolute_paths,
)

SETTINGS = dict(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

#: Theorem 4.2's exponential case, as drawn by ``reverse_absolute_paths()``
#: (hypothesis found it outside the ``ci`` profile): RuleSet2 needs 21 975
#: rule applications on it, past ``rare``'s default budget of 20 000, and
#: its output has length 51 542.
EXPONENTIAL_INPUT = (
    "/child::a/child::a[ancestor::a]"
    "/preceding::a[ancestor-or-self::a/ancestor-or-self::a]"
    "/preceding::a[ancestor-or-self::a/ancestor-or-self::a]")

#: The rule-application budget of these properties.  The default budget
#: guards subscription compilation; these properties are about what the
#: rules produce, on *every* path the generator draws, and the generator
#: reaches the exponential case: the heaviest draw seen in a sampling of
#: ~7 000 had RuleSet2 apply 199 489 rules (about 9 s with CPython 3.11 on
#: a 2-core x86-64 machine).
REWRITE_LIMIT = 250_000

#: A document on which the exponential input selects nodes.
DEEP_DOCUMENT = Document.from_tree(element(
    "a", element("a", text("x"), element("a", element("a"))),
    element("a", element("a")), element("a")))


def assert_rewrite_equivalent(expression, document, ruleset):
    original = parse_xpath(expression)
    try:
        result = rare(original, ruleset=ruleset,
                      max_applications=REWRITE_LIMIT)
    except RRJoinError:
        pytest.skip("randomly generated path contains an RR join")
    rewritten = result.result
    assert analysis.count_reverse_steps(rewritten) == 0, to_string(rewritten)
    for context in document.nodes:
        expected = [n.position for n in evaluate(original, document, context)]
        actual = [n.position for n in evaluate(rewritten, document, context)]
        assert actual == expected, (
            f"{ruleset}: {expression}\n  rewritten: {to_string(rewritten)}\n"
            f"  context {context.label()}: {actual} != {expected}")


@given(expression=reverse_absolute_paths(), document=documents())
@settings(**SETTINGS)
def test_ruleset1_rewriting_is_equivalent(expression, document):
    assert_rewrite_equivalent(expression, document, "ruleset1")


@given(expression=reverse_absolute_paths(), document=documents())
@example(expression=EXPONENTIAL_INPUT, document=DEEP_DOCUMENT)
@settings(**SETTINGS)
def test_ruleset2_rewriting_is_equivalent(expression, document):
    assert_rewrite_equivalent(expression, document, "ruleset2")


@given(expression=reverse_absolute_paths())
@settings(**SETTINGS)
def test_ruleset1_output_is_linear_and_join_counting(expression):
    """Theorem 4.1's size bound: one join per reverse step, no unions."""
    original = parse_xpath(expression)
    try:
        result = rare(original, ruleset="ruleset1")
    except RRJoinError:
        pytest.skip("randomly generated path contains an RR join")
    reverse_steps = analysis.count_reverse_steps(original)
    # At most one join is introduced per removed reverse step (exactly one
    # unless a Lemma 3.2 root simplification collapses part of the path to ⊥
    # before Rule (1)/(2) has to fire).
    assert analysis.count_joins(result.result) \
        <= analysis.count_joins(original) + reverse_steps
    assert analysis.union_term_count(result.result) <= max(
        1, analysis.union_term_count(original))
    # The linear size bound of Theorem 4.1: each application adds at most two
    # forward steps, so the output length is linearly bounded by the input.
    assert analysis.path_length(result.result) <= 3 * analysis.path_length(original)


@given(expression=reverse_absolute_paths())
@example(expression=EXPONENTIAL_INPUT)
@settings(**SETTINGS)
def test_ruleset2_output_is_join_free(expression):
    """Section 4: RuleSet2 never introduces joins — also where its output
    is exponential, which needs more than the default budget (see
    ``REWRITE_LIMIT``)."""
    original = parse_xpath(expression)
    try:
        result = rare(original, ruleset="ruleset2",
                      max_applications=REWRITE_LIMIT)
    except RRJoinError:
        pytest.skip("randomly generated path contains an RR join")
    assert analysis.count_joins(result.result) == analysis.count_joins(original)


def _sizes(path):
    """Steps, union arms and joins: what normalizing must never grow."""
    return (analysis.path_length(path), analysis.union_term_count(path),
            analysis.count_joins(path))


@given(expression=reverse_absolute_paths(), document=documents(),
       ruleset=st.sampled_from(("ruleset1", "ruleset2")))
@settings(**SETTINGS)
def test_normalized_rewriting_is_equivalent_and_never_larger(
        expression, document, ruleset):
    """``simplify(rare(q)) ≡ q`` on the DOM evaluator, and no larger than
    ``rare(q)`` by any measure of ``_sizes``."""
    original = parse_xpath(expression)
    try:
        rewritten = rare(original, ruleset=ruleset,
                         max_applications=REWRITE_LIMIT).result
    except RRJoinError:
        pytest.skip("randomly generated path contains an RR join")
    normalized = simplify(rewritten)
    assert all(after <= before for after, before
               in zip(_sizes(normalized), _sizes(rewritten))), (
        to_string(rewritten), to_string(normalized))
    assert analysis.count_reverse_steps(normalized) == 0
    events = list(document_events(document))
    assert (dom_evaluate(normalized, events).node_ids
            == dom_evaluate(original, events).node_ids), (
        expression, to_string(normalized))
    assert simplify(normalized) == normalized


@given(expression=forward_absolute_paths())
@settings(**SETTINGS)
def test_forward_only_queries_compile_exactly_as_parsed(expression):
    """The compile path normalizes what it rewrote, and nothing else."""
    assert QueryCache().compile(expression) == parse_xpath(expression)


def test_normalizing_stays_linear_on_exponential_rewrites():
    """Per output step, normalizing the 51 542-step rewrite of
    ``EXPONENTIAL_INPUT`` costs about what the 1 543-step rewrite of a
    three-interaction chain does (within 5x; a quadratic pass would be
    ~30x dearer)."""
    def seconds_per_step(path):
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            simplify(path)
            best = min(best, time.perf_counter() - started)
        return best / analysis.path_length(path)

    small = rare(following_reverse_chain(3), ruleset="ruleset2").result
    large = rare(EXPONENTIAL_INPUT, ruleset="ruleset2",
                 max_applications=REWRITE_LIMIT).result
    assert analysis.path_length(large) > 30 * analysis.path_length(small)
    assert seconds_per_step(large) < 5 * seconds_per_step(small)
