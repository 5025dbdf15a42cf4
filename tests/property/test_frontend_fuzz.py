"""Differential fuzz of the two XML front ends on malformed input.

:func:`~repro.xmlmodel.parser.iter_events` (the push tokenizer) and
:func:`~repro.xmlmodel.parser.iter_events_sax` (``xml.sax``) must agree on
what is well formed, not only on the events of well-formed documents.  Both
sit on expat, so this referees the push adapter: its text coalescing,
whitespace, node ids, and errors at every split.  Every input
here is a *mutant*: a seed document — the router benchmark's three document
shapes and the edge-case corpus of ``tests/test_frontend_equivalence.py`` —
with one to three characters inserted, deleted or replaced, drawn from
markup-significant characters, NUL, letters and digits.

For every mutant both front ends accept with equal events, or both raise
:class:`~repro.errors.XMLSyntaxError` — never another exception — and the
push tokenizer reaches the same outcome (the events, or the error and its
position) on the whole input, at a drawn chunk split and, for the short
seeds, at every 1-byte split.

Each class of defect this fuzz found is replayed below as an ``@example``,
so the derandomized 40-example ``ci`` profile cannot miss it.
"""

import string

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import XMLSyntaxError
from repro.xmlmodel.generator import item_feed_document, tagged_sections_document
from repro.xmlmodel.parser import PushTokenizer, iter_events, iter_events_sax
from repro.xmlmodel.serialize import to_xml
from tests.test_frontend_equivalence import EDGE_CASE_DOCUMENTS

#: The router's pools, shrunk: ``small`` and ``large`` tagged sections (the
#: large one's depth, fewer sections) and a short ``items`` feed.
POOL_SHAPES = [
    to_xml(tagged_sections_document(sections=4, children_per_section=2,
                                    depth=1, seed=1), indent=0),
    to_xml(tagged_sections_document(sections=3, children_per_section=3,
                                    depth=2, seed=2), indent=0),
    to_xml(item_feed_document(items=3, seed=3), indent=0),
]
SEEDS = POOL_SHAPES + EDGE_CASE_DOCUMENTS
#: The seeds short enough to feed byte by byte on every example.
SHORT_SEEDS = [seed for seed in SEEDS if len(seed) <= 200]
ALPHABET = ("<>/&;#=!?-[]:._\"' \t\r\n\x00\x0b"
            + string.ascii_letters + string.digits)

#: One reproduction per class of disagreement the fuzz found in the
#: tokenizer that preceded the compiled grammar.
FINDINGS = [
    # Malformed character references escaped as a bare ValueError.
    "<a>&#lt;</a>", "<a>&#A65;</a>", "<a>&#x;</a>", "<a>&#1114112;</a>",
    '<a refs="&#x4V;"/>',
    # ... or were accepted: not XML characters, or not XML's spelling.
    "<a>&#0;</a>", "<a>&#xFFFE;</a>", "<a>&#X41;</a>", "<a>&#65 ;</a>",
    # A second root element; text, references or CDATA outside the root.
    "<r/><r/>", "x<r/>", "<r/>x", "<r/>&amp;", "<r/><![CDATA[x]]>",
    # Closing tags that are not ``</Name S?>``.
    "<a></a\x0b>", "<a></a b>", "<a></ a>",
    # Names that are not XML names.
    "<-a/>", "<a!/>", '<atempti=""b/>', '<a x!="1"/>',
    # Comments with "--" inside; unknown ``<!`` declarations.
    "<a><!-- a -- b --></a>", "<a><!-- a ---></a>", "<a><!!DOCTYPE a></a>",
    "<a>x<!-6c->y</a>", "<a><!CDATA[]]></a>", "<a><![CDA0A[]]></a>",
    # Processing instructions without a target, or named ``xml``.
    "<a><??></a>", "<a><?1?></a>", "<a><? pi?></a>", "<a><?xml?></a>",
    # Characters outside XML's Char production, anywhere.
    "<a>\x00</a>", "<a><!--\x00--></a>", "<a x='\x0b'/>", "<a/>\x0c",
    # Line ends: SAX normalizes \r and \r\n to \n in text and CDATA.
    "<a>x\ry</a>", "<a>x\r\ny</a>", "<a><![CDATA[x\r\ny\rz]]></a>",
]


@st.composite
def mutants(draw, seeds=SEEDS):
    document = draw(st.sampled_from(seeds))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        position = draw(st.integers(min_value=0, max_value=len(document)))
        char = draw(st.sampled_from(ALPHABET))
        kind = draw(st.sampled_from(("insert", "replace", "delete")))
        tail = document[position:] if kind == "insert" else document[position + 1:]
        document = document[:position] + ("" if kind == "delete" else char) + tail
    return document


def _tokenize(chunks, keep_whitespace):
    """The push tokenizer's events, or ``("error", position)``."""
    tokenizer = PushTokenizer(keep_whitespace=keep_whitespace)
    try:
        events = []
        for chunk in chunks:
            events += tokenizer.feed(chunk)
        return events + tokenizer.close()
    except XMLSyntaxError as exc:
        return ("error", exc.position)


def _sax(document, keep_whitespace):
    try:
        return list(iter_events_sax(document, keep_whitespace=keep_whitespace))
    except XMLSyntaxError:
        return "rejected"


def _replay_findings(test):
    for document in FINDINGS:
        test = example(document=document, keep_whitespace=False, cut=3)(test)
    return test


@given(document=mutants(), keep_whitespace=st.booleans(),
       cut=st.integers(min_value=0, max_value=1 << 16))
@settings(deadline=None)
@_replay_findings
def test_front_ends_agree_on_mutants(document, keep_whitespace, cut):
    try:
        ours = list(iter_events(document, keep_whitespace=keep_whitespace))
    except XMLSyntaxError as exc:
        ours = ("error", exc.position)
    sax = _sax(document, keep_whitespace)
    if isinstance(ours, tuple):
        assert sax == "rejected", document
    else:
        assert ours == sax, document
    data = document.encode("utf-8")
    cut %= len(data) + 1
    assert _tokenize([data[:cut], data[cut:]], keep_whitespace) == ours


@given(document=mutants(SHORT_SEEDS), keep_whitespace=st.booleans())
@settings(deadline=None)
def test_mutants_fed_byte_by_byte(document, keep_whitespace):
    data = document.encode("utf-8")
    whole = _tokenize([document], keep_whitespace)
    assert _tokenize([data[index:index + 1] for index in range(len(data))],
                     keep_whitespace) == whole


@pytest.mark.parametrize("document", FINDINGS)
def test_each_finding_is_malformed_unless_it_is_a_line_end(document):
    # Keeps the replay honest: the examples above exercise rejection, not
    # agreement on some accidentally well-formed input.
    assert (_sax(document, False) == "rejected") == ("\r" not in document)
