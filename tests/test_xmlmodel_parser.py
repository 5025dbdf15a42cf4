"""Unit tests for XML parsing (repro.xmlmodel.parser)."""

import codecs
import time

import pytest

from repro.errors import XMLSyntaxError
from repro.datasets import FIGURE1_XML
from repro.xmlmodel.events import (
    EndDocument,
    EndElement,
    StartDocument,
    StartElement,
    Text,
)
from repro.xmlmodel.parser import (
    PushTokenizer,
    iter_events,
    iter_events_sax,
    parse_xml,
)


class TestTokenizer:
    def test_simple_document_events(self):
        events = list(iter_events("<a><b>hi</b></a>"))
        kinds = [type(event).__name__ for event in events]
        assert kinds == ["StartDocument", "StartElement", "StartElement",
                         "Text", "EndElement", "EndElement", "EndDocument"]

    def test_node_ids_are_document_order(self):
        events = list(iter_events("<a><b>hi</b><c/></a>"))
        starts = [e for e in events if isinstance(e, (StartElement, Text))]
        assert [e.node_id for e in starts] == [1, 2, 3, 4]

    def test_self_closing_element(self):
        events = list(iter_events("<a><price /></a>"))
        tags = [e.tag for e in events if isinstance(e, StartElement)]
        assert tags == ["a", "price"]

    def test_whitespace_only_text_dropped_by_default(self):
        events = list(iter_events("<a>\n  <b/>\n</a>"))
        assert not [e for e in events if isinstance(e, Text)]

    def test_whitespace_kept_on_request(self):
        events = list(iter_events("<a> <b/> </a>", keep_whitespace=True))
        assert [e for e in events if isinstance(e, Text)]

    def test_entities_decoded(self):
        events = list(iter_events("<a>x &lt; y &amp; z &#65;</a>"))
        text = [e for e in events if isinstance(e, Text)][0]
        assert text.value == "x < y & z A"

    def test_comments_and_declaration_ignored(self):
        xml = "<?xml version='1.0'?><!-- hi --><a><b/></a>"
        events = list(iter_events(xml))
        tags = [e.tag for e in events if isinstance(e, StartElement)]
        assert tags == ["a", "b"]

    def test_attributes_become_attribute_nodes(self):
        doc = parse_xml('<a id="1"><b name="x"/></a>')
        assert doc.document_element.tag == "a"
        # root, <a>, @id, <b>, @name
        assert len(doc) == 5
        assert doc.document_element.get_attribute("id") == "1"


class TestWellFormedness:
    def test_mismatched_closing_tag(self):
        with pytest.raises(XMLSyntaxError):
            list(iter_events("<a><b></a></b>"))

    def test_unclosed_element(self):
        with pytest.raises(XMLSyntaxError):
            list(iter_events("<a><b>"))

    def test_stray_closing_tag(self):
        with pytest.raises(XMLSyntaxError):
            list(iter_events("</a>"))

    def test_unterminated_tag(self):
        with pytest.raises(XMLSyntaxError):
            list(iter_events("<a><b"))

    def test_unknown_entity(self):
        with pytest.raises(XMLSyntaxError):
            list(iter_events("<a>&nope;</a>"))

    @pytest.mark.parametrize("document", [
        "<a>&#lt;</a>", "<a>&#A65;</a>", "<a>&#x;</a>", "<a>&#1114112;</a>",
        "<a>&#X41;</a>", "<a>&#65 ;</a>", "<a>&#0;</a>", "<a>&#xFFFE;</a>",
    ])
    def test_character_reference_outside_xml_char_is_a_syntax_error(self, document):
        # Not a bare ValueError from int()/chr(), and not accepted: a
        # reference must spell a character of XML's Char production.
        with pytest.raises(XMLSyntaxError) as raised:
            list(iter_events(document))
        assert raised.value.position == 3

    @pytest.mark.parametrize("document, position", [
        ("<r/><r/>", 4),       # a second root element
        ("x<r/>", 0),          # text before the root ...
        ("<r/>\n x", 6),       # ... or after it
        ("<r/>&amp;", 4),      # a reference is character data too
        ("<r/><![CDATA[]]>", 4),
        ("<a></a\x0b>", 6),    # \x0b is not XML whitespace, nor XML at all
        ("<a></a b>", 3),
        ("<a></ a>", 3),
    ])
    def test_what_only_whitespace_may_surround_is_rejected(self, document, position):
        with pytest.raises(XMLSyntaxError) as raised:
            list(iter_events(document))
        assert raised.value.position == position
        with pytest.raises(XMLSyntaxError):
            list(iter_events_sax(document))


#: One case per error the tokenizer reports: the document, a fragment of the
#: message, and the position it has always been reported at.  (Errors inside
#: a tag point one character before the culprit; that is kept.)
ERROR_POSITIONS = [
    ("<r><a><b></a></r>", "mismatched closing tag", 9),
    ("<r/></a>", "with no open element", 4),
    ('<r><a id="1" x="2" x="3"/></r>', "duplicate attribute", 18),
    ("<r><a x=1/></r>", "requires a quoted value", 7),
    ('<r><a 1x="v"/></r>', "malformed attribute name", 5),
    ("<r><a x/></r>", "missing '=value'", 6),
    ('<r><a x="1"y="2"/></r>', "missing whitespace", 10),
    ('<r><a x="1<2"/></r>', "literal '<'", 8),
    ("<r>text &amp more</r>", "unterminated entity reference", 8),
    ("<r>text &nope; more</r>", "unknown entity", 8),
    ('<r><a x="v &nope;"/></r>', "unknown entity", 10),
    ("<r>x ]]> y</r>", "not allowed in character data", 5),
    ('<r><a x="1"', "unterminated tag", 3),
    ("<r><!-- x", "unterminated comment", 3),
    ("<r><![CDATA[x", "unterminated CDATA section", 3),
    ("<r><?pi x", "unterminated processing instruction", 3),
    ("<r><a>text", "unclosed element", 10),
]


@pytest.mark.parametrize("document, message, position", ERROR_POSITIONS)
def test_error_position_whole_and_at_every_byte_split(document, message, position):
    data = document.encode("utf-8")
    for chunks in ([data], [data[index:index + 1] for index in range(len(data))]):
        tokenizer = PushTokenizer()
        with pytest.raises(XMLSyntaxError, match=message) as raised:
            for chunk in chunks:
                tokenizer.feed(chunk)
            tokenizer.close()
        assert raised.value.position == position


class TestLeniencies:
    """The tokenizer's named leniencies (``repro.xmlmodel.parser``): where it
    accepts what SAX rejects, or reads a document type declaration less."""

    @pytest.mark.parametrize("document", ["", " \n", "<!-- c -->", "<?pi?> <!-- c -->"])
    def test_document_without_an_element(self, document):
        assert list(iter_events(document)) == [StartDocument(0), EndDocument(0)]
        with pytest.raises(XMLSyntaxError):
            list(iter_events_sax(document))

    def test_doctype_is_skipped_wherever_it_appears(self):
        xml = "<a>x<!DOCTYPE a>y</a>"
        assert [e.value for e in iter_events(xml) if isinstance(e, Text)] == ["xy"]
        with pytest.raises(XMLSyntaxError):
            list(iter_events_sax(xml))

    def test_internal_subset_is_skipped_and_declares_nothing(self):
        xml = '<!DOCTYPE a [<!ENTITY e "v"> <!ELEMENT a ANY>]><a>x</a>'
        assert list(iter_events(xml)) == list(iter_events_sax(xml))
        referenced = '<!DOCTYPE a [<!ENTITY e "v">]><a>&e;</a>'
        with pytest.raises(XMLSyntaxError, match="unknown entity"):
            list(iter_events(referenced))
        assert [e.value for e in iter_events_sax(referenced)
                if isinstance(e, Text)] == ["v"]

    def test_non_ascii_name_characters_are_not_checked(self):
        assert [e.tag for e in iter_events("<a\xa0/>")
                if isinstance(e, StartElement)] == ["a\xa0"]
        with pytest.raises(XMLSyntaxError):
            list(iter_events_sax("<a\xa0/>"))

    def test_xml_declaration_is_checked_for_position_only(self):
        assert len(list(iter_events("<?xml?><a/>"))) == 4
        with pytest.raises(XMLSyntaxError):
            list(iter_events_sax("<?xml?><a/>"))
        for misplaced in (" <?xml version='1.0'?><a/>", "<a><?xml version='1.0'?></a>"):
            with pytest.raises(XMLSyntaxError):
                list(iter_events(misplaced))
            with pytest.raises(XMLSyntaxError):
                list(iter_events_sax(misplaced))

    def test_byte_order_mark_starts_the_document(self):
        # Not a leniency: a BOM is no character data, in either front end.
        for xml in ("\ufeff<a/>", "\ufeff<?xml version='1.0'?><a/>"):
            assert list(iter_events(xml)) == list(iter_events_sax(xml))
        tokenizer = PushTokenizer()
        events = tokenizer.feed(codecs.BOM_UTF8[:2]) + tokenizer.feed(
            codecs.BOM_UTF8[2:] + b"<a/>") + tokenizer.close()
        assert events == list(iter_events("<a/>"))


class TestPushTokenizer:
    """Unit tests of the incremental front end (the chunk-boundary
    *equivalence* is covered exhaustively by the property suite)."""

    def test_start_document_on_first_feed(self):
        tokenizer = PushTokenizer()
        assert tokenizer.feed("") == [StartDocument(node_id=0)]
        assert tokenizer.feed("<a>") == [StartElement(tag="a", node_id=1)]

    def test_empty_document(self):
        tokenizer = PushTokenizer()
        assert tokenizer.close() == [StartDocument(node_id=0),
                                     EndDocument(node_id=0)]

    def test_events_emitted_as_soon_as_complete(self):
        tokenizer = PushTokenizer()
        assert tokenizer.feed("<a><b>he") == [
            StartDocument(node_id=0),
            StartElement(tag="a", node_id=1),
            StartElement(tag="b", node_id=2),
        ]
        # Text is held until the next tag decides the coalesced run.
        assert tokenizer.feed("llo</b") == []
        assert tokenizer.feed(">") == [Text(value="hello", node_id=3),
                                       EndElement(tag="b", node_id=2)]
        assert tokenizer.feed("</a>") == [EndElement(tag="a", node_id=1)]
        assert tokenizer.close() == [EndDocument(node_id=0)]

    def test_split_inside_entity_reference(self):
        tokenizer = PushTokenizer()
        events = tokenizer.feed("<a>fish &a")
        events += tokenizer.feed("mp; chips</a>")
        events += tokenizer.close()
        assert [e.value for e in events if isinstance(e, Text)] == \
            ["fish & chips"]

    def test_split_inside_cdata_marker(self):
        tokenizer = PushTokenizer()
        events = tokenizer.feed("<a><![CDA")
        events += tokenizer.feed("TA[x <y>]]")
        events += tokenizer.feed("></a>")
        events += tokenizer.close()
        assert [e.value for e in events if isinstance(e, Text)] == ["x <y>"]

    def test_bytes_split_inside_multibyte_sequence(self):
        encoded = "<a>π</a>".encode("utf-8")
        tokenizer = PushTokenizer()
        events = []
        for index in range(len(encoded)):
            events += tokenizer.feed(encoded[index:index + 1])
        events += tokenizer.close()
        assert [e.value for e in events if isinstance(e, Text)] == ["π"]

    def test_mixed_str_and_bytes_chunks(self):
        tokenizer = PushTokenizer()
        events = tokenizer.feed(b"<a>x")
        events += tokenizer.feed("y</a>")
        events += tokenizer.close()
        assert [e.value for e in events if isinstance(e, Text)] == ["xy"]

    def test_str_chunk_inside_split_multibyte_sequence_rejected(self):
        tokenizer = PushTokenizer()
        tokenizer.feed("<a>".encode("utf-8") + "π".encode("utf-8")[:1])
        with pytest.raises(XMLSyntaxError):
            tokenizer.feed("x")

    def test_truncated_utf8_at_close(self):
        tokenizer = PushTokenizer()
        tokenizer.feed("<a>x</a>".encode("utf-8") + "π".encode("utf-8")[:1])
        with pytest.raises(XMLSyntaxError):
            tokenizer.close()

    def test_unterminated_constructs_reported_at_close(self):
        for fragment, message in [
            ("<a><![CDATA[x", "CDATA"),
            ("<a><!-- x", "comment"),
            ("<a><?pi x", "processing instruction"),
            ("<a><b", "unterminated tag"),
            ("<a><b>", "unclosed element"),
        ]:
            tokenizer = PushTokenizer()
            tokenizer.feed(fragment)
            with pytest.raises(XMLSyntaxError, match=message):
                tokenizer.close()

    def test_feed_after_close_rejected(self):
        tokenizer = PushTokenizer()
        tokenizer.feed("<a/>")
        tokenizer.close()
        assert tokenizer.closed
        with pytest.raises(XMLSyntaxError):
            tokenizer.feed("<b/>")
        with pytest.raises(XMLSyntaxError):
            tokenizer.close()

    def test_mismatched_closing_tag_reported_at_feed_time(self):
        tokenizer = PushTokenizer()
        tokenizer.feed("<a><b>")
        with pytest.raises(XMLSyntaxError, match="mismatched"):
            tokenizer.feed("</a>")

    def test_long_value_fed_in_small_chunks_is_scanned_once(self):
        # A 200 KB attribute value in 64-byte chunks: with the tag's end
        # sought only past what was already scanned, 8x the size costs
        # about 8x; matching the tag from its start on every chunk would
        # cost about 64x.
        def feed_seconds(size):
            data = ('<a x="' + "v" * size + '"/>').encode("utf-8")
            best = float("inf")
            for _ in range(3):
                tokenizer = PushTokenizer()
                start = time.perf_counter()
                events = []
                for index in range(0, len(data), 64):
                    events += tokenizer.feed(data[index:index + 64])
                events += tokenizer.close()
                best = min(best, time.perf_counter() - start)
                assert events[1].attributes == (("x", "v" * size),)
            return best

        assert feed_seconds(200_000) < 24 * feed_seconds(25_000)


class TestParseXML:
    def test_figure1_document_shape(self):
        doc = parse_xml(FIGURE1_XML)
        assert doc.document_element.tag == "journal"
        tags = [node.tag for node in doc.elements()]
        assert tags == ["journal", "title", "editor", "authors", "name", "name", "price"]

    def test_sax_front_end_matches_builtin_tokenizer(self):
        ours = parse_xml(FIGURE1_XML)
        sax = parse_xml(FIGURE1_XML, use_sax=True)
        assert [(n.kind, n.tag, n.value) for n in ours] == \
               [(n.kind, n.tag, n.value) for n in sax]

    def test_sax_event_ids_match_builtin(self):
        ours = [(type(e).__name__, getattr(e, "node_id", None))
                for e in iter_events(FIGURE1_XML)]
        sax = [(type(e).__name__, getattr(e, "node_id", None))
               for e in iter_events_sax(FIGURE1_XML)]
        assert ours == sax
