"""Unit tests for XML parsing (repro.xmlmodel.parser)."""

import codecs
import gc
import time
import weakref

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
from repro.xmlmodel.builder import build_document
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

    @pytest.mark.parametrize("document, position", [
        ("<a>&#lt;</a>", 5), ("<a>&#A65;</a>", 5), ("<a>&#x;</a>", 6),
        ("<a>&#1114112;</a>", 3), ("<a>&#X41;</a>", 5), ("<a>&#65 ;</a>", 7),
        ("<a>&#0;</a>", 3), ("<a>&#xFFFE;</a>", 3),
    ])
    def test_character_reference_outside_xml_char_is_a_syntax_error(
            self, document, position):
        # Not accepted: a reference must spell a character of XML's Char
        # production.  Expat points at the bad character of a misspelled
        # reference, and at the "&" of one naming no XML character.
        with pytest.raises(XMLSyntaxError) as raised:
            list(iter_events(document))
        assert raised.value.position == position

    @pytest.mark.parametrize("document, position", [
        ("<r/><r/>", 4),       # a second root element
        ("x<r/>", 1),          # text before the root ...
        ("<r/>\n x", 6),       # ... or after it
        ("<r/>&amp;", 4),      # a reference is character data too
        ("<r/><![CDATA[]]>", 4),
        ("<a></a\x0b>", 6),    # \x0b is not XML whitespace, nor XML at all
        ("<a></a b>", 7),
        ("<a></ a>", 5),
    ])
    def test_what_only_whitespace_may_surround_is_rejected(self, document, position):
        with pytest.raises(XMLSyntaxError) as raised:
            list(iter_events(document))
        assert raised.value.position == position
        with pytest.raises(XMLSyntaxError):
            list(iter_events_sax(document))


#: One case per kind of malformed input: the document, a fragment of
#: expat's message, and the byte offset expat reports it at.
ERROR_POSITIONS = [
    ("<r><a><b></a></r>", "mismatched tag", 11),
    ("<r/></a>", "invalid token", 5),
    ('<r><a id="1" x="2" x="3"/></r>', "duplicate attribute", 19),
    ("<r><a x=1/></r>", "invalid token", 8),
    ('<r><a 1x="v"/></r>', "invalid token", 6),
    ("<r><a x/></r>", "invalid token", 7),
    ('<r><a x="1"y="2"/></r>', "invalid token", 11),
    ('<r><a x="1<2"/></r>', "invalid token", 10),
    ("<r>text &amp more</r>", "invalid token", 12),
    ("<r>text &nope; more</r>", "undefined entity", 8),
    ('<r><a x="v &nope;"/></r>', "undefined entity", 3),
    ("<r>x ]]> y</r>", "invalid token", 7),
    ('<r><a x="1"', "unclosed token", 3),
    ("<r><!-- x", "unclosed token", 3),
    ("<r><![CDATA[x", "unclosed CDATA section", 13),
    ("<r><?pi x", "unclosed token", 3),
    ("<r><a>text", "no element found", 10),
    # Refused by the adapter (``TestRefusals``).
    ('<!DOCTYPE r [<!ENTITY e "v">]><r/>', "entity &e; refused", 24),
    ('<!DOCTYPE r SYSTEM "r.dtd"><r/>', "document is not standalone", 19),
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


class TestStrictness:
    """Input outside XML's grammar at the document level: the push
    tokenizer rejects it, as SAX does."""

    @pytest.mark.parametrize("document, position", [
        ("", 0), (" \n", 2), ("<!-- c -->", 10), ("<?pi?> <!-- c -->", 17),
    ])
    def test_document_without_an_element(self, document, position):
        with pytest.raises(XMLSyntaxError, match="no element found") as raised:
            list(iter_events(document))
        assert raised.value.position == position
        with pytest.raises(XMLSyntaxError):
            list(iter_events_sax(document))

    def test_doctype_inside_content_is_rejected(self):
        xml = "<a>x<!DOCTYPE a>y</a>"
        with pytest.raises(XMLSyntaxError) as raised:
            list(iter_events(xml))
        assert raised.value.position == 6
        with pytest.raises(XMLSyntaxError):
            list(iter_events_sax(xml))

    def test_non_ascii_non_name_characters_are_rejected_in_names(self):
        with pytest.raises(XMLSyntaxError) as raised:
            list(iter_events("<a\xa0/>"))
        assert raised.value.position == 2
        with pytest.raises(XMLSyntaxError):
            list(iter_events_sax("<a\xa0/>"))
        # A non-ASCII name character is a name character.
        assert [e.tag for e in iter_events("<a\xb7\u00e9/>")
                if isinstance(e, StartElement)] == ["a\xb7\u00e9"]

    def test_malformed_xml_declaration_is_rejected(self):
        with pytest.raises(XMLSyntaxError, match="XML declaration") as raised:
            list(iter_events("<?xml?><a/>"))
        assert raised.value.position == 5
        with pytest.raises(XMLSyntaxError):
            list(iter_events_sax("<?xml?><a/>"))
        for misplaced in (" <?xml version='1.0'?><a/>", "<a><?xml version='1.0'?></a>"):
            with pytest.raises(XMLSyntaxError):
                list(iter_events(misplaced))
            with pytest.raises(XMLSyntaxError):
                list(iter_events_sax(misplaced))

    def test_byte_order_mark_starts_the_document(self):
        # A BOM is no character data, in either front end.
        for xml in ("\ufeff<a/>", "\ufeff<?xml version='1.0'?><a/>"):
            assert list(iter_events(xml)) == list(iter_events_sax(xml))
        tokenizer = PushTokenizer()
        events = tokenizer.feed(codecs.BOM_UTF8[:2]) + tokenizer.feed(
            codecs.BOM_UTF8[2:] + b"<a/>") + tokenizer.close()
        assert events == list(iter_events("<a/>"))


class TestRefusals:
    """What the expat adapter refuses of its own accord: entities, which it
    never expands, documents that are not standalone, and UTF-16 input.
    Each is refused at the construct, before anything after it is read."""

    @staticmethod
    def _refused(prolog):
        """The error raised by feeding ``prolog`` alone: before the element,
        or any reference to an entity, is read."""
        with pytest.raises(XMLSyntaxError) as raised:
            PushTokenizer().feed(prolog)
        return raised.value

    def test_internal_subset_declares_no_entity(self):
        # SAX expands the entities an internal subset declares; the push
        # tokenizer refuses the declaration itself, referenced or not.
        xml = '<!DOCTYPE a [<!ELEMENT a ANY>]><a>x</a>'
        assert list(iter_events(xml)) == list(iter_events_sax(xml))
        for xml in ('<!DOCTYPE a [<!ENTITY e "v"> <!ELEMENT a ANY>]><a>x</a>',
                    '<!DOCTYPE a [<!ENTITY e "v">]><a>&e;</a>'):
            with pytest.raises(XMLSyntaxError, match="entity &e; refused") as raised:
                list(iter_events(xml))
            assert raised.value.position == 24
        referenced = '<!DOCTYPE a [<!ENTITY e "v">]><a>&e;</a>'
        assert [e.value for e in iter_events_sax(referenced)
                if isinstance(e, Text)] == ["v"]

    def test_billion_laughs_internal_subset(self):
        declarations = ['<!ENTITY lol0 "lol">'] + [
            '<!ENTITY lol%d "%s">' % (level, "&lol%d;" % (level - 1) * 10)
            for level in range(1, 10)]
        prolog = "<!DOCTYPE a [" + "".join(declarations) + "]>"
        error = self._refused(prolog)
        assert "entity &lol0; refused" in str(error)
        assert error.position == prolog.index('"lol"')

    def test_parameter_entity_declaration(self):
        prolog = '<!DOCTYPE a [<!ENTITY % p "<!ELEMENT a ANY>"> %p;]>'
        error = self._refused(prolog)
        assert "entity %p; refused" in str(error)
        assert error.position == prolog.index('"<!ELEMENT')

    @pytest.mark.parametrize("prolog, at", [
        ('<!DOCTYPE a SYSTEM "a.dtd">', '"a.dtd"'),
        ('<!DOCTYPE a PUBLIC "-//p" "a.dtd">', '"a.dtd"'),
        ('<!DOCTYPE a [<!ELEMENT a ANY> %p;]>', "%p;"),
    ])
    def test_reference_under_an_external_dtd(self, prolog, at):
        # The external subset (or a parameter entity) is never read, and
        # expat would drop ``&e;``, which it might declare, from a value:
        # x="vw".  Such a document is refused at its DOCTYPE.
        error = self._refused(prolog)
        assert "document is not standalone" in str(error)
        assert error.position == prolog.index(at)
        for body in ('<a x="v&e;w"/>', "<a>x&e;y</a>"):
            with pytest.raises(XMLSyntaxError, match="not standalone"):
                list(iter_events(prolog + body))
        # Declared standalone, it is read without them, and an undeclared
        # entity is an error in a value as in content.
        standalone = '<?xml version="1.0" standalone="yes"?>' + prolog
        assert list(iter_events(standalone + "<a/>")) == list(iter_events("<a/>"))
        for body in ('<a x="v&e;w"/>', "<a>x&e;y</a>"):
            with pytest.raises(XMLSyntaxError, match="undefined entity"):
                list(iter_events(standalone + body))

    @pytest.mark.parametrize("bom", [codecs.BOM_UTF16_LE, codecs.BOM_UTF16_BE])
    def test_utf16_byte_order_mark(self, bom):
        data = "<a>x</a>".encode("utf-16-le" if bom == codecs.BOM_UTF16_LE
                                 else "utf-16-be")
        for chunks in ([bom + data], [bom[:1], bom[1:], data]):
            tokenizer = PushTokenizer()
            with pytest.raises(XMLSyntaxError, match="UTF-16") as raised:
                for chunk in chunks:
                    tokenizer.feed(chunk)
                tokenizer.close()
            assert raised.value.position == 0

    def test_lone_first_byte_is_parsed_at_close(self):
        # The first two bytes are held to look for a byte-order mark.
        tokenizer = PushTokenizer()
        assert tokenizer.feed(b"<") == [StartDocument(0)]
        with pytest.raises(XMLSyntaxError, match="unclosed token") as raised:
            tokenizer.close()
        assert raised.value.position == 0


class TestPushTokenizer:
    """Unit tests of the incremental front end (the chunk-boundary
    *equivalence* is covered exhaustively by the property suite)."""

    def test_start_document_on_first_feed(self):
        tokenizer = PushTokenizer()
        assert tokenizer.feed("") == [StartDocument(node_id=0)]
        assert tokenizer.feed("<a>") == [StartElement(tag="a", node_id=1)]

    def test_empty_document(self):
        # Expat reports no byte read (-1); the position is the start.
        tokenizer = PushTokenizer()
        with pytest.raises(XMLSyntaxError, match="no element found") as raised:
            tokenizer.close()
        assert raised.value.position == 0

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
            ("<a><![CDATA[x", "unclosed CDATA section"),
            ("<a><!-- x", "unclosed token"),
            ("<a><?pi x", "unclosed token"),
            ("<a><b", "unclosed token"),
            ("<a><b>", "no element found"),
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

    def test_dropped_tokenizer_is_freed_without_the_garbage_collector(self):
        # A halted verdict session drops its tokenizer mid-document.  The
        # parser's handlers must not lead back to the tokenizer, or every
        # such document would leave a cycle, with expat's buffers, behind.
        gc.disable()
        try:
            tokenizer = PushTokenizer()
            tokenizer.feed('<!DOCTYPE a [<!ELEMENT a ANY>]><a x="1"><b>t')
            dropped = weakref.ref(tokenizer)
            del tokenizer
            assert dropped() is None
        finally:
            gc.enable()

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

    def test_long_comment_fed_in_small_chunks_is_scanned_once(self):
        # Expat before 2.6 rescans an incomplete comment on every ``Parse``;
        # the hold rule makes that rescan happen each time the input behind
        # it doubles, not on every 64-byte chunk.
        def feed_seconds(size):
            data = ("<a><!--" + "> " * (size // 2) + "--><b/></a>").encode("utf-8")
            best = float("inf")
            for _ in range(3):
                tokenizer = PushTokenizer()
                start = time.perf_counter()
                events = []
                for index in range(0, len(data), 64):
                    events += tokenizer.feed(data[index:index + 64])
                events += tokenizer.close()
                best = min(best, time.perf_counter() - start)
                assert [e.tag for e in events if isinstance(e, StartElement)] == ["a", "b"]
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
        sax = build_document(iter_events_sax(FIGURE1_XML))
        assert [(n.kind, n.tag, n.value) for n in ours] == \
               [(n.kind, n.tag, n.value) for n in sax]

    def test_sax_event_ids_match_builtin(self):
        ours = [(type(e).__name__, getattr(e, "node_id", None))
                for e in iter_events(FIGURE1_XML)]
        sax = [(type(e).__name__, getattr(e, "node_id", None))
               for e in iter_events_sax(FIGURE1_XML)]
        assert ours == sax
