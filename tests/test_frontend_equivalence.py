"""Differential tests: the two XML front ends produce identical streams.

The push tokenizer (:func:`repro.xmlmodel.parser.iter_events`) and the
``xml.sax`` adapter (:func:`iter_events_sax`) must agree on the *exact*
event stream — values and document-order node ids alike — or every query
answer referring to node ids silently disagrees between the two front ends.
Two historical bugs motivated this suite: character data split by a dropped
comment used to become two ``Text`` events (SAX coalesces them, shifting
every later node id), and CDATA sections were dropped entirely.
"""

import pytest

from repro.xmlmodel.builder import build_document
from repro.xmlmodel.parser import iter_events, iter_events_sax, parse_xml

#: Well-formed documents exercising the front-end corners where the two
#: parsers could plausibly diverge.
EDGE_CASE_DOCUMENTS = [
    # Comments splitting character data (the node-id regression repro).
    "<a>x<!--c-->y</a>",
    "<a>x<!--one--><!--two-->y</a>",
    "<a> x <!--c--> y </a>",
    "<a><b/>tail<!--c-->more<b/></a>",
    "<a><!--only a comment--></a>",
    # CDATA sections (previously dropped entirely).
    "<a><![CDATA[1 < 2]]></a>",
    "<a>x<![CDATA[ raw & <b> markup ]]>y</a>",
    "<a><![CDATA[]]></a>",
    "<a><![CDATA[first]]><![CDATA[second]]></a>",
    # Processing instructions inside character data.
    "<a>pre<?target some > data?>post</a>",
    "<a><?pi?><b>x</b></a>",
    # Entity references, including numeric ones.
    "<a>x &lt; y &amp; z &#65;&#x42;</a>",
    "<a>&quot;q&quot; &apos;a&apos;</a>",
    # Self-closing elements mixed with text.
    "<a>x<b/>y<c/>z</a>",
    "<a><b/><c/></a>",
    # Whitespace runs (dropped by default, kept on request).
    "<a>\n  <b/>\n  <c>  </c>\n</a>",
    "<a>  leading and trailing  </a>",
    # Line ends: \r\n and a lone \r read as \n, in text and CDATA alike.
    "<a>x\r\ny\rz<![CDATA[\r\n]]>&#13;</a>",
    # Attributes: both quote styles, entities and character references in
    # values, '>' inside a quoted value, whitespace normalization, and the
    # node-id accounting for attribute nodes (they claim the ids right
    # after their element, so every later node id shifts when they drift).
    '<a id="1">x</a>',
    "<a id='1' name='n'><b/></a>",
    '<a title="x &amp; y &lt;z&gt;">t</a>',
    '<a exp="1 &gt; 0" raw="2>3"/>',
    '<a refs="&#65;&#x42;&quot;"/>',
    "<a ws=\"one\ttwo\nthree\">v</a>",
    '<item id="42"><price currency="EUR">9.99</price></item>',
    '<a x="1">pre<b y="2"/>mid<c z="3">t</c>post</a>',
    '<a empty=""/>',
    # Everything at once.
    "<catalogue><!--hdr--><journal>t1<![CDATA[&amp;]]>t2"
    "<?pi x?><price/></journal> <journal>x &gt; y</journal></catalogue>",
    '<catalogue><journal issn="1234"><!--c-->x<price currency="USD"/>'
    "y</journal></catalogue>",
]


@pytest.mark.parametrize("keep_whitespace", [False, True],
                         ids=["strip-ws", "keep-ws"])
@pytest.mark.parametrize("xml", EDGE_CASE_DOCUMENTS)
def test_event_streams_identical(xml, keep_whitespace):
    ours = list(iter_events(xml, keep_whitespace=keep_whitespace))
    sax = list(iter_events_sax(xml, keep_whitespace=keep_whitespace))
    # Event equality covers kind, tag/value AND node id, so any coalescing
    # or numbering divergence fails loudly.
    assert ours == sax


@pytest.mark.parametrize("xml", EDGE_CASE_DOCUMENTS)
def test_built_documents_identical(xml):
    ours = parse_xml(xml)
    sax = build_document(iter_events_sax(xml))
    assert [(n.kind, n.tag, n.value) for n in ours] == \
           [(n.kind, n.tag, n.value) for n in sax]


class TestCommentSplitRepro:
    """Repro: ``<a>x<!--c-->y</a>`` must coalesce into one Text('xy')."""

    def test_single_coalesced_text_event(self):
        from repro.xmlmodel.events import Text
        texts = [e for e in iter_events("<a>x<!--c-->y</a>")
                 if isinstance(e, Text)]
        assert [t.value for t in texts] == ["xy"]

    def test_node_ids_agree_after_the_comment(self):
        # The element after the split text must get the same id from both
        # front ends (this is what the un-coalesced stream got wrong).
        xml = "<a>x<!--c-->y<b/></a>"
        ours = [(type(e).__name__, e.node_id) for e in iter_events(xml)]
        sax = [(type(e).__name__, e.node_id) for e in iter_events_sax(xml)]
        assert ours == sax


class TestAttributeParity:
    """The attribute extension: both front ends agree on attributes AND ids."""

    def test_attribute_values_identical(self):
        xml = '<a id="1" name="x &amp; y">t</a>'
        (ours,) = [e for e in iter_events(xml)
                   if type(e).__name__ == "StartElement"]
        (sax,) = [e for e in iter_events_sax(xml)
                  if type(e).__name__ == "StartElement"]
        assert ours.attributes == (("id", "1"), ("name", "x & y"))
        assert ours == sax

    def test_attribute_nodes_shift_later_ids(self):
        # <a> is node 1, its two attributes claim 2 and 3, <b> gets 4.
        xml = '<a p="1" q="2"><b/></a>'
        ids = {e.tag: e.node_id for e in iter_events(xml)
               if type(e).__name__ == "StartElement"}
        assert ids == {"a": 1, "b": 4}
        sax_ids = {e.tag: e.node_id for e in iter_events_sax(xml)
                   if type(e).__name__ == "StartElement"}
        assert sax_ids == ids

    def test_crlf_in_value_collapses_to_one_space(self):
        # XML end-of-line handling runs before attribute normalization:
        # a literal \r\n pair becomes ONE space, as expat does.
        xml = "<a x=\"p\r\nq\"/>"
        (ours,) = [e for e in iter_events(xml)
                   if type(e).__name__ == "StartElement"]
        assert ours.attributes == (("x", "p q"),)
        assert list(iter_events(xml)) == list(iter_events_sax(xml))

    def test_duplicate_attribute_rejected(self):
        from repro.errors import XMLSyntaxError
        with pytest.raises(XMLSyntaxError):
            list(iter_events('<a x="1" x="2"/>'))

    def test_unquoted_value_rejected(self):
        from repro.errors import XMLSyntaxError
        with pytest.raises(XMLSyntaxError):
            list(iter_events("<a x=1/>"))

    def test_missing_whitespace_between_attributes_rejected(self):
        # SAX rejects '<a x="1"y="2"/>'; the push tokenizer must agree on
        # what is well formed, not only on well-formed streams.
        from repro.errors import XMLSyntaxError
        with pytest.raises(XMLSyntaxError):
            list(iter_events('<a x="1"y="2"/>'))

    def test_invalid_attribute_name_start_rejected(self):
        from repro.errors import XMLSyntaxError
        with pytest.raises(XMLSyntaxError):
            list(iter_events('<a 1x="v"/>'))

    def test_literal_lt_in_value_rejected(self):
        # XML 1.0 forbids a raw '<' in attribute values; SAX rejects it and
        # the push tokenizer must agree (write &lt; instead).
        from repro.errors import XMLSyntaxError
        with pytest.raises(XMLSyntaxError):
            list(iter_events('<a x="1<2"/>'))


class TestCDATARepro:
    """Repro: ``<a><![CDATA[1 < 2]]></a>`` must keep its character data."""

    def test_cdata_content_preserved(self):
        from repro.xmlmodel.events import Text
        texts = [e for e in iter_events("<a><![CDATA[1 < 2]]></a>")
                 if isinstance(e, Text)]
        assert [t.value for t in texts] == ["1 < 2"]

    def test_cdata_is_not_entity_decoded(self):
        from repro.xmlmodel.events import Text
        texts = [e for e in iter_events("<a><![CDATA[a &amp; b]]></a>")
                 if isinstance(e, Text)]
        assert [t.value for t in texts] == ["a &amp; b"]

    def test_unterminated_cdata_rejected(self):
        from repro.errors import XMLSyntaxError
        with pytest.raises(XMLSyntaxError):
            list(iter_events("<a><![CDATA[oops</a>"))


class TestBareCDEndRepro:
    """Repro: a bare ``]]>`` in character data is not well formed.

    XML 1.0 §2.4 forbids the CDATA-section close delimiter in character
    data; expat rejects it, and the hand tokenizer used to accept it —
    silently diverging the two front ends on what is well formed.
    """

    def test_bare_cdend_rejected(self):
        from repro.errors import XMLSyntaxError
        with pytest.raises(XMLSyntaxError):
            list(iter_events("<a>x ]]> y</a>"))

    def test_sax_agrees_it_is_rejected(self):
        from repro.errors import XMLSyntaxError
        with pytest.raises(XMLSyntaxError):
            list(iter_events_sax("<a>x ]]> y</a>"))

    def test_cdend_split_across_chunks_rejected(self):
        from repro.errors import XMLSyntaxError
        from repro.xmlmodel.parser import PushTokenizer
        tokenizer = PushTokenizer()
        tokenizer.feed("<a>x ]]")
        with pytest.raises(XMLSyntaxError):
            tokenizer.feed("> y</a>")
            tokenizer.close()

    def test_cdend_in_trailing_text_rejected_at_close(self):
        # Expat rejects it at the feed already.
        from repro.errors import XMLSyntaxError
        from repro.xmlmodel.parser import PushTokenizer
        tokenizer = PushTokenizer()
        with pytest.raises(XMLSyntaxError):
            tokenizer.feed("<a>x ]]>")
            tokenizer.close()

    def test_character_reference_form_stays_legal(self):
        # The check runs before entity decoding: the escaped spelling must
        # keep producing a literal "]]>" in the text value, as expat does.
        from repro.xmlmodel.events import Text
        xml = "<a>x &#93;&#93;&gt; y</a>"
        texts = [e for e in iter_events(xml) if isinstance(e, Text)]
        assert [t.value for t in texts] == ["x ]]> y"]
        assert list(iter_events(xml)) == list(iter_events_sax(xml))

    def test_cdata_section_split_form_stays_legal(self):
        # The classic escape: close the CDATA section between the brackets.
        from repro.xmlmodel.events import Text
        xml = "<a><![CDATA[x ]]]]><![CDATA[> y]]></a>"
        texts = [e for e in iter_events(xml) if isinstance(e, Text)]
        assert [t.value for t in texts] == ["x ]]> y"]
        assert list(iter_events(xml)) == list(iter_events_sax(xml))

    def test_brackets_without_gt_stay_legal(self):
        from repro.xmlmodel.events import Text
        xml = "<a>m[i][j] = a[]]</a>"
        texts = [e for e in iter_events(xml) if isinstance(e, Text)]
        assert [t.value for t in texts] == ["m[i][j] = a[]]"]
        assert list(iter_events(xml)) == list(iter_events_sax(xml))
