"""Property: PushTokenizer is invariant under chunk boundaries.

Feeding a document to :class:`repro.xmlmodel.parser.PushTokenizer` split at
*every* 1-character boundary, at every 1-**byte** boundary (UTF-8, so splits
land inside multi-byte sequences), and at random multi-character boundaries
must produce exactly the event stream of :func:`iter_events` on the whole
string — including when the splits fall inside tags, attribute names,
quoted attribute values (with entity references, ``>`` characters and
multi-byte text inside), entity references in character data, comments,
processing instructions and CDATA sections.
"""

from hypothesis import given, settings, strategies as st

from repro.xmlmodel.parser import PushTokenizer, iter_events

# Character data with entity references (splittable mid-reference) and
# non-ASCII characters (splittable mid-UTF-8-sequence in bytes mode).
TEXT_RUNS = (
    "x", "y z", " padded ", "fish &amp; chips", "a &lt;&gt; b",
    "&#65;&#x42;", "&quot;q&apos;", "café 漢字",
)
#: Markup that the tokenizer drops or treats verbatim; every item contains
#: characters that look like terminators of *other* constructs.
DROPPED_MARKUP = (
    "<!-- plain -->", "<!---->", "<!-- > ]]> ?> -->",
    "<?pi?>", "<?target some > data?>",
)
CDATA_SECTIONS = (
    "<![CDATA[verbatim <&> text]]>", "<![CDATA[]]>", "<![CDATA[a]b]]c]]>",
)
TAGS = ("a", "b", "list-item", "n1")
#: Attribute payloads of start tags; chunk splits land inside the names,
#: inside quoted values (either quote style), inside entity and character
#: references within values, inside multi-byte value text, and right at a
#: ``>`` that sits *inside* a quoted value.
ATTRIBUTE_PAYLOADS = (
    "",
    ' id="1"',
    " id='1'",
    ' long-name="x &amp; y"',
    ' a="1" b-c="2>3"',
    ' x="café 漢字"',
    ' refs="&#65;&#x42;&quot;"',
    ' mixed=\'say "hi"\'',
    '  spaced  =  "v"  flag=""',
    ' ws="a\tb\nc"',
)


@st.composite
def _content(draw, depth):
    pieces = draw(st.lists(st.one_of(
        st.sampled_from(TEXT_RUNS),
        st.sampled_from(DROPPED_MARKUP),
        st.sampled_from(CDATA_SECTIONS),
        _element(depth - 1) if depth > 0 else st.sampled_from(("<e/>", "<e />")),
    ), min_size=0, max_size=4))
    return "".join(pieces)


@st.composite
def _element(draw, depth):
    tag = draw(st.sampled_from(TAGS))
    attributes = draw(st.sampled_from(ATTRIBUTE_PAYLOADS))
    if depth <= 0 and draw(st.booleans()):
        return f"<{tag}{attributes}/>"
    body = draw(_content(depth))
    return f"<{tag}{attributes}>{body}</{tag}>"


@st.composite
def xml_documents(draw):
    """A well-formed document, optionally with prolog/trailing markup."""
    prolog = draw(st.sampled_from((
        "", "<?xml version='1.0'?>", "<!-- head -->", "<!DOCTYPE doc>",
        "<?xml version='1.0'?><!DOCTYPE doc [<!ELEMENT doc ANY>]>")))
    trailer = draw(st.sampled_from(("", "<!-- tail -->")))
    return prolog + draw(_element(2)) + trailer


def _reference(text):
    return list(iter_events(text))


def _feed_all(chunks, keep_whitespace=False):
    tokenizer = PushTokenizer(keep_whitespace=keep_whitespace)
    events = []
    for chunk in chunks:
        events.extend(tokenizer.feed(chunk))
    events.extend(tokenizer.close())
    return events


@given(document=xml_documents())
@settings(deadline=None)
def test_every_one_character_split(document):
    assert _feed_all(document) == _reference(document)


@given(document=xml_documents())
@settings(deadline=None)
def test_every_one_byte_split(document):
    encoded = document.encode("utf-8")
    chunks = [encoded[index:index + 1] for index in range(len(encoded))]
    assert _feed_all(chunks) == _reference(document)


@given(document=xml_documents(), data=st.data())
@settings(deadline=None)
def test_random_multi_byte_splits(document, data):
    cuts = sorted(data.draw(st.lists(
        st.integers(min_value=0, max_value=len(document)), max_size=8)))
    bounds = [0] + cuts + [len(document)]
    chunks = [document[start:end] for start, end in zip(bounds, bounds[1:])]
    assert _feed_all(chunks) == _reference(document)


@given(document=xml_documents(), data=st.data())
@settings(deadline=None)
def test_random_splits_of_utf8_bytes(document, data):
    encoded = document.encode("utf-8")
    cuts = sorted(data.draw(st.lists(
        st.integers(min_value=0, max_value=len(encoded)), max_size=8)))
    bounds = [0] + cuts + [len(encoded)]
    chunks = [encoded[start:end] for start, end in zip(bounds, bounds[1:])]
    assert _feed_all(chunks) == _reference(document)


@given(document=xml_documents())
@settings(deadline=None)
def test_one_character_split_keep_whitespace(document):
    tokenizer_events = _feed_all(document, keep_whitespace=True)
    assert tokenizer_events == list(iter_events(document, keep_whitespace=True))
