"""XML text parsing: a push tokenizer over one compiled grammar, and an
``xml.sax`` adapter.

Two independent front ends produce the same event stream:

* :class:`PushTokenizer` / :func:`iter_events` — a dependency-free tokenizer
  for the paper's XML dialect with attributes; comments, processing
  instructions and declarations are dropped (Section 2 leaves out "the
  specificities of XML that are irrelevant").  It lexes with one compiled
  grammar, ``_TOKEN_RE``: one match at the scan position holds the
  character data up to the next ``<`` and the element tag there — start tag
  name, attribute spans (split by ``_ATTRIBUTE_RE``) and empty-element
  slash, or end tag name.  Any other ``<`` opens a comment, PI, CDATA
  section or ``<!DOCTYPE`` (ended with ``str.find``), a tag cut by the end
  of the input so far (its ``>`` is sought from where the last chunk
  ended), or a malformed tag, re-read by :func:`_diagnose_tag` only to
  raise.
* :func:`iter_events_sax` — the same stream through :mod:`xml.sax`.

Both yield :class:`repro.xmlmodel.events.Event` objects with document-order
node ids, and agree on what is well formed (a differential fuzz over
malformed input referees it) but for these tested leniencies of the
tokenizer:

* a document without an element (empty, or only whitespace, comments and
  processing instructions) is ``StartDocument, EndDocument``;
* ``<!DOCTYPE …>`` is skipped wherever it appears; its internal subset ends
  at the first ``]>`` and declares nothing (SAX expands the entities it
  declares; here a reference to one is an unknown entity);
* any non-ASCII character is accepted in a name;
* the XML declaration must start the document, but its content is not
  checked.
"""

from __future__ import annotations

import codecs
import io
import re
import xml.sax
import xml.sax.handler
from typing import Iterator, List, NoReturn, Tuple, Union

from repro.errors import XMLSyntaxError
from repro.xmlmodel.builder import build_document
from repro.xmlmodel.document import Document
from repro.xmlmodel.events import (
    EndDocument,
    EndElement,
    Event,
    StartDocument,
    StartElement,
    Text,
)

#: XML's ``S`` production.  Not ``\s``, which also takes ``\x0b``, ``\x85``…
_S = "[ \t\r\n]"
_WHITESPACE = " \t\r\n"
#: XML's ``Name`` over ASCII; any non-ASCII character is admitted.
_NAME = r"[:A-Z_a-z\u0080-\U0010ffff][-.0-9:A-Z_a-z\u0080-\U0010ffff]*"
_NAME_RE = re.compile(_NAME)
#: The tag grammar.  Matched at the scan position it cannot fail: group 1 is
#: the character data up to the next ``<`` or the end of the buffer; when
#: that ``<`` opens a complete, well-formed element tag, groups 2-4 are a
#: start tag's name, attribute spans and empty-element slash, or group 5 an
#: end tag's name.  (No atomic groups or possessive quantifiers: Python 3.9.)
_TOKEN_RE = re.compile(
    rf"""([^<]*)(?:<(?:({_NAME})((?:{_S}+{_NAME}{_S}*={_S}*"""
    rf"""(?:"[^<"]*"|'[^<']*'))*){_S}*(/?)>|/({_NAME}){_S}*>)?)?""")
#: One attribute within spans the grammar took: its name and quoted value.
_ATTRIBUTE_RE = re.compile(rf"""([^ \t\r\n=]+){_S}*={_S}*("[^"]*"|'[^']*')""")
#: One attribute as :func:`_diagnose_tag` reads it: name, ``=``, quote.
_LOOSE_ATTRIBUTE_RE = re.compile(rf"""{_S}*([^ \t\r\n=]*){_S}*(=?){_S}*(["']?)""")
#: Text between quotes, while looking for the ``>`` of a cut tag.
_TAG_TEXT_RE = re.compile(r"""[^"'>]*""")
#: Characters outside XML's ``Char`` production, illegal anywhere.
_ILLEGAL_CHAR_RE = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")
_NOT_SPACE_RE = re.compile(r"[^ \t\r\n]")
_PI_TARGET_RE = re.compile(rf"({_NAME})(?:{_S}|\Z)")
#: A complete ``<!DOCTYPE …>``; an internal subset ends at the first ``]>``.
_DOCTYPE_RE = re.compile(rf"<!DOCTYPE{_S}[^\[>]*(?:\[.*\]{_S}*)?>", re.DOTALL)
_CHAR_REF_RE = re.compile(r"#([0-9]+)|#x([0-9a-fA-F]+)")
#: What :func:`_unescape` rewrites: references (name, ``;`` if terminated)
#: and line ends; in attribute values also tabs and newlines.
_TEXT_ESCAPE_RE = re.compile(r"&([^&;]*)(;?)|\r\n?")
_VALUE_ESCAPE_RE = re.compile(r"&([^&;]*)(;?)|\r\n?|[\t\n]")
_ENTITY_TABLE = {"lt": "<", "gt": ">", "amp": "&", "quot": '"', "apos": "'"}


def _unescape(raw: str, offset: int, pattern=_TEXT_ESCAPE_RE,
              newline: str = "\n") -> str:
    """Decode references and normalize line ends in one pass over ``raw``
    (at document offset ``offset``): ``\\r\\n`` and ``\\r`` become
    ``newline``, as do tabs and newlines under ``_VALUE_ESCAPE_RE``.  That
    precedes reference decoding (``&#13;`` survives), as XML prescribes and
    expat implements; a character reference must name an XML ``Char``."""
    def replace(match):
        name, semicolon = match.groups()
        if name is None:
            return newline
        if not semicolon:
            raise XMLSyntaxError("unterminated entity reference", offset + match.start())
        if name in _ENTITY_TABLE:
            return _ENTITY_TABLE[name]
        number = _CHAR_REF_RE.fullmatch(name)
        if number is None:
            kind = "character reference" if name[:1] == "#" else "entity"
            raise XMLSyntaxError(f"unknown {kind} &{name};", offset + match.start())
        decimal, hexadecimal = number.groups()
        code = int(decimal) if decimal else int(hexadecimal, 16)
        if not (code in (0x9, 0xA, 0xD) or 0x20 <= code <= 0xD7FF
                or 0xE000 <= code <= 0xFFFD or 0x10000 <= code <= 0x10FFFF):
            raise XMLSyntaxError(f"&{name}; is not an XML character", offset + match.start())
        return chr(code)

    return pattern.sub(replace, raw)


def _diagnose_tag(content: str, offset: int) -> NoReturn:
    """Raise the first error, in document order, of an element tag the
    grammar did not take or whose attributes repeat a name.  ``content`` is
    the tag between ``<`` and ``>``, ``offset`` the offset of its ``<``;
    positions are ``offset`` plus an index into ``content`` — one short of
    the character meant, where these errors have always been reported."""
    def fail(message: str, index: int = 0) -> NoReturn:
        raise XMLSyntaxError(message, offset + index)

    if content[:1] == "/":
        fail(f"malformed closing tag <{content}>")
    if content[-1:] == "/":
        content = content[:-1]
    name = re.match(r"[^ \t\r\n]*", content).group()
    if not _NAME_RE.fullmatch(name):
        fail(f"malformed tag name {name!r}" if name else "empty tag name")
    seen = set()
    end = len(name)
    while True:
        attribute = _LOOSE_ATTRIBUTE_RE.match(content, end)
        attr_name, equals, quote = attribute.groups()
        start, value_start = attribute.start(1), attribute.end()
        if start == len(content):
            fail(f"malformed tag <{content}>")
        what = f"attribute {attr_name!r}"
        if not _NAME_RE.fullmatch(attr_name):
            fail(f"malformed attribute name {attr_name!r} in <{name}> tag", start)
        if not equals:
            fail(f"{what} is missing '=value'", attribute.start(2))
        if not quote:
            fail(f"{what} requires a quoted value", attribute.start(3))
        end = content.find(quote, value_start)
        if end == -1:
            fail(f"unterminated value of {what}", value_start)
        if "<" in content[value_start:end]:
            fail(f"literal '<' in value of {what}", value_start)
        if attr_name in seen:
            fail(f"duplicate attribute {attr_name!r} in <{name}> tag", start)
        seen.add(attr_name)
        _unescape(content[value_start:end], offset + value_start, _VALUE_ESCAPE_RE, " ")
        end += 1
        if end < len(content) and content[end] not in _WHITESPACE:
            fail(f"missing whitespace after {what} in <{name}> tag", end)


#: Markup openers that need more than two characters to classify.  A buffer
#: that is a proper prefix of one of these cannot be tokenized yet.
_AMBIGUOUS_OPENERS = ("<!--", "<![CDATA[", "<!DOCTYPE")

Chunk = Union[str, bytes, bytearray, memoryview]


class PushTokenizer:
    """Incremental (push-mode) tokenizer for the paper's XML dialect.

    :meth:`feed` takes ``str`` or ``bytes`` chunks split *anywhere* — inside
    a tag, a value, a reference, a comment, a CDATA section or a UTF-8
    sequence — and returns the events they complete; :meth:`close` ends the
    document.  Events, errors and error positions are those of the whole
    input fed at once.  Only the construct in progress is buffered, so
    memory is bounded by the largest token, not by the document.
    """

    def __init__(self, keep_whitespace: bool = False):
        self._keep_whitespace = keep_whitespace
        self._decoder = None  # incremental UTF-8 decoder, created on demand
        #: Unconsumed input: after every scan empty, or an incomplete
        #: construct from its ``<``, which is at document offset ``_base``.
        self._buf = ""
        self._base = 0
        self._origin = 0  # where the document starts: 1 after a BOM
        #: Where to resume looking for the end of the incomplete construct
        #: (relative to its start) and, in a tag, the quote left open, so a
        #: construct fed byte by byte is scanned once, not once per byte.
        self._search_from = 0
        self._tag_quote = ""
        #: Chunks without a ``>`` fed meanwhile: every construct ends with
        #: one, so they are joined to ``_buf`` only when it can end.
        self._held: List[str] = []
        self._next_id = 1
        self._open_tags: List[Tuple[str, int]] = []  # (tag, node_id)
        #: A character-data run cut by a chunk boundary, decoded when whole.
        self._raw_parts: List[str] = []
        self._raw_start = 0
        #: Decoded runs (and CDATA) awaiting the next tag, to form one Text.
        self._pending_text: List[str] = []
        self._started = False
        self._closed = False

    def _decode(self, chunk: Chunk) -> str:
        if isinstance(chunk, str):
            if self._decoder is not None and self._decoder.getstate()[0]:
                raise XMLSyntaxError(
                    "str chunk fed while a multi-byte UTF-8 sequence from a "
                    "previous bytes chunk is still incomplete")
            return chunk
        if isinstance(chunk, (bytes, bytearray, memoryview)):
            if self._decoder is None:
                self._decoder = codecs.getincrementaldecoder("utf-8")()
            try:
                return self._decoder.decode(bytes(chunk))
            except UnicodeDecodeError as exc:
                raise XMLSyntaxError(f"undecodable UTF-8 input: {exc}") from exc
        raise TypeError(f"expected str or bytes chunk, got {type(chunk).__name__}")

    def _start(self) -> List[Event]:
        if self._closed:
            raise XMLSyntaxError("PushTokenizer used after close()")
        if self._started:
            return []
        self._started = True
        return [StartDocument(0)]

    def feed(self, chunk: Chunk) -> List[Event]:
        """Consume one chunk; return the events completed by it."""
        events = self._start()
        text = self._decode(chunk)
        if text[:1] == "\ufeff" and not self._base and not self._buf:
            text = text[1:]  # a byte order mark, not character data
            self._base = self._origin = 1
        if text:
            illegal = _ILLEGAL_CHAR_RE.search(text)
            if illegal is not None:
                # Tokenize up to it first: an earlier error wins, however
                # the input was split.
                text = text[:illegal.start()]
            self._held.append(text)
            if not self._search_from or ">" in text:
                self._buf += "".join(self._held)
                self._held.clear()
                self._scan(events)
            if illegal is not None:
                raise XMLSyntaxError(
                    f"character {illegal.group()!r} is not allowed in XML",
                    self._base + len(self._buf) + sum(map(len, self._held)))
        return events

    def close(self) -> List[Event]:
        """End the document; return the remaining events.  Raises
        :class:`XMLSyntaxError` if the input is not a complete document."""
        events = self._start()
        self._closed = True
        if self._decoder is not None:
            try:
                self._decoder.decode(b"", final=True)
            except UnicodeDecodeError as exc:
                raise XMLSyntaxError(
                    f"truncated UTF-8 sequence at end of input: {exc}") from exc
        # After a scan the buffer can only hold incomplete markup.
        for opener, construct in (("<![CDATA[", "CDATA section"), ("<!--", "comment"),
                                  ("<?", "processing instruction"), ("<", "tag")):
            if self._buf.startswith(opener):
                raise XMLSyntaxError(f"unterminated {construct}", self._base)
        if self._raw_parts:
            self._flush_raw()
        if self._open_tags:
            raise XMLSyntaxError(f"unclosed element <{self._open_tags[-1][0]}> "
                                 "at end of document", self._base)
        events.append(EndDocument(0))
        return events

    @property
    def closed(self) -> bool:
        return self._closed

    def _scan(self, events: List[Event]) -> None:
        buf = self._buf
        length = len(buf)
        pos = 0
        if self._search_from and buf[1] not in "?!":
            # A tag cut by a chunk boundary: look for its ``>`` from where the
            # previous chunk ended instead of matching it from its start.
            if self._scan_tag_end(buf, 0) == -1:
                return
        match = _TOKEN_RE.match
        emit = events.append
        open_tags = self._open_tags
        raw_parts = self._raw_parts
        pending = self._pending_text
        next_id = self._next_id
        while pos < length:
            token = match(buf, pos)
            text, tag, spans, empty, end_tag = token.groups()
            value = ""
            if text:
                # The common run — alone before a tag, inside the root, with
                # nothing to check or decode — skips the run buffers.
                if (raw_parts or pending or tag is end_tag or not open_tags
                        or "&" in text or "\r" in text or "]]>" in text):
                    if not raw_parts:
                        self._raw_start = self._base + pos
                    raw_parts.append(text)
                else:
                    value = text
                pos += len(text)
                if pos == length:
                    break  # the run may go on in the next chunk: decoded when whole
            if raw_parts:
                self._flush_raw()  # ``<`` ends the run whatever follows
            if tag is None and end_tag is None:
                end = self._markup(buf, pos)
                if end == -1:
                    break
                pos = end
                continue
            if pending:
                value = "".join(pending)
                pending.clear()
            if value and not self._keep_whitespace:
                value = value.strip()
            if value:
                emit(Text(value, next_id))
                next_id += 1
            if tag is not None:
                if not open_tags and next_id != 1:
                    raise XMLSyntaxError("second root element", self._base + pos)
                attributes = self._attributes(buf, token) if spans else ()
                emit(StartElement(tag, next_id, attributes))
                if empty:
                    emit(EndElement(tag, next_id))
                else:
                    open_tags.append((tag, next_id))
                # Attribute nodes claim the ids right after their element.
                next_id += 1 + len(attributes)
            elif not open_tags:
                raise XMLSyntaxError(f"closing tag </{end_tag}> with no open element",
                                     self._base + pos)
            else:
                expected, node_id = open_tags.pop()
                if expected != end_tag:
                    raise XMLSyntaxError(
                        f"mismatched closing tag </{end_tag}>, "
                        f"expected </{expected}>", self._base + pos)
                emit(EndElement(end_tag, node_id))
            pos = token.end()
        self._next_id = next_id
        # Trim once per scan: per-token cost O(token), not O(rest of buffer).
        self._buf = buf[pos:]
        self._base += pos

    def _attributes(self, buf: str, token) -> Tuple[Tuple[str, str], ...]:
        """The ``(name, value)`` pairs of a start tag the grammar took."""
        found = list(_ATTRIBUTE_RE.finditer(buf, token.start(3), token.end(3)))
        if len(found) > 1 and len({a.group(1) for a in found}) < len(found):
            _diagnose_tag(buf[token.end(1) + 1:token.end() - 1],
                          self._base + token.end(1))
        attributes = []
        for attribute in found:
            value = attribute.group(2)[1:-1]
            if _VALUE_ESCAPE_RE.search(value):
                # Errors at the opening quote, where they were always reported.
                offset = self._base + attribute.start(2)
                value = _unescape(value, offset, _VALUE_ESCAPE_RE, " ")
            attributes.append((attribute.group(1), value))
        return tuple(attributes)

    def _markup(self, buf: str, pos: int) -> int:
        """Consume the construct at ``buf[pos] == "<"`` that the grammar did
        not take; return the position after it, or -1 while it is incomplete.
        Comments, PIs and ``<!DOCTYPE`` are dropped, CDATA is character data,
        an element tag here is cut short or malformed."""
        position = self._base + pos
        if len(buf) - pos < 2:
            return -1
        if buf[pos + 1] == "?":
            end = self._scan_to(buf, "?>", pos, pos + 2)
            if end == -1:
                return -1
            # The target is a name; ``xml`` (any case) is reserved for the
            # declaration, which must start the document.
            target = _PI_TARGET_RE.match(buf, pos + 2, end)
            if target is None or (target.group(1).lower() == "xml" and (
                    target.group(1) != "xml" or position != self._origin)):
                raise XMLSyntaxError("malformed processing instruction",
                                     position)
            return end + 2
        if buf[pos + 1] != "!":
            end = self._scan_tag_end(buf, pos)
            if end == -1:
                return -1
            _diagnose_tag(buf[pos + 1:end], position)
        if buf.startswith("<!--", pos):
            end = self._scan_to(buf, "-->", pos, pos + 4)
            if end == -1:
                return -1
            # "--" may not occur inside, nor "-" right before the "-->".
            if buf.find("--", pos + 4, end + 1) != -1:
                raise XMLSyntaxError("'--' not allowed in a comment", position)
            return end + 3
        if buf.startswith("<![CDATA[", pos):
            end = self._scan_to(buf, "]]>", pos, pos + 9)
            if end == -1:
                return -1
            if not self._open_tags:
                raise XMLSyntaxError(
                    "CDATA section outside the document element", position)
            if end > pos + 9:  # line ends normalized, references kept
                content = buf[pos + 9:end]
                if "\r" in content:
                    content = content.replace("\r\n", "\n").replace("\r", "\n")
                self._pending_text.append(content)
            return end + 3
        if buf.startswith("<!DOCTYPE", pos):
            end = self._scan_to(buf, ">", pos, pos + 9)
            while end != -1 and not _DOCTYPE_RE.fullmatch(buf, pos, end + 1):
                end = self._scan_to(buf, ">", pos, end + 1)
            return -1 if end == -1 else end + 1
        if any(opener.startswith(buf[pos:pos + 9])
               for opener in _AMBIGUOUS_OPENERS):
            return -1  # could still become one of them
        raise XMLSyntaxError("malformed markup declaration", position)

    def _scan_to(self, buf: str, terminator: str, construct_start: int,
                 default_start: int) -> int:
        """Find ``terminator``, remembering progress on a miss."""
        start = max(default_start, construct_start + self._search_from)
        position = buf.find(terminator, start)
        if position == -1:
            # Anything before len - len(terminator) + 1 can never start a
            # later match; skip it next time.
            self._search_from = max(default_start - construct_start,
                                    len(buf) - construct_start
                                    - len(terminator) + 1)
        else:
            self._search_from = 0
        return position

    def _scan_tag_end(self, buf: str, start: int) -> int:
        """Find the ``>`` ending the element tag at ``start``, stepping over
        quoted values (they may hold ``>``); -1 if it is not in ``buf`` yet.
        Resumes where the previous miss stopped, like :meth:`_scan_to`."""
        i = start + max(1, self._search_from)
        quote = self._tag_quote
        while True:
            if quote:
                i = buf.find(quote, i) + 1
                if not i:
                    i = len(buf)
                    break
                quote = ""
            i = _TAG_TEXT_RE.match(buf, i).end()
            if i == len(buf):
                break
            if buf[i] == ">":
                self._search_from = 0
                self._tag_quote = ""
                return i
            quote = buf[i]
            i += 1
        self._search_from = i - start
        self._tag_quote = quote
        return -1

    def _flush_raw(self) -> None:
        """Check and decode the completed character-data run (non-empty
        ``_raw_parts``) into the pending text."""
        raw = "".join(self._raw_parts)
        self._raw_parts.clear()
        start = self._raw_start
        if not self._open_tags:
            # Outside the document element only whitespace may appear
            # (XML's ``Misc``); it is dropped, as in the SAX adapter.
            junk = _NOT_SPACE_RE.search(raw)
            if junk is not None:
                raise XMLSyntaxError("character data outside the document element",
                                     start + junk.start())
            return
        bad = raw.find("]]>")
        if bad != -1:
            # XML 1.0 §2.4: "]]>" only closes a CDATA section.  Checked on
            # the joined raw run, so "&#93;&#93;&gt;" stays legal and a
            # "]]"/">" chunk split cannot slip through.
            raise XMLSyntaxError("']]>' not allowed in character data", start + bad)
        if "&" in raw or "\r" in raw:
            raw = _unescape(raw, start)
        self._pending_text.append(raw)


#: Chunk size used by :func:`iter_events` when driving the push tokenizer;
#: keeps the per-batch event lists bounded for very large documents.
_PULL_CHUNK = 1 << 16


def iter_events(xml_text: str, keep_whitespace: bool = False) -> Iterator[Event]:
    """Tokenize ``xml_text`` into a stream of events (pull mode).

    Character data coalesces as in the :mod:`xml.sax` front end — runs
    separated only by dropped markup or CDATA form one :class:`Text` — so
    node ids agree between the two.  ``keep_whitespace=False`` (the paper's
    model) drops whitespace-only text.  Raises :class:`XMLSyntaxError`."""
    tokenizer = PushTokenizer(keep_whitespace=keep_whitespace)
    for start in range(0, len(xml_text), _PULL_CHUNK):
        yield from tokenizer.feed(xml_text[start:start + _PULL_CHUNK])
    yield from tokenizer.close()


class _SAXEventCollector(xml.sax.handler.ContentHandler):
    """Collects ``xml.sax`` callbacks into our events."""

    def __init__(self, keep_whitespace: bool):
        super().__init__()
        self.events: List[Event] = []
        self._next_id = 1
        self._open_ids: List[tuple] = []
        self._keep_whitespace = keep_whitespace
        self._pending_text: List[str] = []

    def _flush_text(self) -> None:
        value = "".join(self._pending_text)
        self._pending_text = []
        if not self._keep_whitespace:
            value = value.strip()
        if value and self._open_ids:
            self.events.append(Text(value, self._next_id))
            self._next_id += 1

    def startDocument(self):  # noqa: N802 - SAX API naming
        self.events.append(StartDocument(0))

    def endDocument(self):  # noqa: N802
        self._flush_text()
        self.events.append(EndDocument(0))

    def startElement(self, name, attrs):  # noqa: N802
        self._flush_text()
        # ``attrs`` preserves document order (expat fills an insertion-
        # ordered dict); attribute nodes claim the ids right after their
        # element, exactly as the hand tokenizer numbers them.
        attributes = tuple((attr_name, attrs.getValue(attr_name))
                           for attr_name in attrs.getNames())
        self.events.append(StartElement(name, self._next_id, attributes))
        self._open_ids.append((name, self._next_id))
        self._next_id += 1 + len(attributes)

    def endElement(self, name):  # noqa: N802
        self._flush_text()
        tag, node_id = self._open_ids.pop()
        self.events.append(EndElement(tag, node_id))

    def characters(self, content):  # noqa: N802
        self._pending_text.append(content)


def iter_events_sax(xml_text: str, keep_whitespace: bool = False) -> Iterator[Event]:
    """Produce the same event stream as :func:`iter_events` via ``xml.sax``
    (expat), which also takes what the tokenizer's leniencies exclude."""
    collector = _SAXEventCollector(keep_whitespace)
    try:
        xml.sax.parseString(xml_text.encode("utf-8"), collector)
    except xml.sax.SAXParseException as exc:  # pragma: no cover - passthrough
        raise XMLSyntaxError(str(exc)) from exc
    return iter(collector.events)


def parse_xml(xml_text: str, keep_whitespace: bool = False,
              use_sax: bool = False) -> Document:
    """Parse XML text into a :class:`Document`.

    ``use_sax`` selects the :mod:`xml.sax` front end instead of the built-in
    tokenizer; both produce identical documents for the supported dialect.
    """
    front_end = iter_events_sax if use_sax else iter_events
    return build_document(front_end(xml_text, keep_whitespace=keep_whitespace))


def parse_xml_file(path: str, keep_whitespace: bool = False) -> Document:
    """Parse an XML file from disk into a :class:`Document`."""
    with io.open(path, "r", encoding="utf-8") as handle:
        return parse_xml(handle.read(), keep_whitespace=keep_whitespace)
