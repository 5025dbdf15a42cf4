"""XML text parsing: a push tokenizer over the standard library's expat,
and an ``xml.sax`` reference front end.

Both front ends yield :class:`repro.xmlmodel.events.Event` objects with
document-order node ids: attribute nodes take the ids right after their
element, and character data separated only by dropped markup or CDATA
section boundaries forms one :class:`Text`.  Comments, processing
instructions and declarations are dropped (Section 2 leaves out "the
specificities of XML that are irrelevant").

* :class:`PushTokenizer` / :func:`iter_events` — a push adapter over
  :mod:`xml.parsers.expat`.  Expat decides what is well formed: names,
  references, line ends, attribute-value normalization, where an XML
  declaration or a DOCTYPE may stand, and that a document has exactly one
  element (an ``<!ATTLIST`` default is reported as an attribute, as SAX
  reports it).  The adapter decides four things more:

  - the input is UTF-8, whatever its XML declaration says; a UTF-16
    byte-order mark is refused, since expat would switch encoding on it;
  - no entity is ever expanded: an entity declaration (general or
    parameter) in the internal subset raises :class:`XMLSyntaxError`;
  - no external markup is read, so a document that is not standalone (an
    external DTD subset or a parameter-entity reference, without
    ``standalone="yes"``) is refused, as expat's "document is not
    standalone": expat would silently drop from attribute values the
    references to entities such markup might declare;
  - an error's position is a byte offset into the UTF-8 input.

  **The hold rule.**  Expat before 2.6 rescans an incomplete token from its
  start on every ``Parse`` call, so a long attribute value or comment fed
  in small chunks would cost quadratic time.  Whenever more than
  ``_HOLD_FLOOR`` bytes are left unconsumed after a ``Parse``, the next
  chunks are held and parsed together once they are at least as long as
  that tail: the pending token is rescanned each time the input behind it
  doubles, which is linear.  Ordinary tags never leave such a tail, so
  their events come back from the feed that completes them.  Expat 2.6
  defers reparsing on its own, which would hold those events back too; it
  is switched off where it exists.

* :func:`iter_events_sax` — the same stream through :mod:`xml.sax`: the
  reference the differential fuzz compares the push tokenizer against.
"""

from __future__ import annotations

import io
import xml.sax
import xml.sax.handler
from typing import Iterator, List, Union
from xml.parsers import expat

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

Chunk = Union[str, bytes, bytearray, memoryview]

#: Unconsumed bytes past which fed chunks are held (see the hold rule).
_HOLD_FLOOR = 4096
_UTF16_BOMS = (b"\xff\xfe", b"\xfe\xff")


def _refuse_entity(name, is_parameter_entity, *_):
    """Expat's handler of entity declarations; the parse stops at the
    declaration, where :meth:`PushTokenizer._parse` reads the position."""
    entity = f"%{name};" if is_parameter_entity else f"&{name};"
    raise XMLSyntaxError(f"entity {entity} refused: entities are not expanded")


class _EventBuilder:
    """Expat's callbacks made into events.  It holds no reference to the
    parser, whose handlers it provides: a tokenizer dropped before
    :meth:`PushTokenizer.close` (a halted verdict session) is then freed at
    once, not left as a reference cycle for the garbage collector."""

    __slots__ = ("events", "keep_whitespace", "next_id", "open_ids", "pending_text")

    def __init__(self, keep_whitespace: bool):
        self.keep_whitespace = keep_whitespace
        #: Events completed since the last feed returned.
        self.events: List[Event] = [StartDocument(0)]
        self.next_id = 1
        self.open_ids: List[int] = []
        #: Character data awaiting the next tag, to form one Text.
        self.pending_text: List[str] = []

    def start_element(self, name, attributes):
        if self.pending_text:
            self.flush_text()
        node_id = self.next_id
        # ``attributes`` is [name, value, name, value, ...] in document order.
        attributes = tuple(zip(attributes[::2], attributes[1::2])) if attributes else ()
        self.events.append(StartElement(name, node_id, attributes))
        self.open_ids.append(node_id)
        # Attribute nodes claim the ids right after their element.
        self.next_id = node_id + 1 + len(attributes)

    def end_element(self, name):
        if self.pending_text:
            self.flush_text()
        self.events.append(EndElement(name, self.open_ids.pop()))

    def flush_text(self) -> None:
        value = "".join(self.pending_text)
        self.pending_text.clear()
        if not self.keep_whitespace:
            value = value.strip()
        if value:
            self.events.append(Text(value, self.next_id))
            self.next_id += 1


class PushTokenizer:
    """Incremental (push-mode) tokenizer over expat.

    :meth:`feed` takes ``str`` or ``bytes`` chunks split *anywhere* — inside
    a tag, a value, a reference, a comment, a CDATA section or a UTF-8
    sequence — and returns the events they complete; :meth:`close` ends the
    document.  Events, errors and error positions are those of the whole
    input fed at once.  Only the token in progress is buffered, so memory is
    bounded by the largest token, not by the document.
    """

    def __init__(self, keep_whitespace: bool = False):
        builder = _EventBuilder(keep_whitespace)
        parser = expat.ParserCreate("utf-8")
        parser.buffer_text = True
        parser.ordered_attributes = True
        parser.StartElementHandler = builder.start_element
        parser.EndElementHandler = builder.end_element
        parser.CharacterDataHandler = builder.pending_text.append
        parser.EntityDeclHandler = _refuse_entity
        # Returning 0 makes expat raise "document is not standalone".
        parser.NotStandaloneHandler = lambda: 0
        if hasattr(parser, "SetReparseDeferralEnabled"):
            parser.SetReparseDeferralEnabled(False)
        self._builder = builder
        self._parser = parser
        #: Input not yet handed to expat, and how long it must grow before it
        #: is: two bytes at the start (to see a byte-order mark), then the
        #: unconsumed tail while it exceeds ``_HOLD_FLOOR``.
        self._held = bytearray()
        self._wait = 2
        self._fed = 0  # bytes handed to expat
        self._closed = False

    def feed(self, chunk: Chunk) -> List[Event]:
        """Consume one chunk; return the events completed by it."""
        if self._closed:
            raise XMLSyntaxError("PushTokenizer used after close()")
        if isinstance(chunk, str):
            chunk = chunk.encode("utf-8", "surrogatepass")
        elif not isinstance(chunk, (bytes, bytearray, memoryview)):
            raise TypeError(f"expected str or bytes chunk, got {type(chunk).__name__}")
        held = self._held
        held += chunk
        if len(held) >= self._wait:
            self._parse(held, False)
            held.clear()
        builder = self._builder
        events, builder.events = builder.events, []
        return events

    def close(self) -> List[Event]:
        """End the document; return the remaining events.  Raises
        :class:`XMLSyntaxError` if the input is not a complete document."""
        if self._closed:
            raise XMLSyntaxError("PushTokenizer used after close()")
        self._closed = True
        self._parse(self._held, True)
        self._builder.events.append(EndDocument(0))
        return self._builder.events

    @property
    def closed(self) -> bool:
        return self._closed

    def _parse(self, data: bytearray, final: bool) -> None:
        parser = self._parser
        if not self._fed and data[:2] in _UTF16_BOMS:
            raise XMLSyntaxError("UTF-16 byte-order mark: the input must be UTF-8", 0)
        self._fed += len(data)
        try:
            parser.Parse(data, final)
        except expat.ExpatError as exc:
            # -1 when no byte was read (empty input): the document's start.
            raise XMLSyntaxError(expat.ErrorString(exc.code),
                                 max(parser.ErrorByteIndex, 0)) from None
        except XMLSyntaxError as exc:  # raised by _refuse_entity
            raise XMLSyntaxError(exc.args[0], parser.CurrentByteIndex) from None
        tail = self._fed - parser.CurrentByteIndex
        self._wait = tail if tail > _HOLD_FLOOR else 0


#: Chunk size used by :func:`iter_events` when driving the push tokenizer;
#: keeps the per-batch event lists bounded for very large documents.
_PULL_CHUNK = 1 << 16


def iter_events(xml_text: str, keep_whitespace: bool = False) -> Iterator[Event]:
    """Tokenize ``xml_text`` into a stream of events (pull mode).

    ``keep_whitespace=False`` (the paper's model) drops whitespace-only
    text.  Raises :class:`XMLSyntaxError`."""
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
        # element, exactly as the push tokenizer numbers them.
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
    """Produce the same event stream as :func:`iter_events` via ``xml.sax``,
    which expands the entities an internal subset declares."""
    collector = _SAXEventCollector(keep_whitespace)
    try:
        xml.sax.parseString(xml_text.encode("utf-8"), collector)
    except xml.sax.SAXParseException as exc:  # pragma: no cover - passthrough
        raise XMLSyntaxError(str(exc)) from exc
    return iter(collector.events)


def parse_xml(xml_text: str, keep_whitespace: bool = False) -> Document:
    """Parse XML text into a :class:`Document`."""
    return build_document(iter_events(xml_text, keep_whitespace=keep_whitespace))


def parse_xml_file(path: str, keep_whitespace: bool = False) -> Document:
    """Parse an XML file from disk into a :class:`Document`."""
    with io.open(path, "r", encoding="utf-8") as handle:
        return parse_xml(handle.read(), keep_whitespace=keep_whitespace)
