"""XML data model and event-stream substrate (System S1/S2/S3 in DESIGN.md).

This subpackage provides everything the paper's formal model of Section 2
needs:

* :mod:`repro.xmlmodel.node` — the node model (root, element and text nodes)
  with parent/child/sibling structure and a global document order,
* :mod:`repro.xmlmodel.document` — the :class:`Document` container and a
  convenience builder for constructing documents from nested Python tuples,
* :mod:`repro.xmlmodel.events` — SAX-like events (immutable slotted values),
* :mod:`repro.xmlmodel.parser` — a push tokenizer over the standard
  library's expat plus an :mod:`xml.sax` adapter, both producing event
  streams,
* :mod:`repro.xmlmodel.builder` — event stream ⇄ document conversions,
* :mod:`repro.xmlmodel.generator` — synthetic document generators used by the
  workloads and benchmarks,
* :mod:`repro.xmlmodel.serialize` — document → XML text serialization,
* :mod:`repro.xmlmodel.stream_serialize` — event stream → XML bytes
  re-serialization (substream payload encoding).
"""

from repro.xmlmodel.node import NodeKind, XMLNode
from repro.xmlmodel.document import Document, element, text
from repro.xmlmodel.events import (
    EndDocument,
    EndElement,
    Event,
    StartDocument,
    StartElement,
    Text,
)
from repro.xmlmodel.parser import PushTokenizer, iter_events, parse_xml
from repro.xmlmodel.builder import build_document, document_events
from repro.xmlmodel.serialize import to_xml
from repro.xmlmodel.stream_serialize import (
    StreamSerializer,
    iter_serialized,
    serialize_events,
)
from repro.xmlmodel.generator import (
    DocumentSpec,
    deep_chain_document,
    item_feed_document,
    journal_document,
    random_document,
    wide_document,
)

__all__ = [
    "NodeKind",
    "XMLNode",
    "Document",
    "element",
    "text",
    "Event",
    "StartDocument",
    "EndDocument",
    "StartElement",
    "EndElement",
    "Text",
    "PushTokenizer",
    "iter_events",
    "parse_xml",
    "build_document",
    "document_events",
    "to_xml",
    "StreamSerializer",
    "iter_serialized",
    "serialize_events",
    "DocumentSpec",
    "journal_document",
    "random_document",
    "deep_chain_document",
    "wide_document",
    "item_feed_document",
]
