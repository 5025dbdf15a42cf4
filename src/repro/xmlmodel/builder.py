"""Conversions between event streams and documents.

``build_document`` replays a stream of SAX-like events into an in-memory
:class:`Document` (this is what a DOM-based processor does, and it is the
baseline the paper argues against for large inputs).  ``document_events``
goes the other way: it walks an existing document and emits the event stream
a SAX parser would have produced, which lets benchmarks stream synthetic
documents without serializing them to text first.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List

from repro.errors import XMLSyntaxError
from repro.xmlmodel.document import Document
from repro.xmlmodel.events import (
    EndDocument,
    EndElement,
    Event,
    StartDocument,
    StartElement,
    Text,
)
from repro.xmlmodel.node import NodeKind, XMLNode


def build_document(events: Iterable[Event]) -> Document:
    """Materialize an event stream into a :class:`Document`.

    The builder checks the minimal structural invariants (events nest
    properly, text occurs inside elements) and assigns document order anew,
    so streams from any producer can be materialized.
    """
    root = XMLNode(NodeKind.ROOT)
    stack: List[XMLNode] = [root]
    saw_start = False
    saw_end = False
    for event in events:
        if isinstance(event, StartDocument):
            saw_start = True
        elif isinstance(event, EndDocument):
            saw_end = True
        elif isinstance(event, StartElement):
            node = XMLNode(NodeKind.ELEMENT, tag=event.tag)
            if event.attributes:
                node.set_attributes(event.attributes)
            stack[-1].append_child(node)
            stack.append(node)
        elif isinstance(event, EndElement):
            if len(stack) == 1:
                raise XMLSyntaxError(
                    f"end element </{event.tag}> without matching start element"
                )
            node = stack.pop()
            if node.tag != event.tag:
                raise XMLSyntaxError(
                    f"mismatched end element </{event.tag}>, expected </{node.tag}>"
                )
        elif isinstance(event, Text):
            stack[-1].append_child(XMLNode(NodeKind.TEXT, value=event.value))
        else:
            raise TypeError(f"not an event: {event!r}")
    if len(stack) != 1:
        raise XMLSyntaxError(f"unclosed element <{stack[-1].tag}> at end of stream")
    if saw_start and not saw_end:
        raise XMLSyntaxError("event stream started a document but never ended it")
    return Document(root)


def document_events(document: Document) -> Iterator[Event]:
    """Yield the SAX-like event stream corresponding to ``document``.

    Node ids in the stream are the document-order positions of the nodes, so
    answers computed by the streaming evaluator can be compared 1:1 with the
    in-memory evaluator's answers.
    """
    yield StartDocument(document.root.position)

    def walk(node: XMLNode) -> Iterator[Event]:
        if node.is_text:
            yield Text(node.value or "", node.position)
            return
        # Attribute nodes occupy the positions right after their element in
        # the finalized document, so the attribute payload of the start event
        # implicitly carries their ids (position + 1, position + 2, ...).
        yield StartElement(node.tag or "", node.position,
                           node.attribute_items())
        for child in node.children:
            yield from walk(child)
        yield EndElement(node.tag or "", node.position)

    for child in document.root.children:
        yield from walk(child)
    yield EndDocument(document.root.position)
