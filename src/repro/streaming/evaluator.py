"""Public streaming-evaluation API.

``stream_evaluate`` answers a reverse-axis-free path over an event stream in
a single pass and reports which nodes (by document-order id) were selected
together with the resource accounting of the run.  ``stream_matches`` is the
boolean variant used for selective dissemination of information (SDI): does
the document match the subscription at all?

Both are a session of :class:`~repro.streaming.matcher.MultiMatcher` over a
one-subscription :class:`~repro.streaming.engine.SubscriptionIndex` — there
is no second single-query engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Union as TypingUnion

from repro.errors import ReverseAxisStreamingError
from repro.streaming.delivery import Delivery, NodeIdDelivery, VerdictDelivery
from repro.streaming.engine import SubscriptionIndex
from repro.streaming.matcher import MultiMatcher
from repro.streaming.stats import StreamStats
from repro.xmlmodel.events import Event
from repro.xpath.analysis import has_reverse_steps
from repro.xpath.ast import PathExpr
from repro.xpath.cache import QueryCache
from repro.xpath.parser import parse_xpath
from repro.xpath.serializer import to_string


@dataclass
class StreamResult:
    """Outcome of a single-pass streaming evaluation."""

    node_ids: List[int]
    stats: StreamStats

    @property
    def matched(self) -> bool:
        """Whether the path selected at least one node."""
        return bool(self.node_ids)

    def __iter__(self):
        return iter(self.node_ids)

    def __len__(self) -> int:
        return len(self.node_ids)


def _session(path: TypingUnion[str, PathExpr], backend: Optional[str],
             delivery: Delivery) -> MultiMatcher:
    """A session over a one-subscription index for ``path``.

    Reverse axes are refused here rather than rewritten as the index would;
    the private one-entry cache keeps single queries out of the process-wide
    compile cache that indexes and brokers share.
    """
    if isinstance(path, str):
        path = parse_xpath(path)
    if has_reverse_steps(path):
        raise ReverseAxisStreamingError(
            f"path {to_string(path)} contains reverse axes; rewrite it with "
            f"repro.rewrite.remove_reverse_axes first")
    index = SubscriptionIndex([path], cache=QueryCache(maxsize=1))
    return index.matcher(backend=backend, delivery=delivery)


def stream_evaluate(path: TypingUnion[str, PathExpr],
                    events: Iterable[Event],
                    backend: Optional[str] = None) -> StreamResult:
    """Evaluate a reverse-axis-free path over an event stream in one pass.

    Parameters
    ----------
    path:
        A reverse-axis-free absolute path (AST or xPath text).  Paths with
        reverse axes raise :class:`repro.errors.ReverseAxisStreamingError`;
        rewrite them first with :func:`repro.rewrite.remove_reverse_axes`.
        Relative paths raise :class:`repro.errors.StreamingError` before any
        event is read.
    events:
        Any iterable of SAX-like events — from
        :func:`repro.xmlmodel.parser.iter_events` (XML text),
        :func:`repro.xmlmodel.builder.document_events` (an in-memory
        document) or a custom producer.
    backend:
        ``"dfa"`` (default) or ``"expectations"`` — the structural dispatch
        engine (see :meth:`repro.streaming.engine.SubscriptionIndex.matcher`);
        ``None`` defers to the ``REPRO_STREAMING_BACKEND`` environment
        variable, then to ``"dfa"``.  The expectation engine is the
        differential-testing semantics reference.

    Returns
    -------
    StreamResult
        The selected node ids (document-order positions) and the run's
        resource statistics.
    """
    result = _session(path, backend, NodeIdDelivery()).process(events)
    return StreamResult(node_ids=result.results[0].node_ids,
                        stats=result.stats)


def stream_matches(path: TypingUnion[str, PathExpr],
                   events: Iterable[Event],
                   backend: Optional[str] = None) -> bool:
    """Whether the document on the stream matches the path at all (SDI check).

    A verdict session: it stops reading ``events`` at the event that decides
    the match.
    """
    return bool(_session(path, backend, VerdictDelivery())
                .process(events).matching_keys)
