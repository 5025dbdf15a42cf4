"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single exception type at the API boundary.  The more
specific subclasses mirror the stages of the pipeline: parsing XML text,
parsing xPath expressions, evaluating paths, rewriting them and streaming
them.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class XMLSyntaxError(ReproError):
    """Raised when XML text is not well formed.

    :class:`repro.xmlmodel.parser.PushTokenizer` sets ``position`` to a byte
    offset into the UTF-8 input, where expat found the fault, and ends the
    message with it; ``position`` is ``None`` where no place in the input is
    at fault.
    """

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class XPathSyntaxError(ReproError):
    """Raised when an xPath expression cannot be parsed."""

    def __init__(self, message, position=None, expression=None):
        detail = message
        if expression is not None and position is not None:
            pointer = " " * position + "^"
            detail = f"{message}\n  {expression}\n  {pointer}"
        super().__init__(detail)
        self.position = position
        self.expression = expression


class EvaluationError(ReproError):
    """Raised when a path cannot be evaluated on a document."""


class RewriteError(ReproError):
    """Base class for rewriting failures."""


class UnsupportedPathError(RewriteError):
    """Raised when a path lies outside the input class of ``rare``.

    Theorems 4.1 and 4.2 of the paper restrict the input of ``rare`` to
    *absolute* paths whose qualifiers contain no *RR joins* (Definition 4.2).
    Relative paths and RR joins can still be handled with the variable-based
    extension in :mod:`repro.rewrite.variables`.
    """


class RRJoinError(UnsupportedPathError):
    """Raised when a qualifier contains an RR join (Definition 4.2)."""


class RewriteLimitExceeded(RewriteError):
    """Raised when a rewrite exceeds the configured rule-application budget.

    RuleSet2 has exponential worst-case behaviour (Theorem 4.2); the limit is
    a safety valve so that callers get a clear error instead of an unbounded
    computation.
    """


class StreamingError(ReproError):
    """Base class for streaming-evaluation failures."""


class ReverseAxisStreamingError(StreamingError):
    """Raised when a path handed to the streaming evaluator has reverse axes.

    The streaming evaluator only supports forward axes; reverse axes must be
    removed first with :func:`repro.remove_reverse_axes`.
    """
