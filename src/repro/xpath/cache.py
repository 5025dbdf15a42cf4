"""Compiled-query cache: parse + reverse-axis rewriting, memoized.

Selective dissemination of information (the paper's Section 1 use case)
confronts the system with *many* subscriptions, most of which repeat popular
query shapes.  Parsing and — far more costly — reverse-axis removal are pure
functions of the query text and the rule set, so they are memoized here.
:class:`repro.streaming.engine.SubscriptionIndex` compiles every subscription
through this cache; repeated subscription texts are parsed and rewritten
exactly once.

The cache is a small LRU keyed on ``(query, ruleset)``.  Keys may be query
strings or AST nodes (both are hashable); values are the reverse-axis-free
:class:`~repro.xpath.ast.PathExpr` ready for the streaming engine.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Tuple, Union as TypingUnion

from repro.errors import RewriteLimitExceeded
from repro.xpath.analysis import has_reverse_steps
from repro.xpath.ast import PathExpr
from repro.xpath.parser import parse_xpath

DEFAULT_MAXSIZE = 2048


@dataclass(frozen=True)
class CacheInfo:
    """Snapshot of a cache's effectiveness counters."""

    hits: int
    misses: int
    size: int
    maxsize: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class QueryCache:
    """LRU memoization of query compilation (parse + reverse-axis removal)."""

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE):
        if maxsize < 1:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self._entries: "OrderedDict[Tuple[Hashable, Hashable], PathExpr]" = (
            OrderedDict())
        self._hits = 0
        self._misses = 0

    def compile(self, query: TypingUnion[str, PathExpr],
                ruleset: Hashable = "ruleset2") -> PathExpr:
        """Return the reverse-axis-free AST of ``query``.

        String queries are parsed; queries containing reverse axes are
        rewritten with :func:`repro.rewrite.remove_reverse_axes` using the
        given rule set, then normalized (:func:`repro.rewrite.simplify`:
        unsatisfiable arms dropped, ``self`` steps folded, arms merged) —
        forward-only queries are returned exactly as parsed.  A query on
        which RuleSet2 exceeds its rule-application budget is compiled
        under RuleSet1 instead, and cached under the key asked for.
        Results are memoized, so compiling the same subscription text twice
        costs one dictionary lookup.
        """
        key = (query, ruleset)
        cached = self._entries.get(key)
        if cached is not None:
            self._entries.move_to_end(key)
            self._hits += 1
            return cached
        self._misses += 1
        # Imported lazily: repro.rewrite itself imports repro.xpath.
        from repro.rewrite import RuleSet2, remove_reverse_axes, resolve_ruleset, simplify

        path = parse_xpath(query) if isinstance(query, str) else query
        if has_reverse_steps(path):
            try:
                rewritten = remove_reverse_axes(path, ruleset=ruleset)
            except RewriteLimitExceeded:
                # RuleSet2 is exponential in the worst case (Theorem 4.2),
                # RuleSet1 linear (Theorem 4.1).
                if not isinstance(resolve_ruleset(ruleset), RuleSet2):
                    raise
                rewritten = remove_reverse_axes(path, ruleset="ruleset1")
            path = simplify(rewritten)
        self._entries[key] = path
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return path

    def info(self) -> CacheInfo:
        """Hit/miss counters and current size."""
        return CacheInfo(hits=self._hits, misses=self._misses,
                         size=len(self._entries), maxsize=self.maxsize)

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        self._entries.clear()
        self._hits = 0
        self._misses = 0

    def __len__(self) -> int:
        return len(self._entries)


#: Process-wide default cache shared by ``compile_query`` and the
#: subscription index.
_DEFAULT_CACHE = QueryCache()


def default_cache() -> QueryCache:
    """The process-wide cache used when no explicit cache is supplied."""
    return _DEFAULT_CACHE


def compile_query(query: TypingUnion[str, PathExpr],
                  ruleset: Hashable = "ruleset2") -> PathExpr:
    """Compile through the default cache (see :meth:`QueryCache.compile`)."""
    return _DEFAULT_CACHE.compile(query, ruleset=ruleset)


def compile_cache_info() -> CacheInfo:
    """Counters of the default cache."""
    return _DEFAULT_CACHE.info()


def clear_compile_cache() -> None:
    """Empty the default cache (mainly for tests and benchmarks)."""
    _DEFAULT_CACHE.clear()
