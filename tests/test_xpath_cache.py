"""Unit tests of the compiled-query cache (repro.xpath.cache)."""

import pytest

from repro.errors import RewriteLimitExceeded
from repro.rewrite import rare, simplify
from repro.xpath import analysis
from repro.xpath.cache import (
    QueryCache,
    clear_compile_cache,
    compile_cache_info,
    compile_query,
    default_cache,
)
from repro.xpath.parser import parse_xpath


class TestQueryCache:
    def test_forward_query_is_parsed_only(self):
        cache = QueryCache()
        path = cache.compile("/descendant::name")
        assert path == parse_xpath("/descendant::name")

    def test_reverse_query_is_rewritten(self):
        cache = QueryCache()
        path = cache.compile("/descendant::price/preceding::name")
        assert not analysis.has_reverse_steps(path)

    def test_hit_returns_identical_object(self):
        cache = QueryCache()
        first = cache.compile("/descendant::price/preceding::name")
        second = cache.compile("/descendant::price/preceding::name")
        assert first is second
        info = cache.info()
        assert (info.hits, info.misses, info.size) == (1, 1, 1)

    def test_rulesets_are_cached_separately(self):
        cache = QueryCache()
        ruleset1 = cache.compile("/descendant::price/preceding::name",
                                 ruleset="ruleset1")
        ruleset2 = cache.compile("/descendant::price/preceding::name",
                                 ruleset="ruleset2")
        assert ruleset1 != ruleset2
        assert cache.info().misses == 2

    def test_ruleset2_over_budget_falls_back_to_ruleset1(self):
        # Theorem 4.2's exponential case: RuleSet2 needs 21 975 rule
        # applications, past the default budget of 20 000; RuleSet1 is
        # linear.  The result is cached under the key asked for.
        query = ("/child::a/child::a[ancestor::a]"
                 "/preceding::a[ancestor-or-self::a/ancestor-or-self::a]"
                 "/preceding::a[ancestor-or-self::a/ancestor-or-self::a]")
        with pytest.raises(RewriteLimitExceeded):
            rare(query, ruleset="ruleset2")
        cache = QueryCache()
        path = cache.compile(query)
        assert path == simplify(rare(query, ruleset="ruleset1").result)
        assert cache.compile(query, ruleset="ruleset2") is path
        assert (cache.info().hits, cache.info().misses) == (1, 1)

    def test_ast_inputs_are_cached_too(self):
        cache = QueryCache()
        ast = parse_xpath("/descendant::editor[parent::journal]")
        first = cache.compile(ast)
        second = cache.compile(ast)
        assert first is second
        assert cache.info().hits == 1

    def test_lru_eviction(self):
        cache = QueryCache(maxsize=2)
        cache.compile("/descendant::a")
        cache.compile("/descendant::b")
        cache.compile("/descendant::a")       # refresh "a"
        cache.compile("/descendant::c")       # evicts "b", the LRU entry
        assert len(cache) == 2
        cache.compile("/descendant::b")       # must recompile
        assert cache.info().misses == 4

    def test_clear_resets_counters(self):
        cache = QueryCache()
        cache.compile("/descendant::a")
        cache.compile("/descendant::a")
        cache.clear()
        info = cache.info()
        assert (info.hits, info.misses, info.size) == (0, 0, 0)

    def test_invalid_maxsize(self):
        with pytest.raises(ValueError):
            QueryCache(maxsize=0)

    def test_hit_rate(self):
        cache = QueryCache()
        assert cache.info().hit_rate == 0.0
        cache.compile("/descendant::a")
        cache.compile("/descendant::a")
        assert cache.info().hit_rate == 0.5


class TestDefaultCache:
    def test_compile_query_uses_default_cache(self):
        clear_compile_cache()
        try:
            compile_query("/descendant::a/preceding::b")
            compile_query("/descendant::a/preceding::b")
            info = compile_cache_info()
            assert info.hits == 1
            assert info.misses == 1
            assert default_cache().info() == info
        finally:
            clear_compile_cache()
