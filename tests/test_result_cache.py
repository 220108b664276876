"""Result cache: canonical keys, LRU/byte eviction, version invalidation.

Covers the PR-7 cache hierarchy additions: the federation-wide subquery
result cache, variable-renaming-invariant canonical keys (Hypothesis
properties), the stale-read regression for every version-keyed cache
after a TripleStore mutation, cache-warmth-aware delay classification,
and the replica/fragment registration validation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LusailEngine
from repro.federation import ResultCache, canonical_subquery_key
from repro.rdf import IRI, Literal, Triple, TriplePattern, Variable
from repro.rdf import parse as nt_parse
from repro.sparql.expressions import CompareExpr, TermExpr
from repro.sparql.results import ResultSet

from .conftest import (
    QA_EXPECTED,
    QUERY_QA,
    RDF_TYPE,
    UB,
    build_paper_federation,
    result_values,
)

XSD_INT = "http://www.w3.org/2001/XMLSchema#integer"


def _result(*rows, width=1):
    header = tuple(Variable(f"c{i}") for i in range(width))
    return ResultSet(header, [
        row if isinstance(row, tuple) else (IRI(f"http://x/{row}"),)
        for row in rows
    ])


class TestResultCacheUnit:
    def test_hit_miss_counters(self):
        cache = ResultCache()
        assert cache.get("ep", 0, "k") is None
        cache.put("ep", 0, "k", _result("a"))
        hit = cache.get("ep", 0, "k")
        assert hit is not None and len(hit.rows) == 1
        assert cache.hits == 1 and cache.misses == 1

    def test_version_is_part_of_the_key(self):
        cache = ResultCache()
        cache.put("ep", 0, "k", _result("a"))
        assert cache.get("ep", 1, "k") is None
        assert cache.get("ep", 0, "k") is not None

    def test_get_returns_fresh_result_set(self):
        cache = ResultCache()
        cache.put("ep", 0, "k", _result("a"))
        first = cache.get("ep", 0, "k")
        first.rows.append((IRI("http://x/intruder"),))
        second = cache.get("ep", 0, "k")
        assert len(second.rows) == 1

    def test_projection_rewrites_header(self):
        cache = ResultCache()
        cache.put("ep", 0, "k", _result("a"))
        renamed = cache.get("ep", 0, "k", projection=[Variable("other")])
        assert renamed.variables == (Variable("other"),)

    def test_lru_entry_eviction(self):
        cache = ResultCache(max_entries=2)
        cache.put("ep", 0, "k1", _result("a"))
        cache.put("ep", 0, "k2", _result("b"))
        assert cache.get("ep", 0, "k1") is not None  # refresh k1
        cache.put("ep", 0, "k3", _result("c"))      # evicts k2 (LRU)
        assert cache.get("ep", 0, "k2") is None
        assert cache.get("ep", 0, "k1") is not None
        assert cache.get("ep", 0, "k3") is not None
        assert cache.evictions == 1

    def test_byte_budget_eviction(self):
        small = _result("a")
        entry_bytes = ResultCache.ENTRY_OVERHEAD_BYTES + small.estimated_bytes()
        cache = ResultCache(max_bytes=2 * entry_bytes)
        cache.put("ep", 0, "k1", _result("a"))
        cache.put("ep", 0, "k2", _result("b"))
        cache.put("ep", 0, "k3", _result("c"))
        assert len(cache) == 2
        assert cache.current_bytes <= cache.max_bytes
        assert cache.get("ep", 0, "k1") is None

    def test_oversized_entry_is_not_cached(self):
        cache = ResultCache(max_bytes=8)
        cache.put("ep", 0, "k", _result("a", "b", "c"))
        assert len(cache) == 0

    def test_replace_same_key_adjusts_bytes(self):
        cache = ResultCache()
        cache.put("ep", 0, "k", _result("a", "b", "c"))
        cache.put("ep", 0, "k", _result("a"))
        assert len(cache) == 1
        expected = ResultCache.ENTRY_OVERHEAD_BYTES + _result("a").estimated_bytes()
        assert cache.current_bytes == expected

    def test_clear_keeps_counters(self):
        cache = ResultCache()
        cache.put("ep", 0, "k", _result("a"))
        cache.get("ep", 0, "k")
        cache.clear()
        assert len(cache) == 0 and cache.current_bytes == 0
        assert cache.hits == 1
        assert cache.get("ep", 0, "k") is None


# ----------------------------------------------------------------------
# Canonical-key properties
# ----------------------------------------------------------------------

_NAMES = ("a", "b", "c", "d")
_IRIS = tuple(IRI(f"http://t/{n}") for n in ("p", "q", "r"))

_variables = st.sampled_from(_NAMES).map(Variable)
_grounds = st.one_of(
    st.sampled_from(_IRIS),
    st.from_regex(r"[a-z0-9]{1,4}", fullmatch=True).map(Literal),
)
_terms = st.one_of(_variables, _grounds)
_patterns = st.builds(TriplePattern, _terms, _terms, _terms)
_pattern_lists = st.lists(_patterns, min_size=1, max_size=4)


def _rename_pattern(pattern, mapping):
    return TriplePattern(*[
        mapping.get(t, t) if isinstance(t, Variable) else t
        for t in pattern.as_tuple()
    ])


def _normal_form(patterns):
    """Independent reference normalization: variables -> first-use index."""
    order = {}
    shape = []
    for pattern in patterns:
        row = []
        for term in pattern.as_tuple():
            if isinstance(term, Variable):
                row.append(("var", order.setdefault(term, len(order))))
            else:
                row.append(("ground", term.n3()))
        shape.append(tuple(row))
    return tuple(shape)


class TestCanonicalKeyProperties:
    @given(_pattern_lists, st.permutations(list(_NAMES)))
    @settings(max_examples=120, deadline=None)
    def test_invariant_under_variable_renaming(self, patterns, permuted):
        mapping = {
            Variable(old): Variable(f"renamed_{new}")
            for old, new in zip(_NAMES, permuted)
        }
        renamed = [_rename_pattern(p, mapping) for p in patterns]
        variables = sorted(
            {v for p in patterns for v in p.variables()},
            key=lambda v: v.name,
        )
        assert canonical_subquery_key(
            patterns, projection=variables
        ) == canonical_subquery_key(
            renamed, projection=[mapping[v] for v in variables]
        )

    @given(_pattern_lists, _pattern_lists)
    @settings(max_examples=150, deadline=None)
    def test_collision_freedom(self, left, right):
        same_key = (
            canonical_subquery_key(left) == canonical_subquery_key(right)
        )
        assert same_key == (_normal_form(left) == _normal_form(right))

    def test_repeated_variable_is_distinguished(self):
        p = _IRIS[0]
        self_loop = [TriplePattern(Variable("x"), p, Variable("x"))]
        two_vars = [TriplePattern(Variable("x"), p, Variable("y"))]
        assert canonical_subquery_key(self_loop) != canonical_subquery_key(two_vars)

    def test_literal_datatype_and_language_are_distinguished(self):
        p = _IRIS[0]
        keys = {
            canonical_subquery_key([TriplePattern(Variable("x"), p, literal)])
            for literal in (
                Literal("5"),
                Literal("5", datatype=XSD_INT),
                Literal("5", language="en"),
            )
        }
        assert len(keys) == 3

    def test_filter_role_swap_is_distinguished(self):
        """?x p ?y FILTER(?x<5) vs FILTER(?y<5): same bare patterns."""
        patterns = [TriplePattern(Variable("x"), _IRIS[0], Variable("y"))]
        def keyed(name):
            fltr = CompareExpr(
                "<", TermExpr(Variable(name)), TermExpr(Literal("5", datatype=XSD_INT))
            )
            return canonical_subquery_key(patterns, filters=[fltr])
        assert keyed("x") != keyed("y")

    def test_projection_is_part_of_the_key(self):
        patterns = [TriplePattern(Variable("x"), _IRIS[0], Variable("y"))]
        assert canonical_subquery_key(
            patterns, projection=[Variable("x")]
        ) != canonical_subquery_key(patterns, projection=[Variable("y")])

    def test_values_constraint_is_part_of_the_key(self):
        patterns = [TriplePattern(Variable("x"), _IRIS[0], Variable("y"))]
        unconstrained = canonical_subquery_key(patterns)
        constrained = canonical_subquery_key(
            patterns, values_variable=Variable("x"), values_terms=[_IRIS[1]]
        )
        assert unconstrained != constrained


# ----------------------------------------------------------------------
# Stale reads after store mutation (regression for every cache layer)
# ----------------------------------------------------------------------

class TestMutationInvalidation:
    def test_removed_triple_disappears_from_answers(self):
        federation = build_paper_federation()
        engine = LusailEngine(federation)
        first = engine.execute(QUERY_QA)
        assert result_values(first.result) == QA_EXPECTED

        # Tim's cross-endpoint PhD made (Kim, Tim, MIT, "XXX") an answer.
        federation.endpoint("ep2").store.remove(Triple(
            IRI("http://cmu.edu/Tim"),
            IRI(f"{UB}PhDDegreeFrom"),
            IRI("http://mit.edu/MIT"),
        ))
        second = engine.execute(QUERY_QA)
        expected = {
            row for row in QA_EXPECTED if row[1] != "http://cmu.edu/Tim"
        }
        assert result_values(second.result) == expected

    def test_added_triples_appear_in_answers(self):
        federation = build_paper_federation()
        engine = LusailEngine(federation)
        first = engine.execute(QUERY_QA)
        assert result_values(first.result) == QA_EXPECTED

        # A brand-new advisee/advisor pair on ep1: the ASK cache must
        # not pin the old source set, the COUNT cache must not pin the
        # old cardinalities, and the result cache must not replay the
        # old relations.
        new_rows = f"""
        <http://mit.edu/Zoe> <{RDF_TYPE}> <{UB}GraduateStudent> .
        <http://mit.edu/Zoe> <{UB}advisor> <http://mit.edu/Ann> .
        <http://mit.edu/Ann> <{UB}teacherOf> <http://mit.edu/c1> .
        <http://mit.edu/Zoe> <{UB}takesCourse> <http://mit.edu/c1> .
        <http://mit.edu/Ann> <{UB}PhDDegreeFrom> <http://mit.edu/MIT> .
        """
        store = federation.endpoint("ep1").store
        for triple in nt_parse(new_rows):
            store.add(triple)
        second = engine.execute(QUERY_QA)
        # Zoe is the new answer; Sam (already advised by Ann, already
        # taking c1) becomes one too now that Ann teaches c1 with a PhD.
        assert result_values(second.result) == QA_EXPECTED | {
            (
                "http://mit.edu/Zoe", "http://mit.edu/Ann",
                "http://mit.edu/MIT", "XXX",
            ),
            (
                "http://mit.edu/Sam", "http://mit.edu/Ann",
                "http://mit.edu/MIT", "XXX",
            ),
        }


# ----------------------------------------------------------------------
# Cache warmth: the second pass is (nearly) request-free
# ----------------------------------------------------------------------

class TestWarmSecondPass:
    def test_repeat_execution_avoids_requests(self):
        engine = LusailEngine(build_paper_federation())
        first = engine.execute(QUERY_QA)
        second = engine.execute(QUERY_QA)
        assert result_values(second.result) == result_values(first.result)
        assert second.metrics.requests <= first.metrics.requests // 10
        assert second.metrics.result_cache_hits > 0
        assert second.metrics.requests_avoided > 0

    def test_renamed_query_still_hits(self):
        engine = LusailEngine(build_paper_federation())
        engine.execute(QUERY_QA)
        renamed = (
            QUERY_QA.replace("?S", "?student").replace("?P", "?prof")
            .replace("?U", "?university").replace("?A", "?addr")
            .replace("?C", "?course")
        )
        second = engine.execute(renamed)
        assert result_values(second.result) == QA_EXPECTED
        assert second.metrics.requests == 0

    def test_warm_subqueries_are_not_delayed(self):
        engine = LusailEngine(build_paper_federation())
        cold = engine.execute(QUERY_QA, trace=True)
        warm = engine.execute(QUERY_QA, trace=True)
        cold_info = cold.trace.of_kind("decomposition")[0].detail["subqueries"]
        warm_info = warm.trace.of_kind("decomposition")[0].detail["subqueries"]
        assert not any(info["cache_warm"] for info in cold_info)
        assert all(info["cache_warm"] for info in warm_info)
        assert not any(info["delayed"] for info in warm_info)

    def test_mutation_resets_warmth(self):
        federation = build_paper_federation()
        engine = LusailEngine(federation)
        engine.execute(QUERY_QA)
        federation.endpoint("ep1").store.add(Triple(
            IRI("http://mit.edu/extra"), IRI(f"{UB}name"), Literal("x"),
        ))
        after = engine.execute(QUERY_QA, trace=True)
        info = after.trace.of_kind("decomposition")[0].detail["subqueries"]
        assert not all(i["cache_warm"] for i in info)
        assert after.metrics.requests > 0


    def test_row_order_does_not_depend_on_which_sources_hit(self):
        """Regression (flaky at 7048a24 under the serving layer, where a
        concurrent query can cache one source mid-flight): cache-served
        pieces used to union ahead of fetched ones, so a partial hit
        reordered the answer's rows."""
        from repro.datasets.lubm import LUBM_QUERIES, LubmGenerator

        federation = LubmGenerator(universities=2).build_federation()
        engine = LusailEngine(federation)
        cold = engine.execute(LUBM_QUERIES["Q1"])
        # Invalidate only the *first* source's entries: it is fetched
        # again while the second is served from the cache.
        federation.endpoint("university0").store.add(Triple(
            IRI("http://example.org/unrelated"), IRI(f"{UB}unrelated"),
            Literal("x"),
        ))
        mixed = engine.execute(LUBM_QUERIES["Q1"])
        assert 0 < mixed.metrics.result_cache_hits
        assert 0 < mixed.metrics.select_requests
        assert mixed.result.rows == cold.result.rows

# ----------------------------------------------------------------------
# Replica / fragment registration validation
# ----------------------------------------------------------------------

class TestReplicaValidation:
    def test_unknown_primary_raises_helpful_keyerror(self):
        federation = build_paper_federation()
        with pytest.raises(KeyError, match="unknown fragment endpoint 'nope'"):
            federation.declare_fragment("f", ("nope", "ep2"), policy="failover")

    def test_unknown_replica_raises_helpful_keyerror(self):
        federation = build_paper_federation()
        with pytest.raises(KeyError) as err:
            federation.declare_fragment("f", ("ep1", "ghost"), policy="failover")
        message = str(err.value)
        assert "unknown fragment endpoint 'ghost'" in message
        assert "ep1" in message and "ep2" in message  # lists known ids

    def test_declare_fragment_validation(self):
        federation = build_paper_federation()
        with pytest.raises(ValueError):
            federation.declare_fragment("f", ("ep1",))
        with pytest.raises(ValueError):
            federation.declare_fragment("f", ("ep1", "ep1"))
        with pytest.raises(KeyError):
            federation.declare_fragment("f", ("ep1", "ghost"))
        with pytest.raises(ValueError, match="policy"):
            federation.declare_fragment("f", ("ep1", "ep2"), policy="standby")
        federation.declare_fragment("f", ("ep1", "ep2"))
        with pytest.raises(ValueError):
            federation.declare_fragment("f", ("ep1", "ep2"))
        assert [fragment.name for fragment in federation.fragments] == ["f"]
