"""Tests for the compile-once BGP planner, batch executor, and the
satellite changes that rode along (hash MINUS, COUNT cache, ERH context
manager, per-request compute attribution)."""

import pytest

from repro.endpoint import LOCAL_CLUSTER, LocalEndpoint
from repro.federation import ElasticRequestHandler, Federation, ProbeCache, Request
from repro.rdf import IRI, Triple, TriplePattern, Variable, parse as nt_parse
from repro.sparql import Evaluator, EvaluatorStats, build_plan, parse_query
from repro.store import TripleStore

from .reference import SeedEvaluator

UB = "http://ub/"


def _iri(name):
    return IRI(UB + name)


@pytest.fixture
def store():
    triples = []
    # 20 students, 2 advisors, one rare department
    for i in range(20):
        student = IRI(f"http://u0/s{i}")
        triples.append(Triple(student, _iri("type"), _iri("Student")))
        triples.append(Triple(student, _iri("advisor"), IRI(f"http://u0/p{i % 2}")))
    triples.append(Triple(IRI("http://u0/s0"), _iri("memberOf"), _iri("d0")))
    return TripleStore(triples)


class TestBuildPlan:
    def test_selective_pattern_first(self, store):
        patterns = [
            TriplePattern(Variable("s"), _iri("type"), _iri("Student")),  # 20
            TriplePattern(Variable("s"), _iri("memberOf"), Variable("d")),  # 1
        ]
        plan = build_plan(store, patterns)
        assert plan.order[0].predicate == _iri("memberOf")

    def test_disconnected_patterns_deferred(self, store):
        patterns = [
            TriplePattern(Variable("x"), _iri("advisor"), Variable("y")),  # 20
            TriplePattern(Variable("s"), _iri("memberOf"), Variable("d")),  # 1
            TriplePattern(Variable("s"), _iri("type"), _iri("Student")),  # 20
        ]
        plan = build_plan(store, patterns)
        # memberOf goes first (cheapest); the s-connected type pattern must
        # come before the disconnected advisor pattern despite equal counts
        assert plan.order[0].predicate == _iri("memberOf")
        assert plan.order[1].predicate == _iri("type")

    def test_deterministic_tiebreak_on_syntactic_order(self, store):
        patterns = [
            TriplePattern(Variable("a"), _iri("advisor"), Variable("b")),
            TriplePattern(Variable("a"), _iri("type"), Variable("c")),
        ]
        first = build_plan(store, patterns)
        second = build_plan(store, patterns)
        assert first.order == second.order

    def test_plan_records_store_version(self, store):
        plan = build_plan(store, [TriplePattern(Variable("s"), _iri("type"), Variable("o"))])
        assert plan.store_version == store.version

    def test_stats_updated(self, store):
        stats = EvaluatorStats()
        build_plan(store, [TriplePattern(Variable("s"), _iri("type"), Variable("o"))], stats=stats)
        assert stats.plans_built == 1
        assert stats.plan_seconds >= 0.0


class TestPlanCache:
    QUERY = f"""
    SELECT ?s ?a WHERE {{
        ?s <{UB}type> <{UB}Student> .
        ?s <{UB}advisor> ?a .
    }}
    """

    def test_plan_built_once_then_cached(self, store):
        evaluator = Evaluator(store)
        query = parse_query(self.QUERY)
        evaluator.select(query)
        evaluator.select(query)
        evaluator.select(query)
        assert evaluator.stats.plans_built == 1
        assert evaluator.stats.plan_cache_hits == 2

    def test_store_mutation_invalidates_plan(self, store):
        evaluator = Evaluator(store)
        query = parse_query(self.QUERY)
        evaluator.select(query)
        store.add(Triple(IRI("http://u0/s99"), _iri("type"), _iri("Student")))
        evaluator.select(query)
        assert evaluator.stats.plans_built == 2

    def test_no_count_probes_on_planned_path(self, store, monkeypatch):
        def no_count(pattern):
            raise AssertionError(f"planned execution probed count({pattern})")

        monkeypatch.setattr(store, "count", no_count)
        assert len(Evaluator(store).select(parse_query(self.QUERY))) == 20


class TestBatchExecution:
    def test_planned_equals_seed_rows(self, store):
        query = parse_query(self.__class__.QUERY)
        planned = Evaluator(store).select(query)
        seed = SeedEvaluator(store).select(query)
        assert sorted(map(tuple, planned.rows)) == sorted(map(tuple, seed.rows))

    QUERY = f"""
    SELECT ?s ?a WHERE {{
        ?s <{UB}type> <{UB}Student> .
        ?s <{UB}advisor> ?a .
    }}
    """

    def test_small_batch_size_same_answers(self, store):
        query = parse_query(self.QUERY)
        tiny = Evaluator(store, batch_size=2).select(query)
        default = Evaluator(store).select(query)
        assert sorted(map(tuple, tiny.rows)) == sorted(map(tuple, default.rows))

    def test_stats_count_batches_and_rows(self, store):
        evaluator = Evaluator(store)
        evaluator.select(parse_query(self.QUERY))
        assert evaluator.stats.batches >= 2  # one per pattern at least
        assert evaluator.stats.intermediate_rows >= 40
        assert evaluator.stats.patterns_evaluated == 2

    def test_ask_short_circuits(self, store):
        evaluator = Evaluator(store)
        assert evaluator.ask(parse_query(
            f"ASK {{ ?s <{UB}type> <{UB}Student> . ?s <{UB}advisor> ?a . }}"
        ))
        # a single batch per stage suffices for a non-empty ASK
        assert evaluator.stats.intermediate_rows <= 2 * Evaluator(store).batch_size


class TestExtendIdRows:
    """The batch kernel, driven the way the evaluator drives it: a plan
    compiled against the store, ID rows in, ID rows out."""

    @staticmethod
    def _extend(store, pattern, bindings):
        """Push binding dicts (all over the same variables) through one
        pattern; returns the extended bindings, decoded."""
        plan = build_plan(store, [pattern], frozenset(bindings[0]))
        lookup, decode = store.dictionary.lookup, store.dictionary.decode
        rows = [
            [lookup(b[v]) if v in b else None for v in plan.slot_vars]
            for b in bindings
        ]
        (stage,) = plan.stages
        return [
            {v: decode(tid) for v, tid in zip(plan.slot_vars, row)}
            for row in store.extend_id_rows(stage, rows)
        ]

    def test_repeated_variable_pattern(self):
        store = TripleStore([
            Triple(_iri("a"), _iri("p"), _iri("a")),
            Triple(_iri("a"), _iri("p"), _iri("b")),
        ])
        pattern = TriplePattern(Variable("x"), _iri("p"), Variable("x"))
        assert self._extend(store, pattern, [{}]) == [{Variable("x"): _iri("a")}]

    def test_grouped_probe_shares_index_walk(self):
        store = TripleStore([
            Triple(_iri("s1"), _iri("p"), _iri("o1")),
            Triple(_iri("s1"), _iri("p"), _iri("o2")),
            Triple(_iri("s2"), _iri("p"), _iri("o3")),
        ])
        pattern = TriplePattern(Variable("s"), _iri("p"), Variable("o"))
        s = Variable("s")
        batch = [{s: _iri("s1")}, {s: _iri("s2")}, {s: _iri("s1")}]
        out = self._extend(store, pattern, batch)
        # rows agreeing on ?s form one group: both s1 rows are extended
        # (by both of s1's objects) before the s2 row, which came second
        assert [(b[s], b[Variable("o")]) for b in out] == [
            (_iri("s1"), _iri("o1")), (_iri("s1"), _iri("o2")),
            (_iri("s1"), _iri("o1")), (_iri("s1"), _iri("o2")),
            (_iri("s2"), _iri("o3")),
        ]

    def test_fully_bound_membership(self):
        store = TripleStore([
            Triple(_iri("s"), _iri("p"), _iri("o")),
            Triple(_iri("t"), _iri("p"), _iri("nope")),
        ])
        pattern = TriplePattern(Variable("a"), _iri("p"), Variable("b"))
        hit = {Variable("a"): _iri("s"), Variable("b"): _iri("o")}
        miss = {Variable("a"): _iri("s"), Variable("b"): _iri("nope")}
        assert self._extend(store, pattern, [hit, miss]) == [hit]

    def test_unknown_constant_compiles_to_an_empty_plan(self):
        store = TripleStore([Triple(_iri("s"), _iri("p"), _iri("o"))])
        pattern = TriplePattern(Variable("s"), _iri("never-seen"), Variable("o"))
        plan = build_plan(store, [pattern])
        assert plan.stages is None
        assert list(plan.execute_ids(store, [[None, None]])) == []
        assert _iri("never-seen") not in store.dictionary


class TestHashMinus:
    def test_minus_removes_compatible(self):
        store = TripleStore([
            Triple(_iri("a"), _iri("p"), _iri("x")),
            Triple(_iri("b"), _iri("p"), _iri("y")),
            Triple(_iri("a"), _iri("q"), _iri("z")),
        ])
        query = parse_query(f"""
        SELECT ?s WHERE {{
            ?s <{UB}p> ?o .
            MINUS {{ ?s <{UB}q> ?z . }}
        }}
        """)
        rows = Evaluator(store).select(query).rows
        assert [tuple(r) for r in rows] == [(_iri("b"),)]

    def test_minus_disjoint_domains_keeps_all(self):
        store = TripleStore([
            Triple(_iri("a"), _iri("p"), _iri("x")),
            Triple(_iri("c"), _iri("q"), _iri("z")),
        ])
        query = parse_query(f"""
        SELECT ?s WHERE {{
            ?s <{UB}p> ?o .
            MINUS {{ ?u <{UB}q> ?z . }}
        }}
        """)
        # no shared variables -> nothing is removed (SPARQL semantics)
        assert len(Evaluator(store).select(query)) == 1


class TestCountCache:
    def test_hit_miss_counters(self):
        cache = ProbeCache()
        assert cache.get("ep1", "pattern-key") is None
        assert cache.misses == 1
        cache.put("ep1", "pattern-key", 7)
        assert cache.get("ep1", "pattern-key") == 7
        assert cache.hits == 1
        # membership is version-scoped and leaves the counters alone
        assert cache.contains("ep1", "pattern-key")
        assert not cache.contains("ep1", "pattern-key", version=1)
        assert (cache.hits, cache.misses) == (1, 1)
        assert len(cache) == 1


class TestHandlerContextManager:
    DATA = f'<http://u0/s> <{UB}p> <http://u0/o> .\n'

    def test_with_block_closes_pool(self):
        federation = Federation(
            [LocalEndpoint.from_triples("ep1", nt_parse(self.DATA))],
            network=LOCAL_CLUSTER,
        )
        context = federation.make_context()
        with ElasticRequestHandler(federation, context) as handler:
            response = handler.execute(Request(
                endpoint_id="ep1",
                query_text=f"SELECT ?s WHERE {{ ?s <{UB}p> ?o . }}",
            ))
            assert len(response.value) == 1
            executor = handler._executor
        assert executor is None or executor._shutdown

    def test_response_carries_compute(self):
        federation = Federation(
            [LocalEndpoint.from_triples("ep1", nt_parse(self.DATA))],
            network=LOCAL_CLUSTER,
        )
        context = federation.make_context()
        with ElasticRequestHandler(federation, context) as handler:
            handler.execute(Request(
                endpoint_id="ep1",
                query_text=f"SELECT ?s WHERE {{ ?s <{UB}p> ?o . }}",
            ))
        snapshot = context.metrics.snapshot()
        evaluator_keys = [k for k in snapshot if k.startswith("evaluator:")]
        assert evaluator_keys, snapshot
