"""Fragment-aware source selection over replicated endpoints.

The acceptance scenario: a federation where two endpoints replicate the
same fragment serves a read workload with every fragment queried exactly
once per query (no duplicate ASK/SELECT traffic to both copies), while
the stream of queries is balanced across both replicas by the
load/latency score — both lanes end up utilized.
"""

from repro.core import LusailEngine
from repro.endpoint import LOCAL_CLUSTER, LocalEndpoint
from repro.federation import Federation, FragmentDescriptor, ReplicaRouter
from repro.rdf import IRI, TriplePattern, Variable
from repro.rdf import parse as nt_parse

from .conftest import EP1_TRIPLES, EP2_TRIPLES, QA_EXPECTED, QUERY_QA, result_values


def build_replicated_federation() -> Federation:
    """ep1 plus two byte-identical replicas of the paper's ep2."""
    federation = Federation(
        [
            LocalEndpoint.from_triples("ep1", nt_parse(EP1_TRIPLES)),
            LocalEndpoint.from_triples("ep2a", nt_parse(EP2_TRIPLES)),
            LocalEndpoint.from_triples("ep2b", nt_parse(EP2_TRIPLES)),
        ],
        network=LOCAL_CLUSTER,
    )
    federation.register_replica("ep2a", "ep2b", standby=False)
    return federation


class TestFragmentDescriptor:
    def test_full_replica_covers_everything(self):
        fragment = FragmentDescriptor("r", ("a", "b"))
        pattern = TriplePattern(Variable("s"), IRI("http://p"), Variable("o"))
        assert fragment.covers(pattern)

    def test_predicate_fragment_covers_only_its_predicates(self):
        fragment = FragmentDescriptor(
            "f", ("a", "b"), predicates=frozenset({IRI("http://p")})
        )
        assert fragment.covers(
            TriplePattern(Variable("s"), IRI("http://p"), Variable("o"))
        )
        assert not fragment.covers(
            TriplePattern(Variable("s"), IRI("http://q"), Variable("o"))
        )
        # variable predicate: the fragment cannot promise coverage
        assert not fragment.covers(
            TriplePattern(Variable("s"), Variable("p"), Variable("o"))
        )


class TestReplicaRegistration:
    def test_standby_false_declares_a_routing_fragment(self):
        federation = build_replicated_federation()
        names = [fragment.name for fragment in federation.fragments]
        assert names == ["replica:ep2a"]
        assert set(federation.fragments[0].endpoints) == {"ep2a", "ep2b"}

    def test_standby_true_keeps_failover_only_semantics(self):
        federation = Federation(
            [
                LocalEndpoint.from_triples("ep1", nt_parse(EP1_TRIPLES)),
                LocalEndpoint.from_triples("ep2a", nt_parse(EP2_TRIPLES)),
                LocalEndpoint.from_triples("ep2b", nt_parse(EP2_TRIPLES)),
            ],
            network=LOCAL_CLUSTER,
        )
        federation.register_replica("ep2a", "ep2b")
        assert federation.fragments == []


class TestRoutedExecution:
    def test_zero_duplicate_fragment_queries_per_query(self):
        """Each query touches exactly one member of the replica pair."""
        engine = LusailEngine(build_replicated_federation())
        outcome = engine.execute(QUERY_QA)
        assert result_values(outcome.result) == QA_EXPECTED
        touched = set(outcome.metrics.lane_busy_seconds)
        assert "ep1" in touched
        assert len(touched & {"ep2a", "ep2b"}) == 1
        assert outcome.metrics.replica_routes > 0
        assert outcome.metrics.fragment_pruned > 0

    def test_workload_splits_across_both_replicas(self):
        """Across a repeated read workload both lanes get utilized."""
        engine = LusailEngine(build_replicated_federation())
        served = []
        for _ in range(4):
            # a warm result cache would answer without touching a lane
            engine.result_cache.clear()
            outcome = engine.execute(QUERY_QA)
            assert result_values(outcome.result) == QA_EXPECTED
            lanes = set(outcome.metrics.lane_busy_seconds) & {"ep2a", "ep2b"}
            assert len(lanes) == 1  # still no duplicates on any run
            served.append(lanes.pop())
        assert set(served) == {"ep2a", "ep2b"}
        routed = engine.replica_router.routed
        assert routed.get("ep2a", 0) > 0 and routed.get("ep2b", 0) > 0

    def test_results_match_unreplicated_baseline(self):
        from .conftest import build_paper_federation

        baseline = LusailEngine(build_paper_federation()).execute(QUERY_QA)
        routed = LusailEngine(build_replicated_federation()).execute(QUERY_QA)
        assert result_values(routed.result) == result_values(baseline.result)


class TestRouterScoring:
    FRAGMENT = FragmentDescriptor("f", ("a", "b"))

    def test_single_candidate_short_circuits(self):
        router = ReplicaRouter()
        assert router.choose(self.FRAGMENT, ["only"], handler=None) == "only"
        assert router.routed == {"only": 1}

    def test_tie_breaks_rotate(self):
        class _FlatHandler:
            def lane_backlog(self, endpoint_id):
                return 0.0

        router = ReplicaRouter()
        handler = _FlatHandler()
        first = router.choose(self.FRAGMENT, ["a", "b"], handler)
        second = router.choose(self.FRAGMENT, ["a", "b"], handler)
        assert {first, second} == {"a", "b"}

    def test_backlog_steers_away_from_busy_lane(self):
        class _SkewedHandler:
            def lane_backlog(self, endpoint_id):
                return 5.0 if endpoint_id == "a" else 0.0

        router = ReplicaRouter()
        for _ in range(3):
            assert router.choose(
                self.FRAGMENT, ["a", "b"], _SkewedHandler()
            ) == "b"
