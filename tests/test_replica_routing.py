"""Fragment-aware source selection over replicated endpoints.

The acceptance scenario: a federation where two endpoints replicate the
same fragment serves a read workload with every fragment queried exactly
once per query (no duplicate ASK/SELECT traffic to both copies), while
the stream of queries is balanced across both replicas by the
load/latency score — both lanes end up utilized.  When the copy a query
was routed to is down, its sibling answers instead and the answer stays
complete.
"""

import pytest

from repro.core import LusailEngine
from repro.endpoint import LOCAL_CLUSTER, FaultProfile, LocalEndpoint, OutageWindow
from repro.federation import Federation, FragmentDescriptor, ReplicaRouter
from repro.rdf import IRI, TriplePattern, Variable
from repro.rdf import parse as nt_parse

from .conftest import EP1_TRIPLES, EP2_TRIPLES, QA_EXPECTED, QUERY_QA, result_values


def build_replicated_federation(
    faults=None, copies=("ep2a", "ep2b"), **fragment
) -> Federation:
    """ep1 plus byte-identical ``copies`` of the paper's ep2, declared
    one fragment (by default a load-balanced one) with ``fragment``'s
    keywords; ``faults`` maps a copy to its :class:`FaultProfile`."""
    federation = Federation(
        [
            LocalEndpoint.from_triples("ep1", nt_parse(EP1_TRIPLES)),
        ] + [
            LocalEndpoint.from_triples(
                eid, nt_parse(EP2_TRIPLES),
                faults=(faults or {}).get(eid),
            )
            for eid in copies
        ],
        network=LOCAL_CLUSTER,
    )
    federation.declare_fragment("ep2", copies, **fragment)
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


class TestFragmentDeclaration:
    def test_balanced_policy_declares_a_routing_fragment(self):
        federation = build_replicated_federation()
        names = [fragment.name for fragment in federation.fragments]
        assert names == ["ep2"]
        assert set(federation.fragments[0].endpoints) == {"ep2a", "ep2b"}
        assert federation.fragments[0].policy == "balanced"
        # both copies stay routing targets
        assert federation.endpoint_ids == ["ep1", "ep2a", "ep2b"]

    def test_failover_policy_keeps_the_standby_out_of_selection(self):
        federation = build_replicated_federation(policy="failover")
        assert federation.endpoint_ids == ["ep1", "ep2a"]
        assert "ep2b" in federation
        outcome = LusailEngine(federation).execute(QUERY_QA)
        assert result_values(outcome.result) == QA_EXPECTED
        assert "ep2b" not in outcome.metrics.lane_busy_seconds


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

    def test_failover_policy_picks_the_first_declared_member(self):
        fragment = FragmentDescriptor("f", ("b", "a"), policy="failover")
        router = ReplicaRouter()
        for _ in range(2):
            assert router.choose(fragment, ["a", "b"], handler=None) == "b"

    def test_backlog_steers_away_from_busy_lane(self):
        class _SkewedHandler:
            def lane_backlog(self, endpoint_id):
                return 5.0 if endpoint_id == "a" else 0.0

        router = ReplicaRouter()
        for _ in range(3):
            assert router.choose(
                self.FRAGMENT, ["a", "b"], _SkewedHandler()
            ) == "b"


class TestFailover:
    """A fragment member that fails past its retries is replaced by its
    sibling, whichever member the router picked — the second copy of a
    balanced pair included."""

    @pytest.mark.parametrize("down", ["ep2a", "ep2b"])
    @pytest.mark.parametrize("predicates", [False, True])
    def test_declared_fragment_fails_over(self, down, predicates):
        """Two runs with ``down`` failing every request: each is OK with
        the full answer, and a run the router sent to ``down`` reroutes
        to its sibling (the others reroute nothing)."""
        covered = None
        if predicates:
            covered = {triple.predicate for triple in nt_parse(EP2_TRIPLES)}
        (sibling,) = {"ep2a", "ep2b"} - {down}
        engine = LusailEngine(
            build_replicated_federation(
                {down: FaultProfile(failure_rate=1.0)}, predicates=covered
            ),
            partial_results=True,
        )
        routed_to_down = []
        for _ in range(2):
            engine.result_cache.clear()
            before = engine.replica_router.routed.get(down, 0)
            outcome = engine.execute(QUERY_QA)
            assert outcome.status == "OK", outcome.error
            assert result_values(outcome.result) == QA_EXPECTED
            hit_down = engine.replica_router.routed.get(down, 0) > before
            expected = {down: sibling} if hit_down else {}
            assert outcome.completeness.rerouted == expected
            routed_to_down.append(hit_down)
        # the down copy was picked at least once, so a failover ran
        assert any(routed_to_down)

    def test_a_copy_that_failed_is_not_picked_again(self):
        """ep2a fails every request.  The first run routes to it (the
        cold tie) and fails over to ep2b; a failed request adds no
        latency sample, yet ep2a must not look idle: runs 2-4 route to
        ep2b and fail no request."""
        engine = LusailEngine(
            build_replicated_federation({"ep2a": FaultProfile(failure_rate=1.0)}),
            partial_results=True,
        )
        served = []
        for _ in range(4):
            engine.result_cache.clear()
            before = dict(engine.replica_router.routed)
            outcome = engine.execute(QUERY_QA)
            assert outcome.status == "OK", outcome.error
            assert result_values(outcome.result) == QA_EXPECTED
            (copy,) = [
                eid for eid, n in engine.replica_router.routed.items()
                if n > before.get(eid, 0)
            ]
            served.append((copy, outcome.metrics.requests_failed))
        assert served[0][0] == "ep2a" and served[0][1] > 0
        assert served[1:] == [("ep2b", 0)] * 3

    def test_a_failed_subquery_fails_over_to_the_sibling(self):
        """Source selection succeeds at the routed copy, then its last
        request (a subquery) fails: dispatch resends it to the sibling."""
        calls = []
        federation = build_replicated_federation()
        ep2a = federation.endpoint("ep2a")
        original = ep2a.execute
        ep2a.execute = lambda text, **_: (calls.append(text), original(text))[1]
        baseline = LusailEngine(federation).execute(QUERY_QA)
        assert baseline.status == "OK"
        assert calls[-1].lstrip().startswith("SELECT")
        tail = FaultProfile(outage_windows=(OutageWindow(start=len(calls) - 1),))
        outcome = LusailEngine(
            build_replicated_federation({"ep2a": tail}), partial_results=True
        ).execute(QUERY_QA)
        assert outcome.status == "OK", outcome.error
        assert result_values(outcome.result) == QA_EXPECTED
        assert outcome.completeness.rerouted == {"ep2a": "ep2b"}
        # both copies served this one query: ep2a its probes, ep2b the
        # subquery ep2a failed
        assert {"ep2a", "ep2b"} <= set(outcome.metrics.lane_busy_seconds)

    def test_a_fragment_reroute_does_not_hide_an_uncovered_loss(self):
        """ep2a also holds ``ub:address``, which the fragment leaves out.
        With ep2a down its covered patterns fail over to ep2b, but its
        ``address`` ASK has no sibling to go to: that request is lost,
        so the run is PARTIAL although ep2a was rerouted too."""
        address = IRI("http://swat.cse.lehigh.edu/onto/univ-bench.owl#address")
        covered = {triple.predicate for triple in nt_parse(EP2_TRIPLES)}
        assert address in covered
        outcome = LusailEngine(
            build_replicated_federation(
                {"ep2a": FaultProfile(failure_rate=1.0)},
                predicates=covered - {address},
                policy="failover",
            ),
            partial_results=True,
        ).execute(QUERY_QA)
        assert outcome.completeness.rerouted == {"ep2a": "ep2b"}
        assert outcome.status == "PARTIAL"
        assert not outcome.completeness.complete

    def test_siblings_that_fail_during_failover_are_recovered_too(self):
        """Three copies, two down.  Whichever down copy the router picks,
        the request wraps around the fragment past the other down copy
        to ep2b; both failures are answered there, so every run is OK."""
        down = FaultProfile(failure_rate=1.0)
        engine = LusailEngine(
            build_replicated_federation(
                {"ep2a": down, "ep2c": down}, copies=("ep2a", "ep2b", "ep2c")
            ),
            partial_results=True,
        )
        reroutes = {}
        for _ in range(3):
            engine.result_cache.clear()
            outcome = engine.execute(QUERY_QA)
            assert outcome.status == "OK", outcome.error
            assert result_values(outcome.result) == QA_EXPECTED
            reroutes.update(outcome.completeness.rerouted)
        # ep2c's request wrapped around to ep2a (down) before ep2b answered
        assert reroutes == {"ep2a": "ep2b", "ep2c": "ep2b"}
