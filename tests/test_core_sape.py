"""Unit tests for the SAPE subquery evaluator (Algorithm 3)."""

import pytest

from repro.core.sape import BindingTracker, SubqueryEvaluator
from repro.core.subquery import Subquery
from repro.core.trace import QueryTrace
from repro.endpoint import LOCAL_CLUSTER, LocalEndpoint
from repro.federation import ElasticRequestHandler, Federation
from repro.rdf import IRI, Triple, TriplePattern, Variable
from repro.sparql import ResultSet


def iri(name):
    return IRI(f"http://x/{name}")


@pytest.fixture
def federation():
    ep1 = [
        Triple(iri("s1"), iri("p"), iri("o1")),
        Triple(iri("s2"), iri("p"), iri("o2")),
        Triple(iri("o1"), iri("q"), iri("z1")),
    ]
    ep2 = [
        Triple(iri("s3"), iri("p"), iri("o3")),
        Triple(iri("o3"), iri("q"), iri("z3")),
        Triple(iri("s4"), iri("r"), iri("w1")),
    ]
    return Federation(
        [
            LocalEndpoint.from_triples("ep1", ep1),
            LocalEndpoint.from_triples("ep2", ep2),
        ],
        network=LOCAL_CLUSTER,
    )


def make_evaluator(federation, **kwargs):
    context = federation.make_context()
    handler = ElasticRequestHandler(federation, context)
    return SubqueryEvaluator(handler, context, **kwargs), context


P_PATTERN = TriplePattern(Variable("s"), iri("p"), Variable("o"))
Q_PATTERN = TriplePattern(Variable("o"), iri("q"), Variable("z"))


class TestPhaseOne:
    def test_concurrent_evaluation(self, federation):
        evaluator, context = make_evaluator(federation)
        subquery = Subquery(
            patterns=[P_PATTERN], sources=("ep1", "ep2"), label="sq0",
            projection=[Variable("s"), Variable("o")],
        )
        relations = evaluator.evaluate([subquery])
        assert len(relations["sq0"]) == 3  # union over both endpoints
        assert subquery.actual_cardinality == 3
        assert context.metrics.select_requests == 2

    def test_empty_sources_give_empty_relation(self, federation):
        evaluator, _ = make_evaluator(federation)
        subquery = Subquery(
            patterns=[P_PATTERN], sources=(), label="sq0",
            projection=[Variable("s")],
        )
        relations = evaluator.evaluate([subquery])
        assert len(relations["sq0"]) == 0


class TestDelayedPhase:
    def test_delayed_bound_by_values(self, federation):
        evaluator, context = make_evaluator(federation)
        anchor = Subquery(
            patterns=[P_PATTERN], sources=("ep1",), label="anchor",
            projection=[Variable("s"), Variable("o")],
        )
        delayed = Subquery(
            patterns=[Q_PATTERN], sources=("ep1", "ep2"), label="delayed",
            projection=[Variable("o"), Variable("z")],
            estimated_cardinality=100.0, delayed=True,
        )
        relations = evaluator.evaluate([anchor, delayed])
        # only o1 flows into the bound subquery; z1 comes back, z3 not
        values = relations["delayed"].distinct_values(Variable("z"))
        assert values == {iri("z1")}

    def test_delayed_without_bindings_runs_unbound(self, federation):
        evaluator, _ = make_evaluator(federation)
        lonely = Subquery(
            patterns=[TriplePattern(Variable("a"), iri("r"), Variable("b"))],
            sources=("ep2",), label="lonely",
            projection=[Variable("a"), Variable("b")],
            estimated_cardinality=5.0, delayed=True,
        )
        relations = evaluator.evaluate([lonely])
        assert len(relations["lonely"]) == 1

    def test_values_block_size_splits_requests(self, federation):
        evaluator, context = make_evaluator(federation, values_block_size=1)
        anchor = Subquery(
            patterns=[P_PATTERN], sources=("ep1", "ep2"), label="anchor",
            projection=[Variable("o")],
        )
        delayed = Subquery(
            patterns=[Q_PATTERN], sources=("ep1", "ep2"), label="delayed",
            projection=[Variable("o"), Variable("z")],
            estimated_cardinality=100.0, delayed=True,
        )
        evaluator.evaluate([anchor, delayed])
        # 3 bound values -> 3 blocks x 2 endpoints, plus phase-1's 2
        assert context.metrics.select_requests == 2 + 6

    def test_wave_leader_is_the_most_selective(self, federation):
        """Two delayed subqueries sharing ?o cannot share a wave: the
        smaller estimate goes first and its bindings bound the other."""
        evaluator, context = make_evaluator(federation)
        context.trace = QueryTrace()
        small = Subquery(
            patterns=[Q_PATTERN], sources=("ep1",), label="small",
            projection=[Variable("o"), Variable("z")],
            estimated_cardinality=2.0, delayed=True,
        )
        big = Subquery(
            patterns=[P_PATTERN], sources=("ep1",), label="big",
            projection=[Variable("s"), Variable("o")],
            estimated_cardinality=50.0, delayed=True,
        )
        relations = evaluator.evaluate([big, small])
        finished = [
            event.detail["label"]
            for event in context.trace.of_kind("subquery_result")
        ]
        assert finished == ["small", "big"]
        # big ran bound to small's single ?o value, not unbound
        assert len(relations["big"]) == 1
        assert context.metrics.scheduler_waves == 2


class TestBindingsDerivation:
    """The tracker keeps, per variable, the set of terms every relation
    mentioning it agrees on."""

    @staticmethod
    def _derive(relations):
        tracker = BindingTracker()
        for relation in relations:
            tracker.add(relation)
        return tracker.bindings

    def test_intersection_across_relations(self):
        x = Variable("x")
        r1 = ResultSet([x], [(iri("a"),), (iri("b"),)])
        r2 = ResultSet([x], [(iri("b"),), (iri("c"),)])
        assert self._derive([r1, r2])[x] == {iri("b")}

    def test_unbound_cells_ignored(self):
        x = Variable("x")
        r1 = ResultSet([x], [(iri("a"),), (None,)])
        assert self._derive([r1])[x] == {iri("a")}

    def test_tracks_term_intersections(self):
        x, y = Variable("x"), Variable("y")
        r1 = ResultSet((x, y), [(iri(f"a{i % 4}"), iri(f"b{i}")) for i in range(10)])
        r2 = ResultSet((x,), [(iri(f"a{i}"),) for i in range(3)] + [(None,)])
        assert self._derive([r1, r2]) == {
            x: {iri("a0"), iri("a1"), iri("a2")},  # unbound cell ignored
            y: {iri(f"b{i}") for i in range(10)},
        }


class TestSourceRefinement:
    def test_unbound_pattern_sources_refined(self):
        """A ?s ?p ?o subquery is relevant everywhere; bound ASKs with a
        sample of found bindings drop endpoints that cannot contribute."""
        ep1 = [Triple(iri("a"), iri("p"), iri("b"))]
        ep2 = [Triple(iri("c"), iri("q"), iri("d"))]
        federation = Federation(
            [
                LocalEndpoint.from_triples("ep1", ep1),
                LocalEndpoint.from_triples("ep2", ep2),
            ],
            network=LOCAL_CLUSTER,
        )
        evaluator, context = make_evaluator(federation)
        spo = Subquery(
            patterns=[TriplePattern(Variable("a"), Variable("p"), Variable("b"))],
            sources=("ep1", "ep2"),
            label="spo",
            projection=[Variable("a"), Variable("p"), Variable("b")],
            estimated_cardinality=10.0,
            delayed=True,
        )
        anchor = Subquery(
            patterns=[TriplePattern(Variable("a"), iri("p"), iri("b"))],
            sources=("ep1",), label="anchor", projection=[Variable("a")],
        )
        relations = evaluator.evaluate([anchor, spo])
        assert len(relations["spo"]) == 1
        # one bound ASK per candidate endpoint; only ep1 said yes, so the
        # bound SELECT went to ep1 alone (plus the anchor's SELECT)
        assert context.metrics.ask_requests == 2
        assert context.metrics.select_requests == 2
