"""Unit tests for the SAPE cost model: probes, Chauvenet, delay rule."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CardinalityEstimator,
    chauvenet_keep_mask,
    classify_delayed,
    robust_mean_std,
)
from repro.core.subquery import Subquery
from repro.endpoint import LOCAL_CLUSTER, LocalEndpoint
from repro.federation import ElasticRequestHandler, Federation, ProbeCache
from repro.rdf import IRI, Triple, TriplePattern, Variable


def make_endpoint(endpoint_id, advisor_edges, teacher_edges):
    triples = []
    for i in range(advisor_edges):
        triples.append(Triple(
            IRI(f"http://{endpoint_id}/s{i}"), IRI("http://ub/advisor"),
            IRI(f"http://{endpoint_id}/p{i % 3}"),
        ))
    for i in range(teacher_edges):
        triples.append(Triple(
            IRI(f"http://{endpoint_id}/p{i % 3}"), IRI("http://ub/teacherOf"),
            IRI(f"http://{endpoint_id}/c{i}"),
        ))
    return LocalEndpoint.from_triples(endpoint_id, triples)


@pytest.fixture
def federation():
    return Federation(
        [make_endpoint("ep1", 10, 4), make_endpoint("ep2", 6, 2)],
        network=LOCAL_CLUSTER,
    )


ADVISOR = TriplePattern(Variable("s"), IRI("http://ub/advisor"), Variable("p"))
TEACHER = TriplePattern(Variable("p"), IRI("http://ub/teacherOf"), Variable("c"))


class TestChauvenet:
    def test_small_samples_keep_everything(self):
        assert chauvenet_keep_mask([1.0]) == [True]
        assert chauvenet_keep_mask([1.0, 100.0]) == [True, True]

    def test_identical_values_kept(self):
        assert all(chauvenet_keep_mask([5.0] * 10))

    def test_extreme_outlier_rejected(self):
        values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 1_000_000.0]
        mask = chauvenet_keep_mask(values)
        assert mask[-1] is False
        assert all(mask[:-1])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=3, max_size=40))
    def test_mask_alignment_property(self, values):
        mask = chauvenet_keep_mask(values)
        assert len(mask) == len(values)
        # at least one value always survives
        assert any(mask)

    def test_robust_mean_ignores_outlier(self):
        values = [10.0, 11.0, 9.0, 10.0, 10.0, 1_000_000.0]
        mean, std = robust_mean_std(values)
        assert mean < 100
        plain_mean = sum(values) / len(values)
        assert plain_mean > 100_000


class TestCardinalityEstimator:
    def test_pattern_counts_per_endpoint(self, federation):
        ctx = federation.make_context()
        estimator = CardinalityEstimator(ElasticRequestHandler(federation, ctx))
        counts = estimator.pattern_cardinalities(ADVISOR, ["ep1", "ep2"])
        assert counts == {"ep1": 10, "ep2": 6}

    def test_count_cache_avoids_probes(self, federation):
        cache = ProbeCache()
        ctx1 = federation.make_context()
        estimator = CardinalityEstimator(
            ElasticRequestHandler(federation, ctx1), count_cache=cache
        )
        estimator.pattern_cardinalities(ADVISOR, ["ep1", "ep2"])
        assert ctx1.metrics.select_requests == 2
        ctx2 = federation.make_context()
        estimator2 = CardinalityEstimator(
            ElasticRequestHandler(federation, ctx2), count_cache=cache
        )
        estimator2.pattern_cardinalities(ADVISOR, ["ep1", "ep2"])
        assert ctx2.metrics.select_requests == 0

    def test_subquery_cardinality_uses_min_and_sum(self, federation):
        """C(sq, p) per endpoint is min(C(advisor), C(teacherOf));
        totals sum over endpoints: min(10,4) + min(6,2) = 6."""
        ctx = federation.make_context()
        estimator = CardinalityEstimator(ElasticRequestHandler(federation, ctx))
        subquery = Subquery(
            patterns=[ADVISOR, TEACHER],
            sources=("ep1", "ep2"),
            projection=[Variable("p")],
        )
        assert estimator.subquery_cardinality(subquery) == 6

    def test_subquery_cardinality_max_over_projection(self, federation):
        ctx = federation.make_context()
        estimator = CardinalityEstimator(ElasticRequestHandler(federation, ctx))
        subquery = Subquery(
            patterns=[ADVISOR, TEACHER],
            sources=("ep1", "ep2"),
            projection=[Variable("s"), Variable("p")],
        )
        # C(s) = 10 + 6 = 16 (only advisor mentions s); C(p) = 6; max = 16
        assert estimator.subquery_cardinality(subquery) == 16


def make_subqueries(cardinalities, fanouts=None):
    subqueries = []
    for index, cardinality in enumerate(cardinalities):
        fanout = 2 if fanouts is None else fanouts[index]
        subqueries.append(Subquery(
            patterns=[ADVISOR],
            sources=tuple(f"ep{i}" for i in range(fanout)),
            estimated_cardinality=float(cardinality),
            label=f"sq{index}",
        ))
    return subqueries


class TestClassifyDelayed:
    def test_default_threshold_delays_heavy_subquery(self):
        subqueries = make_subqueries([10, 10, 9, 11, 10_000])
        classify_delayed(subqueries, "mu+sigma")
        assert subqueries[-1].delayed
        # the small, near-average subqueries run concurrently
        assert not subqueries[0].delayed
        assert not subqueries[1].delayed
        assert not subqueries[2].delayed

    def test_mu_threshold_is_most_aggressive(self):
        subqueries_mu = make_subqueries([10, 20, 30, 40])
        classify_delayed(subqueries_mu, "mu")
        subqueries_sigma = make_subqueries([10, 20, 30, 40])
        classify_delayed(subqueries_sigma, "mu+2sigma")
        delayed_mu = sum(sq.delayed for sq in subqueries_mu)
        delayed_sigma = sum(sq.delayed for sq in subqueries_sigma)
        assert delayed_mu >= delayed_sigma

    def test_outliers_threshold(self):
        subqueries = make_subqueries([10, 11, 9, 10, 10, 9, 11, 1_000_000])
        classify_delayed(subqueries, "outliers")
        assert subqueries[-1].delayed
        assert not any(sq.delayed for sq in subqueries[:-1])

    def test_endpoint_fanout_triggers_delay(self):
        subqueries = make_subqueries(
            [10, 10, 10, 10, 10], fanouts=[2, 2, 2, 2, 64]
        )
        classify_delayed(subqueries, "mu+sigma")
        assert subqueries[-1].delayed

    def test_optional_subqueries_always_delayed(self):
        subqueries = make_subqueries([10, 10])
        subqueries[1].optional = True
        classify_delayed(subqueries, "mu+sigma")
        assert subqueries[1].delayed

    def test_never_delays_everything(self):
        subqueries = make_subqueries([100, 100])
        for subquery in subqueries:
            subquery.optional = True
        classify_delayed(subqueries, "mu")
        assert not all(sq.delayed for sq in subqueries)

    def test_single_subquery_never_delayed(self):
        subqueries = make_subqueries([1_000_000])
        classify_delayed(subqueries, "mu+sigma")
        assert not subqueries[0].delayed

    def test_unknown_threshold_rejected(self):
        with pytest.raises(ValueError):
            classify_delayed(make_subqueries([1, 2]), "median")
