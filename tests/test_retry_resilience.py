"""Tests for transient-failure retries in the request handler and for
engine behaviour on flaky federations."""

import pytest

from repro.core import LusailEngine
from repro.endpoint import (
    EndpointUnavailableError,
    LOCAL_CLUSTER,
    LocalEndpoint,
)
from repro.federation import ElasticRequestHandler, Federation, Request
from repro.rdf import parse as nt_parse

from .conftest import (
    EP1_TRIPLES,
    EP2_TRIPLES,
    QA_EXPECTED,
    QUERY_QA,
    result_values,
)


def flaky_federation(failure_rate, seed=3):
    return Federation(
        [
            LocalEndpoint.from_triples(
                "ep1", nt_parse(EP1_TRIPLES),
                failure_rate=failure_rate, failure_seed=seed,
            ),
            LocalEndpoint.from_triples(
                "ep2", nt_parse(EP2_TRIPLES),
                failure_rate=failure_rate, failure_seed=seed,
            ),
        ],
        network=LOCAL_CLUSTER,
    )


class TestHandlerRetries:
    def test_retry_succeeds_and_charges_penalty(self):
        federation = flaky_federation(0.4)
        steady = flaky_federation(0.0)
        # run the same request sequence; the flaky one must cost more
        def total_cost(fed):
            ctx = fed.make_context()
            handler = ElasticRequestHandler(fed, ctx, max_retries=10)
            for _ in range(20):
                handler.execute(Request("ep1", "ASK { ?s ?p ?o }", "ASK"))
            return ctx.metrics.virtual_seconds

        assert total_cost(federation) > total_cost(steady)

    def test_retries_exhausted_raises(self):
        federation = flaky_federation(0.95, seed=5)
        ctx = federation.make_context()
        handler = ElasticRequestHandler(federation, ctx, max_retries=1)
        with pytest.raises(EndpointUnavailableError):
            for _ in range(50):
                handler.execute(Request("ep1", "ASK { ?s ?p ?o }", "ASK"))

    def test_zero_retries_configuration(self):
        federation = flaky_federation(0.5, seed=11)
        ctx = federation.make_context()
        handler = ElasticRequestHandler(federation, ctx, max_retries=0)
        with pytest.raises(EndpointUnavailableError):
            for _ in range(50):
                handler.execute(Request("ep1", "ASK { ?s ?p ?o }", "ASK"))


class TestEngineOnFlakyFederation:
    def test_lusail_answers_through_transient_failures(self):
        federation = flaky_federation(0.15)
        engine = LusailEngine(federation, max_retries=10)
        outcome = engine.execute(QUERY_QA)
        assert outcome.status == "OK", outcome.error
        assert result_values(outcome.result) == QA_EXPECTED

    def test_flaky_run_costs_more_than_steady(self):
        flaky = LusailEngine(flaky_federation(0.2), max_retries=10).execute(QUERY_QA)
        steady = LusailEngine(flaky_federation(0.0), max_retries=10).execute(QUERY_QA)
        assert flaky.status == steady.status == "OK"
        assert flaky.runtime_seconds > steady.runtime_seconds

    def test_hopeless_endpoint_surfaces_re(self):
        federation = flaky_federation(0.99, seed=13)
        engine = LusailEngine(federation)
        outcome = engine.execute(QUERY_QA)
        assert outcome.status == "RE"
        assert "did not answer" in (outcome.error or "")
