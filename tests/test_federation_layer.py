"""Tests for the federation registry, ERH, source selection, and caches."""

import pytest

from repro.endpoint import LOCAL_CLUSTER, LocalEndpoint
from repro.federation import (
    ProbeCache,
    check_signature,
    ElasticRequestHandler,
    Federation,
    Request,
    SourceSelector,
    ask_query_text,
    canonical_pattern_key,
)
from repro.rdf import IRI, TriplePattern, Variable, parse as nt_parse

EP1_DATA = """
<http://u0/kim> <http://ub/advisor> <http://u0/tim> .
<http://u0/tim> <http://ub/teacherOf> <http://u0/c1> .
"""
EP2_DATA = """
<http://u1/lee> <http://ub/advisor> <http://u1/ben> .
<http://u1/mit> <http://ub/address> "XXX" .
"""


@pytest.fixture
def federation():
    return Federation(
        [
            LocalEndpoint.from_triples("ep1", nt_parse(EP1_DATA)),
            LocalEndpoint.from_triples("ep2", nt_parse(EP2_DATA)),
        ],
        network=LOCAL_CLUSTER,
    )


@pytest.fixture
def handler(federation):
    return ElasticRequestHandler(federation, federation.make_context())


class TestFederation:
    def test_duplicate_ids_rejected(self):
        endpoint = LocalEndpoint.from_triples("ep", nt_parse(EP1_DATA))
        with pytest.raises(ValueError):
            Federation([endpoint, endpoint])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Federation([])

    def test_lookup(self, federation):
        assert federation.endpoint("ep1").endpoint_id == "ep1"
        with pytest.raises(KeyError):
            federation.endpoint("nope")
        assert "ep1" in federation
        assert len(federation) == 2

    def test_total_triples(self, federation):
        assert federation.total_triples() == 4


class TestRequestHandler:
    def test_serial_request_charges_full_cost(self, federation):
        ctx = federation.make_context()
        handler = ElasticRequestHandler(federation, ctx)
        handler.execute(
            Request("ep1", "ASK { ?s <http://ub/advisor> ?o }", kind="ASK")
        )
        assert ctx.metrics.requests == 1
        assert ctx.metrics.ask_requests == 1
        assert ctx.metrics.virtual_seconds > 0

    def test_batch_overlaps_across_endpoints(self, federation):
        text = "SELECT ?s WHERE { ?s <http://ub/advisor> ?o }"
        # Serial: two full costs.
        ctx_serial = federation.make_context()
        serial = ElasticRequestHandler(federation, ctx_serial)
        serial.execute(Request("ep1", text))
        serial.execute(Request("ep2", text))
        # Batch: overlapping costs.
        ctx_batch = federation.make_context()
        batch = ElasticRequestHandler(federation, ctx_batch)
        batch.execute_batch([Request("ep1", text), Request("ep2", text)])
        assert ctx_batch.metrics.virtual_seconds < ctx_serial.metrics.virtual_seconds
        assert ctx_batch.metrics.requests == 2

    def test_batch_to_same_endpoint_serializes(self, federation):
        text = "ASK { ?s ?p ?o }"
        ctx = federation.make_context()
        handler = ElasticRequestHandler(federation, ctx)
        responses = handler.execute_batch(
            [Request("ep1", text, "ASK"), Request("ep1", text, "ASK")]
        )
        total_cost = sum(r.cost_seconds for r in responses)
        assert ctx.metrics.virtual_seconds == pytest.approx(total_cost)

    def test_pool_size_bounds_concurrency(self, federation):
        text = "ASK { ?s ?p ?o }"
        requests = [Request("ep1", text, "ASK"), Request("ep2", text, "ASK")]
        ctx_wide = federation.make_context()
        ElasticRequestHandler(federation, ctx_wide, pool_size=8).execute_batch(requests)
        ctx_narrow = federation.make_context()
        ElasticRequestHandler(federation, ctx_narrow, pool_size=1).execute_batch(requests)
        assert ctx_narrow.metrics.virtual_seconds >= ctx_wide.metrics.virtual_seconds

    def test_invalid_pool_size(self, federation):
        with pytest.raises(ValueError):
            ElasticRequestHandler(federation, federation.make_context(), pool_size=0)


class TestSourceSelection:
    ADVISOR = TriplePattern(Variable("s"), IRI("http://ub/advisor"), Variable("o"))
    ADDRESS = TriplePattern(Variable("s"), IRI("http://ub/address"), Variable("o"))

    def test_ask_text(self):
        assert ask_query_text(self.ADVISOR) == (
            "ASK WHERE { ?s <http://ub/advisor> ?o . }"
        )

    def test_relevant_sources(self, handler):
        selector = SourceSelector(handler)
        assert selector.relevant_sources(self.ADVISOR) == ("ep1", "ep2")
        assert selector.relevant_sources(self.ADDRESS) == ("ep2",)

    def test_cache_avoids_repeat_asks(self, federation):
        cache = ProbeCache()
        ctx1 = federation.make_context()
        selector = SourceSelector(
            ElasticRequestHandler(federation, ctx1), cache=cache
        )
        selector.relevant_sources(self.ADVISOR)
        assert ctx1.metrics.ask_requests == 2
        ctx2 = federation.make_context()
        selector2 = SourceSelector(
            ElasticRequestHandler(federation, ctx2), cache=cache
        )
        assert selector2.relevant_sources(self.ADVISOR) == ("ep1", "ep2")
        assert ctx2.metrics.ask_requests == 0
        assert ctx2.metrics.cache_hits == 2

    def test_cache_keys_canonicalize_variables(self):
        a = TriplePattern(Variable("s"), IRI("http://p"), Variable("o"))
        b = TriplePattern(Variable("x"), IRI("http://p"), Variable("y"))
        assert canonical_pattern_key(a) == canonical_pattern_key(b)
        c = TriplePattern(Variable("x"), IRI("http://p"), Variable("x"))
        assert canonical_pattern_key(a) != canonical_pattern_key(c)

    def test_select_all_skips_fully_unbound(self, federation):
        ctx = federation.make_context()
        selector = SourceSelector(ElasticRequestHandler(federation, ctx))
        spo = TriplePattern(Variable("s"), Variable("p"), Variable("o"))
        selection = selector.select_all([spo, self.ADVISOR])
        assert selection[spo] == ("ep1", "ep2")
        assert selection[self.ADVISOR] == ("ep1", "ep2")
        # only the advisor pattern needed ASKs
        assert ctx.metrics.ask_requests == 2


class TestCheckCache:
    def test_signature_and_round_trip(self):
        cache = ProbeCache()
        tp1 = TriplePattern(Variable("p"), IRI("http://phd"), Variable("u"))
        tp2 = TriplePattern(Variable("u"), IRI("http://addr"), Variable("a"))
        sig = check_signature(tp1, tp2, None)
        assert cache.get("ep1", sig) is None
        cache.put("ep1", sig, True)
        assert cache.get("ep1", sig) is True
        assert cache.get("ep2", sig) is None
        assert len(cache) == 1
