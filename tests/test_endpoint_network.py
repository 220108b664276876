"""Tests for endpoints, the network model, and execution metrics."""

import pytest

from repro.endpoint import (
    AZURE_GEO,
    EndpointRateLimitError,
    ExecutionContext,
    LOCAL_CLUSTER,
    LinkProfile,
    LocalEndpoint,
    MemoryLimitError,
    QueryTimeoutError,
    Region,
)
from repro.rdf import parse as nt_parse

DATA = """
<http://u/kim> <http://ub/advisor> <http://u/tim> .
<http://u/tim> <http://ub/teacherOf> <http://u/c1> .
<http://u/kim> <http://ub/takesCourse> <http://u/c1> .
"""


@pytest.fixture
def endpoint():
    return LocalEndpoint.from_triples("ep1", nt_parse(DATA))


class TestLocalEndpoint:
    def test_select(self, endpoint):
        response = endpoint.execute("SELECT ?s WHERE { ?s <http://ub/advisor> ?o }")
        assert len(response.value) == 1
        assert response.rows_touched == 1
        assert response.bytes_received > 0

    def test_ask(self, endpoint):
        response = endpoint.execute("ASK { ?s <http://ub/advisor> ?o }")
        assert response.value is True
        response = endpoint.execute("ASK { ?s <http://ub/nothing> ?o }")
        assert response.value is False

    def test_triple_count(self, endpoint):
        assert endpoint.triple_count() == 3

    def test_parse_cache_reuses_ast(self, endpoint):
        text = "SELECT ?s WHERE { ?s <http://ub/advisor> ?o }"
        endpoint.execute(text)
        assert text in endpoint._parse_cache
        endpoint.execute(text)  # served from cache; same result
        assert len(endpoint.execute(text).value) == 1

    def test_parse_cache_is_bounded_by_text_not_entries(self, endpoint):
        """A stream of one-shot bound VALUES requests (kilobytes each)
        must not pile up ASTs: the cache holds a fixed budget of query
        text and drops the least recently used — never the hot probe."""
        from repro.endpoint.local import _PARSE_CACHE_TEXT_BYTES

        hot = "ASK { ?s <http://ub/advisor> ?o }"
        block = " ".join(f"<http://u/student{i}>" for i in range(200))
        for round_ in range(120):
            assert endpoint.execute(hot).value is True
            endpoint.execute(
                f"SELECT ?s WHERE {{ VALUES ?s {{ {block} <http://u/r{round_}> }} "
                "?s <http://ub/advisor> ?o }"
            )
        cached = sum(len(text) for text in endpoint._parse_cache)
        assert cached == endpoint._parse_cache_bytes <= _PARSE_CACHE_TEXT_BYTES
        assert 2 <= len(endpoint._parse_cache) < 120
        assert hot in endpoint._parse_cache

    def test_rate_limit(self):
        endpoint = LocalEndpoint.from_triples(
            "ep", nt_parse(DATA), max_requests_per_query=2
        )
        endpoint.execute("ASK { ?s ?p ?o }")
        endpoint.execute("ASK { ?s ?p ?o }")
        with pytest.raises(EndpointRateLimitError):
            endpoint.execute("ASK { ?s ?p ?o }")
        endpoint.reset_request_window()
        endpoint.execute("ASK { ?s ?p ?o }")  # fresh window


class TestNetworkModel:
    def test_intra_vs_inter_region(self):
        a, b = Region("us"), Region("eu")
        assert AZURE_GEO.link(a, a).round_trip_seconds < AZURE_GEO.link(a, b).round_trip_seconds

    def test_override_symmetry(self):
        us, eu = Region("central-us"), Region("east-us")
        assert AZURE_GEO.link(us, eu) == AZURE_GEO.link(eu, us)

    def test_request_cost_scales_with_bytes(self):
        a, b = Region("x"), Region("y")
        small = LOCAL_CLUSTER.request_cost(a, b, 100, 100, 1)
        large = LOCAL_CLUSTER.request_cost(a, b, 100, 10_000_000, 1)
        assert large > small

    def test_request_cost_scales_with_rows(self):
        a, b = Region("x"), Region("y")
        few = LOCAL_CLUSTER.request_cost(a, b, 100, 100, 1)
        many = LOCAL_CLUSTER.request_cost(a, b, 100, 100, 1_000_000)
        assert many > few

    def test_transfer_seconds(self):
        profile = LinkProfile(0.01, 1000.0)
        assert profile.transfer_seconds(500, 500) == pytest.approx(1.01)


class TestExecutionContext:
    def make_context(self, **kwargs):
        return ExecutionContext(
            network=LOCAL_CLUSTER, client_region=Region("c"), **kwargs
        )

    def test_charge_accumulates(self):
        ctx = self.make_context()
        ctx.charge(1.5)
        ctx.charge(0.5)
        assert ctx.metrics.virtual_seconds == pytest.approx(2.0)

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            self.make_context().charge(-1)

    def test_timeout(self):
        ctx = self.make_context(timeout_seconds=1.0)
        with pytest.raises(QueryTimeoutError):
            ctx.charge(2.0)

    def test_memory_limit(self):
        ctx = self.make_context(max_intermediate_rows=10)
        ctx.note_intermediate_rows(5)
        assert ctx.metrics.peak_intermediate_rows == 5
        with pytest.raises(MemoryLimitError):
            ctx.note_intermediate_rows(11)

    def test_phase_attribution(self):
        ctx = self.make_context()
        with ctx.phase("source_selection"):
            ctx.charge(1.0)
        with ctx.phase("execution"):
            ctx.charge(2.0)
        assert ctx.metrics.phase_seconds["source_selection"] == pytest.approx(1.0)
        assert ctx.metrics.phase_seconds["execution"] == pytest.approx(2.0)

    def test_nested_phases_attribute_to_innermost(self):
        ctx = self.make_context()
        with ctx.phase("outer"):
            ctx.charge(1.0)
            with ctx.phase("inner"):
                ctx.charge(2.0)
            ctx.charge(0.5)
        assert ctx.metrics.phase_seconds["inner"] == pytest.approx(2.0)
        assert ctx.metrics.phase_seconds["outer"] == pytest.approx(1.5)

    def test_charge_join_uses_threads(self):
        ctx = self.make_context(join_threads=4)
        ctx.charge_join(4_000_000)
        single = ExecutionContext(LOCAL_CLUSTER, Region("c"), join_threads=1)
        single.charge_join(4_000_000)
        assert ctx.metrics.virtual_seconds < single.metrics.virtual_seconds


class TestFailureInjection:
    def test_failure_rate_validation(self):
        from repro.rdf import parse as nt_parse
        with pytest.raises(ValueError):
            LocalEndpoint.from_triples("ep", nt_parse(DATA), failure_rate=1.5)

    def test_deterministic_failures(self):
        from repro.endpoint import EndpointUnavailableError
        from repro.rdf import parse as nt_parse

        def failure_positions(seed):
            endpoint = LocalEndpoint.from_triples(
                "ep", nt_parse(DATA), failure_rate=0.5, failure_seed=seed
            )
            outcomes = []
            for _ in range(20):
                try:
                    endpoint.execute("ASK { ?s ?p ?o }")
                    outcomes.append(True)
                except EndpointUnavailableError:
                    outcomes.append(False)
            return outcomes

        assert failure_positions(1) == failure_positions(1)
        assert False in failure_positions(1)
        assert True in failure_positions(1)

    def test_zero_rate_never_fails(self):
        from repro.rdf import parse as nt_parse

        endpoint = LocalEndpoint.from_triples("ep", nt_parse(DATA))
        for _ in range(50):
            endpoint.execute("ASK { ?s ?p ?o }")
