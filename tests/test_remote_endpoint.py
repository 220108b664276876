"""The tentpole end-to-end proof: federating over real HTTP sockets.

Boots real ``LusailHTTPServer`` instances (one per paper endpoint) and
federates over them with :class:`RemoteEndpoint` — the self-federation
the demo paper runs across Azure regions, in miniature on loopback.

The core invariant: the loopback-HTTP federation must be **bit-identical**
(rows *and* order) to the same federation evaluated in-process, and any
divergence must surface as a typed error — never a silently-empty result.
"""

import contextlib
import threading
import time

import pytest

from .conftest import EP1_TRIPLES, EP2_TRIPLES, QA_EXPECTED, QUERY_QA
from .engine_endpoint import EngineEndpoint
from repro.core import LusailEngine
from repro.endpoint import (
    EndpointConnectionError,
    EndpointProtocolError,
    EndpointThrottledError,
    LocalEndpoint,
    RemoteEndpoint,
    federate_remotes,
)
from repro.federation import Federation
from repro.rdf import parse as nt_parse
from repro.serving import QuerySessionManager, start_server

UB = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"


def member_engine(endpoint_id, triples):
    federation = Federation(
        [LocalEndpoint.from_triples(endpoint_id, nt_parse(triples))]
    )
    return LusailEngine(
        federation, use_threads=True, reset_request_windows=False
    )


@contextlib.contextmanager
def serve_members(*, tenants=(), max_concurrent=8):
    """Two servers, each hosting one paper endpoint (ep1 / ep2)."""
    servers = []
    try:
        for endpoint_id, triples in (
            ("ep1", EP1_TRIPLES), ("ep2", EP2_TRIPLES)
        ):
            manager = QuerySessionManager(
                member_engine(endpoint_id, triples),
                tenants=tenants,
                max_concurrent=max_concurrent,
            )
            server, _thread = start_server(manager)
            servers.append(server)
        yield servers
    finally:
        for server in servers:
            server.shutdown()
            server.server_close()


def row_values(result):
    return [
        tuple(getattr(t, "value", None) or t.lexical for t in row)
        for row in result.rows
    ]


class TestRemoteFederation:
    def test_answers_match_paper_expectation_over_http(self):
        with serve_members() as servers:
            remotes = [
                RemoteEndpoint(server.url, endpoint_id=f"ep{i + 1}")
                for i, server in enumerate(servers)
            ]
            engine = LusailEngine(Federation(remotes), use_threads=True)
            outcome = engine.execute(QUERY_QA)
            assert outcome.status == "OK", outcome.error
            assert set(row_values(outcome.result)) == QA_EXPECTED
            for remote in remotes:
                remote.close()

    def test_http_federation_bit_identical_to_in_process(self):
        """Rows AND order must match the in-process comparator exactly."""
        with serve_members() as servers:
            remotes = [
                RemoteEndpoint(server.url, endpoint_id=f"ep{i + 1}")
                for i, server in enumerate(servers)
            ]
            over_http = LusailEngine(Federation(remotes), use_threads=True)
            http_outcome = over_http.execute(QUERY_QA)

            in_process = LusailEngine(
                Federation([
                    EngineEndpoint(member_engine("ep1", EP1_TRIPLES), "ep1"),
                    EngineEndpoint(member_engine("ep2", EP2_TRIPLES), "ep2"),
                ]),
                use_threads=True,
            )
            local_outcome = in_process.execute(QUERY_QA)

            assert http_outcome.status == "OK", http_outcome.error
            assert local_outcome.status == "OK", local_outcome.error
            assert (
                row_values(http_outcome.result)
                == row_values(local_outcome.result)
            )
            for remote in remotes:
                remote.close()

    def test_connections_are_pooled_and_reused(self):
        with serve_members() as servers:
            remote = RemoteEndpoint(servers[0].url, endpoint_id="ep1")
            for _ in range(6):
                remote.execute(
                    f"SELECT ?s WHERE {{ ?s <{UB}advisor> ?o }}"
                )
            stats = remote.pool_stats()
            assert stats["requests"] == 6
            assert stats["connections_created"] <= 2
            assert stats["connections_reused"] >= 4
            assert stats["in_flight"] == 0
            remote.close()

    def test_long_query_travels_as_post(self):
        with serve_members() as servers:
            remote = RemoteEndpoint(servers[0].url, endpoint_id="ep1")
            padding = " ".join("#" for _ in range(1200))
            response = remote.execute(
                f"SELECT ?s WHERE {{ ?s <{UB}advisor> ?o }} {padding}"
            )
            assert len(response.value.rows) > 0
            remote.close()

    def test_ask_queries_round_trip(self):
        with serve_members() as servers:
            remote = RemoteEndpoint(servers[0].url, endpoint_id="ep1")
            yes = remote.execute(f"ASK {{ ?s <{UB}advisor> ?o }}")
            no = remote.execute(f"ASK {{ ?s <{UB}nonexistent> ?o }}")
            assert yes.value is True
            assert no.value is False
            remote.close()

    def test_locality_probes_answerable_by_served_engine(self):
        """A served Lusail engine must answer another engine's Figure-5
        locality probes (FILTER NOT EXISTS) — the self-federation loop."""
        with serve_members() as servers:
            remote = RemoteEndpoint(servers[0].url, endpoint_id="ep1")
            probe = (
                f"SELECT ?S WHERE {{ "
                f"?S <{RDF_TYPE}> <{UB}GraduateStudent> . "
                f"FILTER NOT EXISTS {{ ?S <{UB}advisor> ?x }} }}"
            )
            response = remote.execute(probe)
            # every ep1 graduate student has an advisor
            assert len(response.value.rows) == 0
            remote.close()

    def test_federate_remotes_assigns_sequential_ids(self):
        with serve_members() as servers:
            remotes = federate_remotes([s.url for s in servers])
            assert [r.endpoint_id for r in remotes] == ["remote0", "remote1"]
            response = remotes[0].execute(
                f"SELECT ?s WHERE {{ ?s <{UB}advisor> ?o }}"
            )
            assert len(response.value.rows) > 0
            for remote in remotes:
                remote.close()

    def test_endpoint_stats_include_remote_pools(self):
        with serve_members() as servers:
            remote = RemoteEndpoint(servers[0].url, endpoint_id="ep1")
            engine = LusailEngine(Federation([remote]), use_threads=True)
            outcome = engine.execute(
                f"SELECT ?s WHERE {{ ?s <{UB}advisor> ?o }}"
            )
            assert outcome.status == "OK"
            stats = engine.endpoint_stats()
            assert "ep1" in stats
            assert stats["ep1"]["pool"]["requests"] >= 1
            remote.close()


class TestRemoteFailureClassification:
    def test_connect_refused_is_typed(self):
        # Bind-then-close guarantees nothing listens on the port.
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        remote = RemoteEndpoint(
            f"http://127.0.0.1:{port}", endpoint_id="gone",
            connect_timeout=0.5, request_timeout=1.0,
        )
        with pytest.raises(EndpointConnectionError) as info:
            remote.execute("ASK { ?s ?p ?o }")
        assert info.value.kind == "connect-refused"

    def test_bad_query_is_a_permanent_protocol_error(self):
        with serve_members() as servers:
            remote = RemoteEndpoint(servers[0].url, endpoint_id="ep1")
            with pytest.raises(EndpointProtocolError) as info:
                remote.execute("THIS IS NOT SPARQL")
            assert info.value.retryable is False
            remote.close()

    def test_oversized_body_is_rejected(self):
        with serve_members() as servers:
            remote = RemoteEndpoint(
                servers[0].url, endpoint_id="ep1", max_body_bytes=64,
            )
            with pytest.raises(EndpointProtocolError) as info:
                remote.execute(f"SELECT ?s WHERE {{ ?s <{UB}advisor> ?o }}")
            assert info.value.retryable is False
            assert "exceeded" in info.value.detail
            remote.close()

    def test_unknown_tenant_is_permanent(self):
        from repro.serving import TenantClass

        tenants = (TenantClass(name="gold", api_key="gold", weight=1.0),)
        with serve_members(tenants=tenants) as servers:
            remote = RemoteEndpoint(
                servers[0].url, endpoint_id="ep1", api_key="wrong",
            )
            with pytest.raises(EndpointProtocolError) as info:
                remote.execute("ASK { ?s ?p ?o }")
            assert info.value.retryable is False
            remote.close()


class TestGracefulShutdown:
    def test_draining_server_rejects_with_retry_after(self):
        manager = QuerySessionManager(
            member_engine("ep1", EP1_TRIPLES), tenants=(), max_concurrent=4
        )
        server, _thread = start_server(manager)
        try:
            remote = RemoteEndpoint(server.url, endpoint_id="ep1")
            remote.execute("ASK { ?s ?p ?o }")  # healthy first
            server.draining = True
            with pytest.raises(EndpointThrottledError) as info:
                remote.execute("ASK { ?s ?p ?o }")
            assert info.value.http_status == 503
            assert info.value.retry_after > 0
            remote.close()
        finally:
            server.draining = False
            server.shutdown()
            server.server_close()

    def test_shutdown_gracefully_waits_for_in_flight(self):
        manager = QuerySessionManager(
            member_engine("ep1", EP1_TRIPLES), tenants=(), max_concurrent=4
        )
        server, _thread = start_server(manager)
        release = threading.Event()
        original = manager.execute

        def slow_execute(*args, **kwargs):
            release.wait(timeout=5.0)
            return original(*args, **kwargs)

        manager.execute = slow_execute
        results = {}

        def client():
            remote = RemoteEndpoint(server.url, endpoint_id="ep1")
            try:
                results["response"] = remote.execute("ASK { ?s ?p ?o }")
            except Exception as error:  # pragma: no cover - diagnostic
                results["error"] = error
            finally:
                remote.close()

        worker = threading.Thread(target=client)
        worker.start()
        deadline = time.monotonic() + 5.0
        while server.inflight == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.inflight == 1

        def drain_then_release():
            time.sleep(0.1)
            release.set()

        threading.Thread(target=drain_then_release).start()
        drained = server.shutdown_gracefully(drain_seconds=5.0)
        worker.join(timeout=5.0)
        server.server_close()
        assert drained is True
        assert "error" not in results, results.get("error")
        assert results["response"].value is True

    def test_shutdown_gracefully_is_immediate_when_idle(self):
        manager = QuerySessionManager(
            member_engine("ep1", EP1_TRIPLES), tenants=(), max_concurrent=4
        )
        server, _thread = start_server(manager)
        started = time.monotonic()
        drained = server.shutdown_gracefully(drain_seconds=5.0)
        server.server_close()
        assert drained is True
        assert time.monotonic() - started < 2.0

    def test_health_reports_draining(self):
        import json
        import urllib.request

        manager = QuerySessionManager(
            member_engine("ep1", EP1_TRIPLES), tenants=(), max_concurrent=4
        )
        server, _thread = start_server(manager)
        try:
            with urllib.request.urlopen(f"{server.url}/health") as response:
                assert json.loads(response.read())["status"] == "ok"
            server.draining = True
            with urllib.request.urlopen(f"{server.url}/health") as response:
                assert json.loads(response.read())["status"] == "draining"
        finally:
            server.draining = False
            server.shutdown()
            server.server_close()
