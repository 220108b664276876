"""SPARQL-protocol serving layer: wire format, HTTP server, tenant QoS.

Protocol tests pin the SPARQL JSON results format (typed literals,
language tags, blank nodes, unbound cells) and its streaming chunker;
server tests boot a real :class:`LusailHTTPServer` on a loopback port
and drive it with stdlib ``urllib`` — documents served over HTTP must
be bit-identical to a direct in-process ``execute()``.  Session tests
pin the reserve-protecting fair-share admission invariants.
"""

import contextlib
import json
import socket
import threading
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.core import LusailEngine, QueryResult
from repro.datasets.directory import (
    DIRECTORY_QUERY,
    build_directory_federation,
)
from repro.datasets.lubm import LUBM_QUERIES, LubmGenerator
from repro.endpoint import LocalEndpoint, Metrics
from repro.federation import Federation
from repro.rdf import BNode, IRI, Literal, Variable
from repro.rdf import parse as nt_parse
from repro.serving import (
    SPARQL_RESULTS_JSON,
    QuerySessionManager,
    SparqlRequestHandler,
    TenantClass,
    TenantOverloadError,
    UnknownTenantError,
    boolean_document,
    document_tail,
    iter_results_chunks,
    iter_streaming_chunks,
    negotiate,
    parse_results_document,
    results_document,
    start_server,
    term_from_json,
    term_to_json,
)
from repro.sparql.results import ResultSet

from .conftest import (
    QA_EXPECTED,
    QUERY_QA,
    build_paper_federation,
    result_values,
)

XSD_INT = "http://www.w3.org/2001/XMLSchema#integer"

#: an endpoint whose answers exercise every term shape on the wire
TYPED_TRIPLES = f"""
_:alice <http://x/name> "Alice" .
_:alice <http://x/label> "chat"@fr .
_:alice <http://x/age> "42"^^<{XSD_INT}> .
<http://x/bob> <http://x/name> "Bob" .
<http://x/bob> <http://x/knows> _:alice .
"""

TYPED_QUERY = """
SELECT ?s ?name ?label ?age WHERE {
  ?s <http://x/name> ?name .
  OPTIONAL { ?s <http://x/label> ?label }
  OPTIONAL { ?s <http://x/age> ?age }
}
"""


def typed_federation() -> Federation:
    return Federation([
        LocalEndpoint.from_triples("typed", nt_parse(TYPED_TRIPLES)),
    ])


@contextlib.contextmanager
def serve(federation=None, tenants=(), max_concurrent=8, **engine_knobs):
    fed = federation if federation is not None else build_paper_federation()
    engine = LusailEngine(
        fed, use_threads=True, reset_request_windows=False, **engine_knobs
    )
    manager = QuerySessionManager(
        engine, tenants=tenants, max_concurrent=max_concurrent
    )
    server, _thread = start_server(manager)
    try:
        yield server, manager
    finally:
        server.shutdown()
        server.server_close()


def http(url, data=None, headers=None, method=None):
    """(status, headers, body) for one request; HTTP errors returned,
    not raised."""
    request = urllib.request.Request(
        url, data=data, headers=headers or {}, method=method
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


def sparql_url(server, query, **params):
    params["query"] = query
    return server.url + "/sparql?" + urllib.parse.urlencode(params)


# ----------------------------------------------------------------------
# Wire format
# ----------------------------------------------------------------------

class TestTermJson:
    @pytest.mark.parametrize("term,cell", [
        (IRI("http://x/a"), {"type": "uri", "value": "http://x/a"}),
        (BNode("b0"), {"type": "bnode", "value": "b0"}),
        (Literal("plain"), {"type": "literal", "value": "plain"}),
        (Literal("chat", language="fr"),
         {"type": "literal", "value": "chat", "xml:lang": "fr"}),
        (Literal("5", datatype=XSD_INT),
         {"type": "literal", "value": "5", "datatype": XSD_INT}),
    ])
    def test_round_trip(self, term, cell):
        assert term_to_json(term) == cell
        assert term_from_json(cell) == term

    def test_legacy_typed_literal_accepted(self):
        cell = {"type": "typed-literal", "value": "5", "datatype": XSD_INT}
        assert term_from_json(cell) == Literal("5", datatype=XSD_INT)

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            term_from_json({"type": "graph", "value": "x"})

    def test_variable_is_not_a_ground_term(self):
        with pytest.raises(TypeError):
            term_to_json(Variable("x"))


class TestResultsDocument:
    def _result(self):
        return ResultSet(
            (Variable("s"), Variable("o")),
            [
                (IRI("http://x/a"), Literal("chat", language="fr")),
                (BNode("b0"), Literal("5", datatype=XSD_INT)),
                (IRI("http://x/b"), None),  # unbound cell
            ],
        )

    def test_document_round_trip_preserves_everything(self):
        result = self._result()
        document = results_document(result)
        rebuilt = parse_results_document(document)
        assert [v.name for v in rebuilt.variables] == ["s", "o"]
        assert rebuilt.rows == result.rows

    def test_unbound_cells_absent_from_bindings(self):
        document = results_document(self._result())
        assert document["results"]["bindings"][2] == {
            "s": {"type": "uri", "value": "http://x/b"}
        }

    def test_boolean_document(self):
        assert boolean_document(True) == {"head": {}, "boolean": True}
        assert boolean_document(False) == {"head": {}, "boolean": False}

    def test_chunks_concatenate_to_the_full_document(self):
        result = self._result()
        for chunk_rows in (1, 2, 256):
            body = b"".join(iter_results_chunks(result, chunk_rows))
            assert json.loads(body) == results_document(result)

    def test_chunking_is_bounded(self):
        result = ResultSet(
            (Variable("s"),),
            [(IRI(f"http://x/{i}"),) for i in range(10)],
        )
        pieces = list(iter_results_chunks(result, chunk_rows=3))
        # header + ceil(10/3) row chunks + closer
        assert len(pieces) == 1 + 4 + 1
        assert json.loads(b"".join(pieces)) == results_document(result)

    def test_chunk_rows_must_be_positive(self):
        with pytest.raises(ValueError):
            list(iter_results_chunks(self._result(), chunk_rows=0))

    def test_empty_result_is_a_valid_document(self):
        empty = ResultSet((Variable("s"),), [])
        body = b"".join(iter_results_chunks(empty))
        assert json.loads(body) == {
            "head": {"vars": ["s"]},
            "results": {"bindings": []},
        }


class TestNegotiate:
    @pytest.mark.parametrize("accept", [
        None, "", SPARQL_RESULTS_JSON, "application/json", "*/*",
        "application/*", "text/html, */*;q=0.1",
        "application/sparql-results+json; q=0.9",
    ])
    def test_acceptable(self, accept):
        assert negotiate(accept) == SPARQL_RESULTS_JSON

    @pytest.mark.parametrize("accept", [
        "text/csv", "application/sparql-results+xml", "text/html",
    ])
    def test_unacceptable(self, accept):
        assert negotiate(accept) is None


# ----------------------------------------------------------------------
# HTTP server
# ----------------------------------------------------------------------

class TestServerEndToEnd:
    def test_get_is_bit_identical_to_direct_execute(self):
        federation = build_paper_federation()
        direct = LusailEngine(federation).execute(QUERY_QA)
        assert direct.status == "OK"
        expected = results_document(direct.result)
        with serve(federation) as (server, _manager):
            status, headers, body = http(
                sparql_url(server, QUERY_QA),
                headers={"Accept": SPARQL_RESULTS_JSON},
            )
        assert status == 200
        assert headers["Content-Type"] == SPARQL_RESULTS_JSON
        assert headers.get("Transfer-Encoding") == "chunked"
        assert json.loads(body) == expected
        assert result_values(parse_results_document(json.loads(body))) \
            == QA_EXPECTED

    def test_a_stock_sparql_client_reads_the_answer(self):
        """The de-facto client contract (a Fuseki client: bare ``GET
        /sparql?query=…`` carrying nothing but ``Accept``, then plain
        dict access on the W3C results document) — no API key, no Lusail
        header or parameter, none of this package's decoders."""
        with serve() as (server, _manager):
            request = urllib.request.Request(
                sparql_url(server, QUERY_QA),
                headers={"Accept": "application/sparql-results+json"},
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                assert response.status == 200
                assert response.headers.get_content_type() \
                    == "application/sparql-results+json"
                document = json.load(response)
        # nothing beyond the standard members for a strict client to trip on
        assert set(document) == {"head", "results"}
        variables = document["head"]["vars"]
        assert variables == ["S", "P", "U", "A"]
        bindings = document["results"]["bindings"]
        assert {
            tuple(binding[name]["value"] for name in variables)
            for binding in bindings
        } == QA_EXPECTED
        assert {
            cell["type"] for binding in bindings for cell in binding.values()
        } == {"uri", "literal"}

    def test_concurrent_clients_each_get_the_direct_document(self):
        """Twelve socket clients at once: concurrency must not change a
        single binding of any response."""
        federation = LubmGenerator(universities=2).build_federation()
        direct = LusailEngine(federation)
        expected = {}
        for name in ("Q1", "Q4"):
            outcome = direct.execute(LUBM_QUERIES[name])
            assert outcome.status == "OK"
            expected[name] = results_document(outcome.result)
        clients = 12
        barrier = threading.Barrier(clients)
        mismatches = []

        def client(index):
            name = ("Q1", "Q4")[index % 2]
            barrier.wait(timeout=30)
            status, _headers, body = http(
                sparql_url(server, LUBM_QUERIES[name])
            )
            if status != 200 or json.loads(body) != expected[name]:
                mismatches.append(f"client {index} {name}: HTTP {status}")

        with serve(federation, max_concurrent=clients) as (server, manager):
            pool = [
                threading.Thread(target=client, args=(index,))
                for index in range(clients)
            ]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in pool)
            stats = manager.stats()
        assert mismatches == []
        assert stats["tenants"]["public"]["completed"] == clients
        assert stats["tenants"]["public"]["sheds"] == 0

    @pytest.mark.parametrize("streamed", [False, True])
    def test_each_chunk_is_one_write_on_a_nodelay_socket(self, streamed):
        """A response used to leave as three unbuffered writes per chunk
        on a Nagle socket: every one after the first waited ~40 ms for
        the client's delayed ACK.  Counted, not timed."""
        observed = {}

        class CountingWriter:
            def __init__(self, raw):
                self.raw = raw

            def write(self, data):
                observed["writes"].append(bytes(data))
                return self.raw.write(data)

            def __getattr__(self, name):
                return getattr(self.raw, name)

        class Recording(SparqlRequestHandler):
            def setup(self):
                super().setup()
                observed["nodelay"] = self.connection.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY
                )
                observed["writes"] = []
                self.wfile = CountingWriter(self.wfile)

        federation = build_paper_federation()
        direct = LusailEngine(federation).execute(QUERY_QA)
        with serve(federation) as (server, _manager):
            server.RequestHandlerClass = Recording
            server.chunk_rows = 1
            if streamed:
                status, _headers, arrivals = _read_streamed(server, QUERY_QA)
                body = b"".join(arrivals)
            else:
                status, _headers, body = http(sparql_url(server, QUERY_QA))
        assert status == 200
        assert result_values(parse_results_document(json.loads(body))) \
            == result_values(direct.result)
        assert observed["nodelay"]
        payload = [w for w in observed["writes"] if not w.startswith(b"HTTP/")]
        # every write is whole chunks: "<hex size>\r\n<payload>\r\n"
        chunks = 0
        for write in payload:
            while write:
                size, _, rest = write.partition(b"\r\n")
                assert rest[int(size, 16):][:2] == b"\r\n"
                write = rest[int(size, 16) + 2:]
                chunks += 1
        # one write per piece, the terminating zero chunk, the headers
        assert chunks >= 4
        assert len(observed["writes"]) <= (chunks - 1) + 2

    def test_typed_terms_survive_the_wire(self):
        """Language tags, typed literals, bnodes, and unbound OPTIONAL
        cells all round-trip through HTTP bit-identically."""
        federation = typed_federation()
        direct = LusailEngine(federation).execute(TYPED_QUERY)
        assert direct.status == "OK"
        expected = results_document(direct.result)
        # the fixture really exercises every term shape
        flat = json.dumps(expected)
        assert "xml:lang" in flat
        assert "bnode" in flat and "datatype" in flat
        assert any(
            len(binding) < 4 for binding in expected["results"]["bindings"]
        ), "expected at least one unbound OPTIONAL cell"
        with serve(federation) as (server, _manager):
            status, _headers, body = http(sparql_url(server, TYPED_QUERY))
        assert status == 200
        assert json.loads(body) == expected
        assert parse_results_document(json.loads(body)).rows \
            == direct.result.rows

    def test_post_form_and_raw_query_bodies(self):
        federation = build_paper_federation()
        expected = results_document(
            LusailEngine(federation).execute(QUERY_QA).result
        )
        with serve(federation) as (server, _manager):
            status, _h, body = http(
                server.url + "/sparql",
                data=urllib.parse.urlencode({"query": QUERY_QA}).encode(),
                headers={
                    "Content-Type": "application/x-www-form-urlencoded"
                },
            )
            assert status == 200 and json.loads(body) == expected
            status, _h, body = http(
                server.url + "/sparql",
                data=QUERY_QA.encode(),
                headers={"Content-Type": "application/sparql-query"},
            )
            assert status == 200 and json.loads(body) == expected

    def test_ask_query_returns_boolean_document(self):
        with serve() as (server, _manager):
            status, _h, body = http(
                sparql_url(server, "ASK { ?s ?p ?o }")
            )
        assert status == 200
        assert json.loads(body) == {"head": {}, "boolean": True}

    def test_health_and_stats(self):
        with serve() as (server, _manager):
            status, _h, body = http(server.url + "/health")
            assert status == 200 and json.loads(body) == {"status": "ok"}
            http(sparql_url(server, "ASK { ?s ?p ?o }"))
            status, _h, body = http(server.url + "/stats")
            stats = json.loads(body)
        assert status == 200
        assert stats["tenants"]["public"]["completed"] == 1
        assert stats["max_concurrent"] == 8

    def test_error_codes(self):
        tenants = (TenantClass("gold", "secret"),)
        with serve(tenants=tenants) as (server, _manager):
            ask = "ASK { ?s ?p ?o }"
            key = {"X-API-Key": "secret"}
            cases = [
                # missing query parameter
                (http(server.url + "/sparql", headers=key), 400),
                # malformed query
                (http(sparql_url(server, "NOT SPARQL"), headers=key), 400),
                # malformed deadline
                (http(sparql_url(server, ask, deadline="soon"),
                      headers=key), 400),
                # unknown API key
                (http(sparql_url(server, ask)), 401),
                # unknown resource
                (http(server.url + "/nope", headers=key), 404),
                # nothing acceptable
                (http(sparql_url(server, ask),
                      headers={**key, "Accept": "text/csv"}), 406),
                # unreadable POST body type
                (http(server.url + "/sparql", data=b"{}",
                      headers={**key, "Content-Type": "application/json"}),
                 415),
            ]
            for (status, _headers, _body), want in cases:
                assert status == want
            # api key via query parameter works too
            status, _h, body = http(sparql_url(server, ask, apikey="secret"))
            assert status == 200 and json.loads(body)["boolean"] is True

    def test_overload_returns_503_with_retry_after(self):
        with serve(max_concurrent=0) as (server, _manager):
            status, headers, body = http(
                sparql_url(server, "ASK { ?s ?p ?o }")
            )
        assert status == 503
        assert "Retry-After" in headers
        assert "shed" in json.loads(body)["error"]


# ----------------------------------------------------------------------
# Fair-share admission
# ----------------------------------------------------------------------

class _NoEngine:
    """Admission tests never reach the engine."""


class _GatedEngine:
    """Holds every admitted query until the gate opens, so which
    requests overlap is decided by the test, not by the scheduler."""

    def __init__(self):
        self.gate = threading.Event()

    def execute(self, query_text, **_limits):
        assert self.gate.wait(timeout=30), "the burst never shed"
        return QueryResult("OK", None, Metrics())


def _manager(max_concurrent=4):
    return QuerySessionManager(
        _NoEngine(),
        tenants=[
            TenantClass("gold", "g", weight=3.0),
            TenantClass("bronze", "b", weight=1.0),
        ],
        max_concurrent=max_concurrent,
    )


class TestFairShareAdmission:
    def test_reserves_tile_the_pool_by_weight(self):
        manager = _manager()
        assert manager._reserve(manager.resolve("g")) == 3.0
        assert manager._reserve(manager.resolve("b")) == 1.0

    def test_flooder_is_capped_at_its_reserve_while_others_idle(self):
        """Borrowing never consumes capacity backing an unused reserve:
        a quiet tenant can walk into a flood and claim its full share."""
        manager = _manager()
        bronze = manager.resolve("b")
        admitted = sum(manager.try_admit(bronze) for _ in range(10))
        assert admitted == 1  # reserve 1, gold's 3 stay backed
        gold = manager.resolve("g")
        assert all(manager.try_admit(gold) for _ in range(3))
        stats = manager.stats()
        assert stats["tenants"]["gold"]["sheds"] == 0
        assert stats["tenants"]["bronze"]["sheds"] == 9
        # pool genuinely full now
        assert not manager.try_admit(gold)
        assert not manager.try_admit(bronze)

    def test_saturating_burst_sheds_and_serves(self):
        """Overload degrades by shedding, never by queueing: a burst four
        times the pool serves exactly the pool's worth and turns the
        rest away at once, while the admitted queries are still
        running."""
        burst, pool_size = 8, 2
        engine = _GatedEngine()
        manager = QuerySessionManager(engine, max_concurrent=pool_size)
        outcomes = []

        def fire():
            try:
                outcomes.append(manager.execute("ASK { ?s ?p ?o }").status)
            except TenantOverloadError as shed:
                assert shed.scope == "global"
                outcomes.append("shed")
                if outcomes.count("shed") == burst - pool_size:
                    engine.gate.set()

        pool = [threading.Thread(target=fire) for _ in range(burst)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in pool)
        assert sorted(outcomes) == ["OK"] * pool_size + ["shed"] * (
            burst - pool_size
        )
        stats = manager.stats()
        assert stats["tenants"]["public"]["sheds"] == burst - pool_size
        assert stats["tenants"]["public"]["completed"] == pool_size
        assert stats["active"] == 0

    def test_release_restores_admission(self):
        manager = _manager()
        bronze = manager.resolve("b")
        assert manager.try_admit(bronze)
        assert not manager.try_admit(bronze)
        manager.release(bronze)
        assert manager.try_admit(bronze)

    def test_single_tenant_uses_the_whole_pool(self):
        manager = QuerySessionManager(_NoEngine(), max_concurrent=4)
        tenant = manager.resolve(None)  # open access maps to "public"
        assert sum(manager.try_admit(tenant) for _ in range(6)) == 4

    def test_unknown_key_raises(self):
        manager = _manager()
        with pytest.raises(UnknownTenantError):
            manager.resolve("nope")

    def test_duplicate_tenants_rejected(self):
        with pytest.raises(ValueError):
            QuerySessionManager(_NoEngine(), tenants=[
                TenantClass("a", "k"), TenantClass("b", "k"),
            ])
        with pytest.raises(ValueError):
            QuerySessionManager(_NoEngine(), tenants=[
                TenantClass("a", "k1"), TenantClass("a", "k2"),
            ])

    def test_weight_must_be_positive(self):
        with pytest.raises(ValueError):
            TenantClass("a", "k", weight=0.0)


# ----------------------------------------------------------------------
# Streaming over HTTP: stream=1, the x-lusail trailer, truncation
# ----------------------------------------------------------------------


def _read_streamed(server, query, **params):
    """(status, headers, arrivals) reading the body chunk by chunk."""
    import http.client as http_client

    params["stream"] = "1"
    split = urllib.parse.urlsplit(sparql_url(server, query, **params))
    conn = http_client.HTTPConnection(
        split.hostname, split.port, timeout=30
    )
    conn.request("GET", split.path + "?" + split.query)
    response = conn.getresponse()
    arrivals = []
    while True:
        piece = response.read1(65536)
        if not piece:
            break
        arrivals.append(piece)
    headers = dict(response.getheaders())
    conn.close()
    return response.status, headers, arrivals


class TestStreamingChunks:
    """The protocol-level streamed serializer and its failure framing."""

    def _batches(self):
        x = Variable("x")
        return [
            ResultSet((x,), [(IRI(f"http://x/{i}"),)]) for i in range(3)
        ]

    def test_concatenation_is_a_valid_document_with_trailer(self):
        x = Variable("x")
        pieces = list(iter_streaming_chunks(
            (x,), iter(self._batches()), lambda: {"status": "OK"}
        ))
        document = json.loads(b"".join(pieces))
        assert document["x-lusail"] == {"status": "OK"}
        assert len(document["results"]["bindings"]) == 3
        # the tolerant parser ignores the extra member
        assert len(parse_results_document(document)) == 3

    def test_mid_stream_failure_stays_well_formed(self):
        x = Variable("x")

        def exploding():
            yield ResultSet((x,), [(IRI("http://x/0"),)])
            raise RuntimeError("endpoint fell over")

        pieces = list(iter_streaming_chunks(
            (x,), exploding(), lambda: {"status": "OK"}
        ))
        document = json.loads(b"".join(pieces))  # must not raise
        assert document["x-lusail"]["status"] == "RE"
        assert document["x-lusail"]["truncated"] is True
        assert "endpoint fell over" in document["x-lusail"]["error"]
        assert len(document["results"]["bindings"]) == 1

    def test_document_tail_closes_at_any_point(self):
        x = Variable("x")
        pieces = list(iter_streaming_chunks(
            (x,), iter(self._batches()), lambda: {"status": "OK"}
        ))
        tail = document_tail({"status": "PARTIAL", "truncated": True})
        # a truncation after ANY piece boundary still parses
        for cut in range(1, len(pieces)):
            document = json.loads(b"".join(pieces[:cut]) + tail)
            assert document["x-lusail"]["truncated"] is True

    def test_empty_stream_is_valid(self):
        x = Variable("x")
        pieces = list(iter_streaming_chunks(
            (x,), iter(()), lambda: {"status": "OK"}
        ))
        document = json.loads(b"".join(pieces))
        assert document["results"]["bindings"] == []


#: name -> (federation builder, query, engine knobs, the share of the
#: virtual makespan by which the first result must have left, partial
#: VALUES dispatches required).  The directory workload is the one whose delayed
#: subqueries leave something to stream: small VALUES blocks and an
#: aggressive delay threshold make incremental dispatch kick in.
_STREAMED_WORKLOADS = {
    "paper": (build_paper_federation, QUERY_QA, {}, 1.0, 0),
    "directory": (
        lambda: build_directory_federation(
            universities=8, students_per_university=4,
            noise_addresses=120, noise_emails=150,
        ),
        DIRECTORY_QUERY,
        dict(pool_size=32, delay_threshold="mu", values_block_size=2),
        0.5,
        1,
    ),
}


class TestServerStreaming:
    def test_streamed_document_matches_materialized(self):
        for build, query, knobs, ttfb_share, partial_dispatches in (
            _STREAMED_WORKLOADS.values()
        ):
            direct = LusailEngine(build(), **knobs).execute(query)
            # a cold engine: a warm result cache leaves nothing to stream
            with serve(build(), **knobs) as (server, manager):
                status, headers, arrivals = _read_streamed(server, query)
                stats = manager.stats()
            assert status == 200
            assert headers.get("X-Lusail-Streaming") == "1"
            document = json.loads(b"".join(arrivals))
            info = document["x-lusail"]
            assert info["status"] == "OK"
            assert info["complete"] is True
            assert info["ttfb_seconds"] \
                <= ttfb_share * info["virtual_seconds"]
            assert result_values(parse_results_document(document)) \
                == result_values(direct.result)
            assert stats["streaming"]["streams"] == 1
            assert stats["streaming"]["truncated"] == 0
            assert stats["streaming"]["batches_routed"] > 0
            assert stats["streaming"]["values_dispatches_partial"] \
                >= partial_dispatches
            assert stats["streaming"]["ttfb_p50_s"] is not None

    def test_first_bytes_precede_the_trailer(self):
        for build, query, knobs, _share, _dispatches in (
            _STREAMED_WORKLOADS.values()
        ):
            with serve(build(), **knobs) as (server, _manager):
                _status, _headers, arrivals = _read_streamed(server, query)
            assert len(arrivals) >= 2
            assert b"x-lusail" not in arrivals[0]
            assert b"x-lusail" in arrivals[-1]

    def test_stream_of_non_streamable_query_still_answers(self):
        """ORDER BY falls back to the materialized path but the
        stream=1 request is still served correctly."""
        query = QUERY_QA.rstrip() + "\nORDER BY ?S"
        with serve() as (server, _manager):
            status, _headers, arrivals = _read_streamed(server, query)
        assert status == 200
        document = json.loads(b"".join(arrivals))
        assert result_values(parse_results_document(document)) \
            == QA_EXPECTED

    def test_streamed_ask_uses_the_classic_path(self):
        with serve() as (server, _manager):
            status, headers, arrivals = _read_streamed(
                server, "ASK { ?s ?p ?o }"
            )
        assert status == 200
        assert headers.get("X-Lusail-Streaming") is None
        assert json.loads(b"".join(arrivals))["boolean"] is True

    def test_streamed_parse_error_is_a_400(self):
        with serve() as (server, _manager):
            status, _headers, _arrivals = _read_streamed(
                server, "NOT SPARQL"
            )
        assert status == 400

    def test_streaming_session_releases_its_slot(self):
        federation = build_paper_federation()
        engine = LusailEngine(
            federation, use_threads=True, reset_request_windows=False
        )
        manager = QuerySessionManager(engine, max_concurrent=1)
        session = manager.execute_streaming(QUERY_QA)
        rows = []
        for batch in session.batches():
            rows.extend(batch.rows)
        assert session.result.status == "OK"
        assert result_values(session.result.result) == QA_EXPECTED
        # the slot freed: a second streamed query admits immediately
        second = manager.execute_streaming(QUERY_QA)
        assert sum(len(b.rows) for b in second.batches()) == len(rows)
        stats = manager.stats()
        assert stats["streaming"]["streams"] == 2
        assert stats["tenants"]["public"]["completed"] == 2

    def test_closing_a_session_counts_truncation(self):
        federation = build_paper_federation()
        engine = LusailEngine(
            federation, use_threads=True, reset_request_windows=False
        )
        manager = QuerySessionManager(engine, max_concurrent=1)
        session = manager.execute_streaming(QUERY_QA)
        next(session.batches())
        session.close()
        assert session.truncated
        assert session.result.status == "PARTIAL"
        stats = manager.stats()
        assert stats["streaming"]["truncated"] == 1
        # the slot is back regardless of how the stream ended
        assert manager.execute_streaming(QUERY_QA) is not None
