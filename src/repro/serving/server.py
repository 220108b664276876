"""A SPARQL-protocol HTTP front end on the stdlib threading server.

:class:`LusailHTTPServer` exposes one
:class:`~repro.serving.sessions.QuerySessionManager` over the `SPARQL
1.1 Protocol`_:

- ``GET /sparql?query=...`` and ``POST /sparql`` (form-encoded
  ``query=`` or a bare ``application/sparql-query`` body) run a query;
- results stream back as ``application/sparql-results+json`` over
  HTTP/1.1 chunked transfer encoding, ``chunk_rows`` bindings per chunk
  (bounded buffering — a million-row answer never materializes as one
  bytes object);
- ``GET /health`` and ``GET /stats`` expose liveness and the per-tenant
  QoS counters.

Error mapping follows the protocol spec plus the engine's own status
vocabulary: malformed/unsupported queries → 400, unknown API key → 401,
content-type we can't read → 415, nothing acceptable to the client →
406, fair-share shed → 503 + ``Retry-After``, query deadline exceeded →
504, resource exhaustion / internal failure → 500.  A ``PARTIAL``
result is still a 200 — the client gets every binding we produced — but
carries ``X-Lusail-Status: PARTIAL`` so callers can tell.

Each HTTP request runs on its own :class:`ThreadingHTTPServer` thread;
all cross-request coordination (admission, fair share, shared caches,
endpoint serialization) lives in the session manager and the engine
stack underneath it.

.. _SPARQL 1.1 Protocol: https://www.w3.org/TR/sparql11-protocol/
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..core.engine import QueryResult
from ..sparql.lexer import SparqlSyntaxError
from ..sparql.parser import parse_query
from .protocol import (
    SPARQL_QUERY,
    SPARQL_RESULTS_JSON,
    boolean_document,
    document_tail,
    iter_results_chunks,
    iter_streaming_chunks,
    negotiate,
)
from .sessions import (
    QuerySessionManager,
    TenantOverloadError,
    UnknownTenantError,
)

#: bindings per chunked-encoding piece (the buffering bound)
DEFAULT_CHUNK_ROWS = 256


class SparqlRequestHandler(BaseHTTPRequestHandler):
    """One SPARQL-protocol request (the server spawns one thread each)."""

    protocol_version = "HTTP/1.1"
    server_version = "Lusail/0.1"
    #: TCP_NODELAY on every accepted socket: a response is several small
    #: writes, and Nagle holding the later ones back for the client's
    #: delayed ACK costs ~40 ms per response
    disable_nagle_algorithm = True

    # The manager is attached to the server object by LusailHTTPServer.
    @property
    def manager(self) -> QuerySessionManager:
        return self.server.manager  # type: ignore[attr-defined]

    # -- plumbing ----------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.server.verbose:  # type: ignore[attr-defined]
            super().log_message(format, *args)

    def _send_json(
        self,
        status: int,
        document: dict,
        content_type: str = "application/json",
        extra_headers: Tuple[Tuple[str, str], ...] = (),
    ) -> None:
        body = json.dumps(document).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in extra_headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(
        self,
        status: int,
        message: str,
        extra_headers: Tuple[Tuple[str, str], ...] = (),
    ) -> None:
        self._send_json(
            status, {"error": message}, extra_headers=extra_headers
        )

    def _api_key(self, params: dict) -> Optional[str]:
        header = self.headers.get("X-API-Key")
        if header is not None:
            return header
        values = params.get("apikey")
        return values[0] if values else None

    # -- HTTP verbs --------------------------------------------------------

    def _reject_if_draining(self) -> bool:
        """New work during a graceful drain gets 503 + close, so clients
        fail over immediately instead of queueing behind the shutdown."""
        if not self.server.draining:  # type: ignore[attr-defined]
            return False
        self.send_response(503)
        body = b'{"error": "server is draining"}'
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Retry-After", "1")
        self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)
        self.close_connection = True
        return True

    def do_GET(self):  # noqa: N802 - stdlib naming
        url = urlsplit(self.path)
        params = parse_qs(url.query)
        if url.path == "/health":
            draining = self.server.draining  # type: ignore[attr-defined]
            self._send_json(
                200, {"status": "draining" if draining else "ok"}
            )
            return
        if url.path == "/stats":
            self._send_json(200, self.manager.stats())
            return
        if url.path != "/sparql":
            self._send_error_json(404, f"no such resource: {url.path}")
            return
        if self._reject_if_draining():
            return
        queries = params.get("query")
        if not queries:
            self._send_error_json(
                400, "missing required 'query' parameter"
            )
            return
        with self.server.track_request():  # type: ignore[attr-defined]
            self._run_query(queries[0], params)

    def do_POST(self):  # noqa: N802 - stdlib naming
        url = urlsplit(self.path)
        if url.path != "/sparql":
            self._send_error_json(404, f"no such resource: {url.path}")
            return
        if self._reject_if_draining():
            return
        params = parse_qs(url.query)
        if "chunked" in (
            self.headers.get("Transfer-Encoding") or ""
        ).lower():
            # A chunked request body would desynchronize the connection:
            # reading Content-Length (absent -> 0) bytes leaves the
            # chunk stream in the pipe, and the next keep-alive request
            # would parse mid-body garbage as its request line.  Demand
            # a length and drop the connection instead.
            self._send_error_json(
                411, "chunked request bodies are not supported"
            )
            self.close_connection = True
            return
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length)
        content_type = (
            (self.headers.get("Content-Type") or "")
            .split(";", 1)[0]
            .strip()
            .lower()
        )
        if content_type == SPARQL_QUERY:
            query_text = body.decode("utf-8")
        elif content_type == "application/x-www-form-urlencoded":
            form = parse_qs(body.decode("utf-8"))
            queries = form.get("query")
            if not queries:
                self._send_error_json(
                    400, "missing required 'query' form field"
                )
                return
            query_text = queries[0]
            # form fields may also carry the API key
            for key, values in form.items():
                params.setdefault(key, values)
        else:
            self._send_error_json(
                415,
                "unsupported Content-Type: expected "
                f"{SPARQL_QUERY} or application/x-www-form-urlencoded",
            )
            return
        with self.server.track_request():  # type: ignore[attr-defined]
            self._run_query(query_text, params)

    # -- query execution ---------------------------------------------------

    def _run_query(self, query_text: str, params: dict) -> None:
        content_type = negotiate(self.headers.get("Accept"))
        if content_type is None:
            self._send_error_json(
                406,
                f"only {SPARQL_RESULTS_JSON} is available",
            )
            return
        # Reject malformed queries before spending an admission slot.
        try:
            parse_query(query_text)
        except SparqlSyntaxError as exc:
            self._send_error_json(400, f"malformed query: {exc}")
            return
        deadline = None
        if params.get("deadline"):
            try:
                deadline = float(params["deadline"][0])
            except ValueError:
                self._send_error_json(400, "malformed 'deadline' parameter")
                return
        stream = (params.get("stream") or ["0"])[0].lower() in (
            "1", "true", "yes",
        )
        try:
            if stream:
                session = self.manager.execute_streaming(
                    query_text,
                    api_key=self._api_key(params),
                    deadline_seconds=deadline,
                )
            else:
                result = self.manager.execute(
                    query_text,
                    api_key=self._api_key(params),
                    deadline_seconds=deadline,
                )
        except UnknownTenantError as exc:
            self._send_error_json(401, str(exc))
            return
        except TenantOverloadError as exc:
            self._send_error_json(
                503,
                str(exc),
                extra_headers=(
                    ("Retry-After", f"{exc.retry_after:g}"),
                ),
            )
            return
        if stream:
            self._stream_session(session)
        else:
            self._send_result(result)

    def _send_result(self, result: QueryResult) -> None:
        if result.status in ("OK", "PARTIAL"):
            if result.boolean is not None:
                extra = ()
                if result.status == "PARTIAL":
                    extra = (("X-Lusail-Status", "PARTIAL"),)
                self._send_json(
                    200,
                    boolean_document(result.boolean),
                    content_type=SPARQL_RESULTS_JSON,
                    extra_headers=extra,
                )
                return
            self._stream_results(result)
            return
        message = result.error or f"query failed with status {result.status}"
        if result.status == "TO":
            self._send_error_json(504, message)
        elif result.status == "RE" and "UnsupportedQueryError" in message:
            self._send_error_json(400, message)
        else:  # OOM and remaining runtime errors
            self._send_error_json(500, message)

    def _stream_results(self, result: QueryResult) -> None:
        """Write the results document with chunked transfer encoding."""
        self.send_response(200)
        self.send_header("Content-Type", SPARQL_RESULTS_JSON)
        self.send_header("Transfer-Encoding", "chunked")
        if result.status == "PARTIAL":
            self.send_header("X-Lusail-Status", "PARTIAL")
        self.end_headers()
        chunk_rows = self.server.chunk_rows  # type: ignore[attr-defined]
        self._write_chunks(iter_results_chunks(result.result, chunk_rows))

    def _stream_session(self, session) -> None:
        """Write a streamed query's document as batches are produced.

        The 200 + chunked headers go out only once the first batch (or
        end of stream) is known, so failures before any bytes are
        written still map to proper HTTP status codes; after that the
        response is committed and any engine-side failure travels in the
        document's trailing ``"x-lusail"`` member instead.
        """
        batches = session.batches()
        try:
            first = next(batches, None)
        except Exception as exc:  # defensive: session produced no result
            session.close()
            self._send_error_json(500, f"{type(exc).__name__}: {exc}")
            return
        if first is None:
            # Ended before any batch: full outcome known, classic send
            # (boolean documents, errors with real status codes, empty
            # results) — nothing was streamed, nothing is committed.
            self._send_result(session.result)
            return

        def remaining():
            yield first
            yield from batches

        def trailer():
            result = session.result
            info = {
                "status": "PARTIAL" if result is None else result.status,
            }
            if result is not None:
                if result.error:
                    info["error"] = result.error
                if result.metrics is not None:
                    info["ttfb_seconds"] = result.metrics.ttfb_seconds
                    info["virtual_seconds"] = result.metrics.virtual_seconds
                if result.completeness is not None:
                    info["complete"] = result.completeness.complete
            return info

        self.send_response(200)
        self.send_header("Content-Type", SPARQL_RESULTS_JSON)
        self.send_header("Transfer-Encoding", "chunked")
        self.send_header("X-Lusail-Streaming", "1")
        self.end_headers()
        chunk_rows = self.server.chunk_rows  # type: ignore[attr-defined]
        try:
            self._write_chunks(
                iter_streaming_chunks(
                    session.variables, remaining(), trailer, chunk_rows
                )
            )
        finally:
            session.close()

    def _write_chunks(self, pieces) -> None:
        """Write one chunked-encoded body; never leave it half-open.

        A client hang-up just drops the connection.  Any other mid-body
        failure (serializer bug, engine exception surfacing through a
        lazy iterator) appends a well-formed truncation tail — closing
        the JSON document with ``"x-lusail": {"truncated": true}`` — and
        the terminating zero chunk, so clients never block on a chunked
        response whose end never comes.  A graceful drain cuts in-flight
        streams the same way: a well-formed ``PARTIAL`` tail between
        pieces instead of a mid-chunk reset.
        """
        wrote_head = False
        try:
            for piece in pieces:
                if not piece:
                    continue  # a zero-length chunk would terminate the body
                if wrote_head and (
                    self.server.draining  # type: ignore[attr-defined]
                ):
                    # document_tail is valid only after the head piece
                    # (it closes the bindings array the head opened).
                    self._write_tail({
                        "status": "PARTIAL",
                        "truncated": True,
                        "reason": "server draining",
                    })
                    return
                self.wfile.write(b"%X\r\n%b\r\n" % (len(piece), piece))
                wrote_head = True
            self.wfile.write(b"0\r\n\r\n")
        except (BrokenPipeError, ConnectionResetError):
            # The client hung up mid-stream; nothing left to tell it.
            self.close_connection = True
        except Exception as exc:
            self._write_tail({
                "status": "RE",
                "error": f"{type(exc).__name__}: {exc}",
                "truncated": True,
            })

    def _write_tail(self, info: dict) -> None:
        """Terminate a committed chunked response with a well-formed
        truncation tail; always closes the connection afterwards (the
        advertised document was cut short, so the framing is suspect)."""
        tail = document_tail(info)
        try:
            self.wfile.write(b"%X\r\n%b\r\n0\r\n\r\n" % (len(tail), tail))
        except (BrokenPipeError, ConnectionResetError):
            pass
        self.close_connection = True


class LusailHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one session manager."""

    daemon_threads = True

    def handle_error(self, request, client_address):
        # Client disconnects (burst tests, impatient curls) are routine,
        # not server errors; only trace them when asked to be chatty.
        if self.verbose:
            super().handle_error(request, client_address)

    def __init__(
        self,
        address: Tuple[str, int],
        manager: QuerySessionManager,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        verbose: bool = False,
    ):
        super().__init__(address, SparqlRequestHandler)
        self.manager = manager
        self.chunk_rows = chunk_rows
        self.verbose = verbose
        #: set by shutdown_gracefully(): new queries get 503 + close,
        #: in-flight streams truncate with a well-formed PARTIAL tail
        self.draining = False
        self._inflight = 0
        self._inflight_cond = threading.Condition()

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    @contextmanager
    def track_request(self):
        """Count one in-flight query (what a graceful drain waits for)."""
        with self._inflight_cond:
            self._inflight += 1
        try:
            yield
        finally:
            with self._inflight_cond:
                self._inflight -= 1
                self._inflight_cond.notify_all()

    @property
    def inflight(self) -> int:
        with self._inflight_cond:
            return self._inflight

    def shutdown_gracefully(self, drain_seconds: float = 5.0) -> bool:
        """Stop serving without resetting anyone mid-answer.

        Order matters: (1) flip ``draining`` so handler threads start
        refusing new queries and truncating streams at their next piece
        boundary — with a well-formed ``PARTIAL`` tail, never a bare
        reset; (2) stop the accept loop and close the *listener* first,
        so load balancers and retrying clients fail over immediately;
        (3) wait — bounded by ``drain_seconds`` — for in-flight queries
        to finish.  Returns True when the drain completed (no query was
        still running at the deadline).  Idempotent; also what the
        SIGTERM handler in ``repro.serving.__main__`` calls.
        """
        self.draining = True
        self.shutdown()
        self.server_close()
        deadline = time.monotonic() + max(0.0, drain_seconds)
        with self._inflight_cond:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._inflight_cond.wait(remaining)
        return True


def start_server(
    manager: QuerySessionManager,
    host: str = "127.0.0.1",
    port: int = 0,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    verbose: bool = False,
) -> Tuple[LusailHTTPServer, threading.Thread]:
    """Boot a server on a background thread; ``port=0`` picks a free one.

    Returns the server (``server.url`` is ready to hit) and its serving
    thread.  Call ``server.shutdown()`` then ``server.server_close()``
    to stop; the thread is daemonic, so it never blocks interpreter exit.
    """
    server = LusailHTTPServer(
        (host, port), manager, chunk_rows=chunk_rows, verbose=verbose
    )
    thread = threading.Thread(
        target=server.serve_forever, name="lusail-http", daemon=True
    )
    thread.start()
    return server, thread
