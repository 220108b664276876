"""A hardened SPARQL 1.1 Protocol client endpoint.

:class:`RemoteEndpoint` makes a *real* HTTP SPARQL service — including
our own :class:`~repro.serving.server.LusailHTTPServer` — look like any
other federation member: it satisfies the
:class:`~repro.endpoint.base.SPARQLEndpoint` protocol, so a
:class:`~repro.federation.federation.Federation` can mix in-process
stores and remote servers transparently.  Federating over N of our own
servers reproduces the paper's multi-region Azure deployment in
miniature, with actual sockets in the loop.

Unlike :class:`~repro.endpoint.local.LocalEndpoint`, whose cost is
simulated on the virtual timeline, this endpoint is **wall-clock**
(``wall_clock = True``): the request handler times every attempt
itself and charges those real seconds instead of asking the
:class:`~repro.endpoint.network.NetworkModel`.

Hardening against the wire (the whole point — see the failure-mode
taxonomy in DESIGN.md):

- per-request wall-clock budgets: one deadline covers connect + write +
  read; the socket timeout is re-derived from the remaining budget
  before every read slice, so a stalled *or trickling* (slow-loris)
  response cannot hold a worker past its deadline;
- bounded body reads: the body is consumed in small slices with a hard
  ``max_body_bytes`` cap — a hostile/buggy server cannot balloon client
  memory;
- strict decoding: every 200 body goes through
  :func:`~repro.serving.protocol.decode_response_body`; malformed,
  truncated, or self-inconsistent documents raise
  :class:`~repro.endpoint.errors.EndpointProtocolError` — never a
  silently-empty result set;
- typed classification: connect-refused / reset / half-close /
  slow-loris / timeout each raise
  :class:`~repro.endpoint.errors.EndpointConnectionError` with a
  ``kind``, and 503/429 raise
  :class:`~repro.endpoint.errors.EndpointThrottledError` carrying the
  server's ``Retry-After`` — so the request handler's breaker, retry,
  and partial-results machinery each see the failure mode they were
  built for;
- safe retries only: SPARQL queries are reads, but the client still
  retransmits *only* when a pooled (reused) connection died before a
  single response byte arrived — the one case that is provably the
  stale-keep-alive race and not a server mid-crash.

Connections are pooled (bounded, LIFO) and reused across requests via
HTTP/1.1 keep-alive; ``pool_stats()`` exposes reuse counters for the
``/stats`` document.
"""

from __future__ import annotations

import http.client
import socket
import threading
import time
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlencode, urlsplit

from ..sparql.results import ResultSet
from .base import EndpointResponse
from .errors import (
    EndpointConnectionError,
    EndpointProtocolError,
    EndpointThrottledError,
    EndpointUnavailableError,
)
from .network import Region

# Media types restated from repro.serving.protocol (W3C constants); the
# strict decoder itself is imported lazily at call time — a module-level
# import of repro.serving here would close an import cycle through
# repro.core back into this package.
SPARQL_RESULTS_JSON = "application/sparql-results+json"
SPARQL_QUERY = "application/sparql-query"

#: queries short enough to travel as ``GET /sparql?query=`` (idempotent
#: at the HTTP level); longer ones go as ``POST application/sparql-query``
_GET_URL_LIMIT = 1800
#: body slice size for bounded streamed reads
_READ_SLICE = 64 * 1024


class _PooledConnection:
    """One keep-alive connection plus the flag retry logic needs."""

    __slots__ = ("conn", "reused")

    def __init__(self, conn: http.client.HTTPConnection, reused: bool):
        self.conn = conn
        self.reused = reused


class RemoteEndpoint:
    """A federation member reached over real HTTP sockets."""

    #: tells the request handler to charge real elapsed seconds instead
    #: of consulting the virtual-time network model
    wall_clock = True

    def __init__(
        self,
        url: str,
        endpoint_id: Optional[str] = None,
        region: Optional[Region] = None,
        *,
        api_key: Optional[str] = None,
        connect_timeout: float = 2.0,
        request_timeout: float = 15.0,
        max_body_bytes: int = 64 * 1024 * 1024,
        pool_size: int = 4,
        triple_count_hint: int = 0,
    ):
        split = urlsplit(url)
        if split.scheme != "http" or not split.hostname:
            raise ValueError(f"need an http:// URL, got {url!r}")
        self.url = url.rstrip("/")
        self.endpoint_id = endpoint_id or self.url
        self.region = region or Region(f"remote:{split.hostname}")
        self._host = split.hostname
        self._port = split.port or 80
        self._path = (split.path or "").rstrip("/") + "/sparql"
        self._api_key = api_key
        self.connect_timeout = connect_timeout
        self.request_timeout = request_timeout
        self.max_body_bytes = max_body_bytes
        self.pool_size = max(1, pool_size)
        self._triple_count = triple_count_hint
        self._lock = threading.Lock()
        self._slots = threading.BoundedSemaphore(self.pool_size)
        self._idle: List[http.client.HTTPConnection] = []
        self._closed = False
        self._stats = {
            "connections_created": 0,
            "connections_reused": 0,
            "connections_discarded": 0,
            "stale_retries": 0,
            "requests": 0,
            "in_flight_high_water": 0,
        }
        self._in_flight = 0

    # -- connection pool ---------------------------------------------------

    def _acquire(self) -> _PooledConnection:
        if not self._slots.acquire(timeout=self.request_timeout):
            raise EndpointUnavailableError(self.endpoint_id)
        with self._lock:
            if self._closed:
                self._slots.release()
                raise EndpointUnavailableError(self.endpoint_id)
            self._in_flight += 1
            self._stats["in_flight_high_water"] = max(
                self._stats["in_flight_high_water"], self._in_flight
            )
            if self._idle:
                self._stats["connections_reused"] += 1
                return _PooledConnection(self._idle.pop(), reused=True)
            self._stats["connections_created"] += 1
        conn = http.client.HTTPConnection(
            self._host, self._port, timeout=self.connect_timeout
        )
        return _PooledConnection(conn, reused=False)

    def _release(self, pooled: _PooledConnection, reusable: bool) -> None:
        with self._lock:
            self._in_flight -= 1
            if reusable and not self._closed and pooled.conn.sock is not None:
                self._idle.append(pooled.conn)
                self._slots.release()
                return
            self._stats["connections_discarded"] += 1
        try:
            pooled.conn.close()
        finally:
            self._slots.release()

    def pool_stats(self) -> Dict[str, int]:
        with self._lock:
            stats = dict(self._stats)
            stats["idle"] = len(self._idle)
            stats["in_flight"] = self._in_flight
        return stats

    def close(self) -> None:
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    # -- the SPARQLEndpoint surface ----------------------------------------

    def execute(
        self, query_text: str, timeout_seconds: Optional[float] = None
    ) -> EndpointResponse:
        """Run SPARQL text against the remote server, bounded by one
        wall-clock budget across connect, write, and every read slice."""
        budget = self.request_timeout
        if timeout_seconds is not None:
            budget = max(1e-3, min(budget, timeout_seconds))
        deadline = time.monotonic() + budget
        with self._lock:
            self._stats["requests"] += 1
        attempt = 0
        while True:
            attempt += 1
            pooled = self._acquire()
            try:
                return self._exchange(pooled, query_text, deadline)
            except _StaleConnection:
                # A reused keep-alive connection died with zero response
                # bytes read: the server closed it between our requests.
                # Retransmitting is safe (the request is a read and was
                # provably never processed) — once, on a fresh socket.
                self._release(pooled, reusable=False)
                with self._lock:
                    self._stats["stale_retries"] += 1
                if attempt >= 2:
                    raise EndpointConnectionError(
                        self.endpoint_id, "reset",
                        "keep-alive connection reset before response",
                    )
                continue
            except Exception:
                self._release(pooled, reusable=False)
                raise

    def triple_count(self) -> int:
        return self._triple_count

    def reset_request_window(self) -> None:
        """Per-query request budgeting is a simulation concern; no-op."""

    # -- one HTTP exchange -------------------------------------------------

    def _exchange(
        self,
        pooled: _PooledConnection,
        query_text: str,
        deadline: float,
    ) -> EndpointResponse:
        conn = pooled.conn
        headers = {"Accept": SPARQL_RESULTS_JSON, "User-Agent": "repro-lusail"}
        if self._api_key:
            headers["X-API-Key"] = self._api_key
        encoded = urlencode({"query": query_text})
        try:
            conn.timeout = max(1e-3, min(
                self.connect_timeout, deadline - time.monotonic()
            ))
            if conn.sock is not None:
                conn.sock.settimeout(conn.timeout)
            if len(self._path) + 1 + len(encoded) <= _GET_URL_LIMIT:
                conn.request("GET", f"{self._path}?{encoded}", headers=headers)
            else:
                headers["Content-Type"] = SPARQL_QUERY
                conn.request(
                    "POST", self._path,
                    body=query_text.encode("utf-8"), headers=headers,
                )
            # connect_timeout bounded the TCP handshake; the wait for the
            # status line is bounded by the whole remaining budget.
            if conn.sock is not None:
                conn.sock.settimeout(max(1e-3, deadline - time.monotonic()))
            response = conn.getresponse()
        except ConnectionRefusedError as error:
            raise EndpointConnectionError(
                self.endpoint_id, "connect-refused", str(error)
            ) from error
        except socket.timeout as error:
            raise EndpointConnectionError(
                self.endpoint_id, "timeout", "no response within budget"
            ) from error
        except (ConnectionResetError, BrokenPipeError,
                http.client.BadStatusLine) as error:
            # RemoteDisconnected subclasses both BadStatusLine and
            # ConnectionResetError; either way no response byte arrived.
            if pooled.reused:
                raise _StaleConnection() from error
            raise EndpointConnectionError(
                self.endpoint_id, "reset", str(error)
            ) from error
        except OSError as error:
            raise EndpointConnectionError(
                self.endpoint_id, "connect-refused", str(error)
            ) from error
        body, truncated_kind = self._read_body(conn, response, deadline)
        reusable = not truncated_kind and not response.will_close
        outcome = self._classify(response, body, truncated_kind)
        self._release(pooled, reusable=reusable)
        return outcome

    def _read_body(
        self, conn: http.client.HTTPConnection,
        response: http.client.HTTPResponse, deadline: float,
    ) -> Tuple[bytes, Optional[str]]:
        """Consume the body in bounded slices under the wall deadline.

        Returns ``(bytes, failure_kind)``; a non-None kind means the body
        is incomplete and classifies why (``half-close``, ``slow-loris``,
        ``timeout``, ``oversized``).  Chunked transfer decoding happens
        inside ``http.client`` — a truncated chunk stream surfaces as
        ``IncompleteRead``, i.e. ``half-close``.
        """
        pieces = []
        total = 0
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return (
                    b"".join(pieces),
                    "slow-loris" if total else "timeout",
                )
            if conn.sock is not None:
                conn.sock.settimeout(max(1e-3, remaining))
            try:
                piece = response.read(_READ_SLICE)
            except socket.timeout:
                return (
                    b"".join(pieces),
                    "slow-loris" if total else "timeout",
                )
            except http.client.IncompleteRead as error:
                pieces.append(error.partial)
                return b"".join(pieces), "half-close"
            except (ConnectionResetError, OSError):
                return b"".join(pieces), "half-close"
            if not piece:
                return b"".join(pieces), None
            total += len(piece)
            if total > self.max_body_bytes:
                return b"".join(pieces), "oversized"
            pieces.append(piece)

    def _classify(
        self,
        response: http.client.HTTPResponse,
        body: bytes,
        truncated_kind: Optional[str],
    ) -> EndpointResponse:
        status = response.status
        if status in (429, 503):
            raise EndpointThrottledError(
                self.endpoint_id, status,
                retry_after=_parse_retry_after(
                    response.getheader("Retry-After")
                ),
            )
        if 400 <= status < 500:
            raise EndpointProtocolError(
                self.endpoint_id,
                f"HTTP {status}: {_error_detail(body)}",
                retryable=False,
            )
        if status >= 500:
            raise EndpointUnavailableError(self.endpoint_id)
        if status != 200:
            raise EndpointProtocolError(
                self.endpoint_id, f"unexpected HTTP status {status}"
            )
        if truncated_kind == "oversized":
            raise EndpointProtocolError(
                self.endpoint_id,
                f"response body exceeded {self.max_body_bytes} bytes",
                retryable=False,
            )
        if truncated_kind is not None:
            raise EndpointConnectionError(
                self.endpoint_id, truncated_kind,
                f"body incomplete after {len(body)} bytes",
            )
        media_type = (
            (response.getheader("Content-Type") or "")
            .split(";", 1)[0].strip().lower()
        )
        if media_type and media_type != SPARQL_RESULTS_JSON:
            raise EndpointProtocolError(
                self.endpoint_id,
                f"unexpected media type {media_type!r}", retryable=False,
            )
        from ..serving.protocol import ProtocolDecodeError, decode_response_body

        try:
            value, info = decode_response_body(body)
        except ProtocolDecodeError as error:
            raise EndpointProtocolError(
                self.endpoint_id, str(error)
            ) from error
        partial = response.getheader("X-Lusail-Status") == "PARTIAL"
        if isinstance(info, dict):
            if info.get("truncated"):
                partial = True
            if info.get("status") == "PARTIAL":
                partial = True
            if info.get("status") not in (None, "OK", "PARTIAL"):
                raise EndpointProtocolError(
                    self.endpoint_id,
                    f"remote query failed: {info.get('error') or info['status']}",
                )
        rows = len(value.rows) if isinstance(value, ResultSet) else 1
        return EndpointResponse(
            value=value,
            rows_touched=rows,
            bytes_received=len(body),
            partial=partial,
        )


class _StaleConnection(Exception):
    """Internal: a reused keep-alive socket died before any response byte."""


def _parse_retry_after(header: Optional[str]) -> float:
    if not header:
        return 0.0
    try:
        return max(0.0, float(header))
    except ValueError:
        return 0.0  # HTTP-date form: treat as "no hint"


def _error_detail(body: bytes) -> str:
    text = body[:200].decode("utf-8", errors="replace")
    return " ".join(text.split()) or "(empty body)"


def federate_remotes(
    urls: List[str],
    *,
    api_key: Optional[str] = None,
    request_timeout: float = 15.0,
) -> List[RemoteEndpoint]:
    """Remote members for every URL, ids ``remote0..remoteN-1``.

    Convenience for the self-federation demo: boot N
    ``LusailHTTPServer`` instances, then
    ``Federation(federate_remotes([s.url for s in servers]))``.
    """
    return [
        RemoteEndpoint(
            url,
            endpoint_id=f"remote{index}",
            api_key=api_key,
            request_timeout=request_timeout,
        )
        for index, url in enumerate(urls)
    ]
