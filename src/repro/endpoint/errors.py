"""Errors raised during (simulated) federated execution."""

from __future__ import annotations


class FederationError(RuntimeError):
    """Base class for failures the harness reports per query."""

    #: short status tag used in benchmark tables (paper notation)
    status = "RE"


class QueryTimeoutError(FederationError):
    """The query exceeded the virtual time limit (paper: ``TO``)."""

    status = "TO"

    def __init__(self, limit_seconds: float):
        super().__init__(f"virtual time limit of {limit_seconds:.0f}s exceeded")
        self.limit_seconds = limit_seconds


class MemoryLimitError(FederationError):
    """Intermediate results exceeded the row budget (paper: ``OOM``)."""

    status = "OOM"

    def __init__(self, rows: int, limit: int):
        super().__init__(f"intermediate result of {rows} rows exceeds limit {limit}")
        self.rows = rows
        self.limit = limit


class EndpointUnavailableError(FederationError):
    """A (simulated) endpoint failed to answer a request transiently.

    Real federations see these constantly — overloaded public endpoints,
    network blips.  The request handler retries a configurable number of
    times before giving up; an exhausted retry budget surfaces as ``RE``.
    """

    status = "RE"
    #: ``False`` marks a failure a retransmission would only repeat; the
    #: request handler then skips its retry loop
    retryable = True
    #: pause the server asked for before a retry (``Retry-After``); a
    #: floor under the request handler's own backoff
    retry_after = 0.0

    def __init__(self, endpoint_id: str):
        super().__init__(f"endpoint {endpoint_id!r} did not answer")
        self.endpoint_id = endpoint_id


class CircuitBreakerOpenError(EndpointUnavailableError):
    """The request handler's circuit breaker is open for this endpoint.

    Raised *without* contacting the endpoint: after enough consecutive
    failures the handler fails fast until a virtual-time cooldown
    elapses, then lets one half-open probe through.  Sharing the
    :class:`EndpointUnavailableError` base means partial-results
    handling treats fast-fails and real failures uniformly.
    """

    def __init__(self, endpoint_id: str, open_until: float):
        FederationError.__init__(
            self,
            f"circuit breaker open for endpoint {endpoint_id!r} "
            f"until t={open_until:.3f}s",
        )
        self.endpoint_id = endpoint_id
        self.open_until = open_until


class RequestTimeoutError(EndpointUnavailableError):
    """A single request exceeded its (possibly adaptive) timeout, or the
    query's deadline cut it off mid-flight.

    The request handler raises this at *scheduling* time: the client
    stopped waiting after ``timeout_seconds``, so only that much is
    charged to the clock and lane — the endpoint may well still be
    grinding on the answer nobody will read.  Sharing the
    :class:`EndpointUnavailableError` base means partial-results
    handling degrades (and replicas are tried) instead of aborting.
    ``deadline`` distinguishes the query budget binding (no health
    blame for the endpoint) from a per-request timeout (an endpoint
    health signal that feeds the circuit breaker).
    """

    def __init__(self, endpoint_id: str, timeout_seconds: float,
                 deadline: bool = False):
        cause = "query deadline" if deadline else "request timeout"
        FederationError.__init__(
            self,
            f"request to endpoint {endpoint_id!r} cancelled after "
            f"{timeout_seconds:.3f}s ({cause})",
        )
        self.endpoint_id = endpoint_id
        self.timeout_seconds = timeout_seconds
        self.deadline = deadline


class QueryRejectedError(EndpointUnavailableError):
    """This work was refused up front, without contacting anything.

    A request handler that is already closed parks this on late
    submissions.  (Whole-query admission is the serving layer's
    ``QuerySessionManager``.)  Shedding is free by construction —
    nothing was sent, nothing is charged.
    """

    def __init__(self, scope: str, reason: str):
        FederationError.__init__(self, f"rejected {scope!r}: {reason}")
        self.endpoint_id = scope
        self.reason = reason


class EndpointProtocolError(EndpointUnavailableError):
    """A remote endpoint answered with bytes we refuse to trust.

    Malformed JSON, a truncated results document, a binding set that
    violates its own header, an oversized body, an unexpected media
    type: anything where *some* bytes arrived but decoding them into a
    :class:`~repro.endpoint.base.EndpointResponse` would risk returning
    silently wrong results.  The remote client raises this instead of
    guessing — a federated query then degrades through the same
    partial-results / replica paths as any other endpoint failure.

    ``retryable`` is ``False`` for responses that look like a server
    bug rather than a transient wire accident (e.g. an HTTP 400): the
    request handler then skips its retry loop and fails over directly.
    """

    def __init__(self, endpoint_id: str, detail: str, retryable: bool = True):
        FederationError.__init__(
            self, f"endpoint {endpoint_id!r} protocol violation: {detail}"
        )
        self.endpoint_id = endpoint_id
        self.detail = detail
        self.retryable = retryable


class EndpointConnectionError(EndpointUnavailableError):
    """A wall-clock socket to a remote endpoint failed.

    ``kind`` classifies the wire-level failure mode so operators (and
    the chaos suite) can tell refused connections from mid-body resets
    from stalls:

    - ``connect-refused`` — TCP connect failed (endpoint down / port
      closed); always safe to retry, nothing was sent.
    - ``reset`` — the peer reset or closed the connection mid-exchange;
      retried only for idempotent requests where zero response bytes
      had been read.
    - ``half-close`` — the body ended before the endpoint said it would
      (short read against Content-Length, or an unterminated chunked
      stream).
    - ``slow-loris`` — bytes kept trickling but the read deadline
      expired before the document completed.
    - ``timeout`` — no bytes at all within the read deadline.
    """

    def __init__(self, endpoint_id: str, kind: str, detail: str = ""):
        FederationError.__init__(
            self,
            f"endpoint {endpoint_id!r} connection failure ({kind})"
            + (f": {detail}" if detail else ""),
        )
        self.endpoint_id = endpoint_id
        self.kind = kind
        self.detail = detail


class EndpointThrottledError(EndpointUnavailableError):
    """A remote endpoint answered 503/429: back off, then retry.

    ``retry_after`` carries the server's ``Retry-After`` header (in
    seconds) when one was sent; the request handler's backoff honors it
    as a floor, so a polite server's pacing wins over our exponential
    schedule.
    """

    def __init__(self, endpoint_id: str, http_status: int,
                 retry_after: float = 0.0):
        FederationError.__init__(
            self,
            f"endpoint {endpoint_id!r} throttled request (HTTP "
            f"{http_status}, retry after {retry_after:.3f}s)",
        )
        self.endpoint_id = endpoint_id
        self.http_status = http_status
        self.retry_after = retry_after


class EndpointRateLimitError(FederationError):
    """A (simulated) public endpoint refused further requests.

    Real federations hit this constantly (the paper's Table 2 shows FedX
    failing with runtime errors against Bio2RDF); endpoints here can be
    configured with a per-query request budget to reproduce it.
    """

    status = "RE"

    def __init__(self, endpoint_id: str, limit: int):
        super().__init__(
            f"endpoint {endpoint_id!r} rejected request: more than "
            f"{limit} requests in one query"
        )
        self.endpoint_id = endpoint_id
        self.limit = limit
