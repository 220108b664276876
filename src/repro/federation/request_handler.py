"""The Elastic Request Handler (ERH).

The paper's ERH manages a pool of threads that issue ASK / check / SELECT
requests to endpoints in parallel (Figure 3).  Virtual time models that
parallelism deterministically with a *makespan simulator*: every request
submitted through :meth:`ElasticRequestHandler.submit` is scheduled onto

- a **lane** per endpoint — requests addressed to one endpoint
  serialize, exactly like a single SPARQL server answering one query at
  a time; and
- a pool of ``pool_size`` **workers** — total concurrency is bounded by
  the thread pool, like the paper's setup.

A request starts at the latest of (a) the virtual clock when it was
submitted, (b) the moment its endpoint lane frees up, and (c) the moment
a pool worker frees up; it finishes ``cost_seconds`` later.  The clock
only advances when a :class:`ResponseFuture` is resolved, so requests
submitted by *different pipeline stages* before any of them is awaited
share one in-flight window and overlap — the futures-based pipelining
the paper's Figure 3 depicts.  ``execute_batch`` (submit a wave, gather
it immediately) therefore charges the wave's makespan and keeps the
barrier semantics earlier code relied on, while ``submit``/``gather``
let callers keep many waves in flight at once.

Serial execution (``execute``) still charges the full round trip per
request — this is what a FedX-style bound-join loop pays, which is
exactly the effect the paper measures against.

**Deadline-aware execution.**  When the context carries a
:class:`~repro.federation.deadline.Deadline`, request time is bounded
three ways, all applied at *scheduling* time so both execution modes
agree bit for bit:

- **adaptive timeouts** — each request's chargeable time is capped at
  the endpoint's tracked p95 × ``adaptive_timeout_multiplier`` (clamped
  between ``timeout_floor_seconds`` and the configured default, which
  also serves until the endpoint's latency history warms up); blowing
  the cap raises :class:`RequestTimeoutError` and feeds the breaker;
- **hedged requests** — a response slower than the endpoint's p95 (or
  the static ``hedge_threshold_seconds``, whichever is smaller) is
  raced against its registered replica; the first answer wins and the
  loser is cancel-accounted (tail-at-scale hedging);
- **deadline clamps** — whatever remains of the query budget at a
  request's *lane start* bounds its charge, so the virtual completion
  time provably never exceeds ``deadline + one request timeout``;
  requests submitted past expiry fail fast for free.

``max_inflight`` adds load shedding: submissions beyond the bounded
in-flight queue fail fast with :class:`QueryRejectedError`.

With ``use_threads=True`` submissions additionally run on a real
:class:`~concurrent.futures.ThreadPoolExecutor` (the paper's setup);
futures are *scheduled* in submission order regardless of real
completion order, so results and accounting are bit-identical to the
single-threaded default — endpoints are read-only during queries and
serialize their own :meth:`~repro.endpoint.local.LocalEndpoint.execute`
(one lock per endpoint, not per handler, so *concurrent queries* from
the serving layer keep the evaluator counters coherent too).

``close()`` is idempotent and safe to call from any thread, including
while hedged requests are unresolved: the drain never launches new
hedges (a drained future's answer is never read, so racing a replica
for it would double-charge the replica's lane for nothing), abandoned
futures are counted as cancelled exactly once, and submissions arriving
after close are shed without touching the executor.
"""

from __future__ import annotations

import heapq
import threading
import time
import zlib
from collections import deque
from concurrent.futures import Future as _ThreadFuture
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

from ..endpoint.errors import (
    CircuitBreakerOpenError,
    EndpointRateLimitError,
    EndpointUnavailableError,
    QueryRejectedError,
    RequestTimeoutError,
)
from ..endpoint.metrics import ExecutionContext
from ..sparql.results import ResultSet
from .deadline import LatencyTracker
from .federation import Federation


@dataclass(frozen=True)
class Request:
    """One SPARQL request addressed to one endpoint."""

    endpoint_id: str
    query_text: str
    kind: str = "SELECT"  # "ASK" | "SELECT"


@dataclass
class Response:
    request: Request
    value: Union[bool, ResultSet]
    cost_seconds: float
    #: endpoint-evaluator compute counters for this request, when the
    #: endpoint reports them (see ``EndpointResponse.compute``)
    compute: Optional[Dict[str, float]] = None
    #: transient failures absorbed by retries before this answer arrived
    failed_attempts: int = 0
    #: ``cost_seconds`` is *measured* wall time from a real endpoint
    #: (remote HTTP member), not a virtual-model prediction; such
    #: responses are exempt from retroactive timeout censoring and from
    #: post-hoc hedging, both of which only make sense for modeled costs
    wall_clock: bool = False
    #: the endpoint itself flagged this answer as incomplete
    partial: bool = False


def _jitter_fraction(*parts: object) -> float:
    """Deterministic pseudo-random fraction in [0, 1) — CRC-based so it
    is stable across processes (built-in str hashing is randomized)."""
    key = "|".join(str(part) for part in parts)
    return (zlib.crc32(key.encode("utf-8")) % 997) / 997.0


class _EndpointHealth:
    """Circuit-breaker state for one endpoint, in virtual time.

    All transitions happen on the orchestrating thread — at ``submit``
    (fast-fail / half-open gating against the current virtual clock) and
    in ``_schedule_next`` (success/failure bookkeeping in submission
    order) — so threaded and simulated runs agree bit for bit.
    """

    __slots__ = ("consecutive_failures", "state", "open_until",
                 "open_count", "probe_inflight")

    def __init__(self):
        self.consecutive_failures = 0
        self.state = "closed"  # "closed" | "open" | "half_open"
        self.open_until = 0.0
        self.open_count = 0
        self.probe_inflight = False


class ResponseFuture:
    """Handle for one in-flight request.

    Created by :meth:`ElasticRequestHandler.submit`; resolving it (via
    :meth:`result` or the handler's ``gather``) schedules every earlier
    submission onto the lane/worker simulator and advances the virtual
    clock to this request's completion time.  ``result`` is idempotent
    and re-raises the request's failure, if any.
    """

    __slots__ = (
        "_handler", "request", "_submit_clock", "_thread_future",
        "_performed", "_submit_error", "_response", "_exception",
        "_finish", "_scheduled", "_timeout",
    )

    def __init__(self, handler: "ElasticRequestHandler", request: Request,
                 submit_clock: float):
        self._handler = handler
        self.request = request
        self._submit_clock = submit_clock
        self._thread_future: Optional[_ThreadFuture] = None
        self._performed: Optional[Tuple[Response, int, int]] = None
        self._submit_error: Optional[BaseException] = None
        self._response: Optional[Response] = None
        self._exception: Optional[BaseException] = None
        self._finish = 0.0
        self._scheduled = False
        #: per-request timeout frozen at submission (adaptive when the
        #: endpoint's latency history is warm); None = unbounded
        self._timeout: Optional[float] = None

    def done(self) -> bool:
        """Whether this request has been scheduled (resolved)."""
        return self._scheduled

    @property
    def finish(self) -> float:
        """Virtual time this request left its endpoint lane (0.0 until
        resolved)."""
        return self._finish

    @property
    def cost_seconds(self) -> float:
        """The answer's lane occupancy; 0.0 for a failed request."""
        return 0.0 if self._response is None else self._response.cost_seconds

    def result(self) -> Response:
        return self._handler._resolve(self)


class ElasticRequestHandler:
    """Issues requests against a federation under an execution context."""

    def __init__(
        self,
        federation: Federation,
        context: ExecutionContext,
        pool_size: int = 8,
        use_threads: bool = False,
        max_retries: int = 2,
        retry_backoff_seconds: float = 0.25,
        breaker_threshold: Optional[int] = None,
        breaker_cooldown_seconds: float = 1.0,
        latency_tracker: Optional[LatencyTracker] = None,
        request_timeout_seconds: Optional[float] = None,
        adaptive_timeout_multiplier: Optional[float] = 4.0,
        timeout_floor_seconds: float = 0.05,
        timeout_warmup: int = 8,
        hedge: bool = False,
        hedge_threshold_seconds: Optional[float] = None,
        max_inflight: Optional[int] = None,
    ):
        if pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        self.federation = federation
        self.context = context
        self.pool_size = pool_size
        self.use_threads = use_threads
        #: per-endpoint streaming latency quantiles; shared by the engine
        #: across queries so adaptive timeouts warm up once
        self.latency = (
            latency_tracker if latency_tracker is not None else LatencyTracker()
        )
        #: static per-request timeout — the cold-start default and the
        #: ceiling the adaptive timeout is clamped to; None = unbounded
        self.request_timeout_seconds = request_timeout_seconds
        #: k in the adaptive timeout p95 × k; None disables adaptation
        self.adaptive_timeout_multiplier = adaptive_timeout_multiplier
        self.timeout_floor_seconds = timeout_floor_seconds
        #: observations an endpoint needs before its p95 is trusted
        self.timeout_warmup = max(1, timeout_warmup)
        #: race slow requests against the endpoint's registered replica
        self.hedge = hedge
        #: static hedging trigger; the effective trigger is the smaller
        #: of this and the endpoint's warm p95 (a steady straggler's own
        #: p95 is high — the floor keeps hedging armed against it)
        self.hedge_threshold_seconds = hedge_threshold_seconds
        #: bound on submitted-but-unresolved requests; beyond it new
        #: submissions are shed with QueryRejectedError (admission
        #: control at the request level); None = unbounded
        self.max_inflight = max_inflight
        #: futures drained unresolved by close() — work abandoned
        #: mid-flight whose answers nobody read
        self.cancelled = 0
        #: transient EndpointUnavailableError retries per request; each
        #: failed attempt charges a round trip plus an exponential
        #: backoff with deterministic jitter
        self.max_retries = max(0, max_retries)
        self.retry_backoff_seconds = retry_backoff_seconds
        #: consecutive exhausted failures that open an endpoint's
        #: circuit breaker; ``None`` disables the breaker
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown_seconds = breaker_cooldown_seconds
        #: endpoint id -> breaker/health state (created on first trouble)
        self._health: Dict[str, _EndpointHealth] = {}
        #: endpoint id -> failure/retry/timeout counters (operator view;
        #: exported through ``Metrics.endpoint_health`` at close)
        self._endpoint_stats: Dict[str, Dict[str, int]] = {}
        self._executor: Optional[ThreadPoolExecutor] = None
        # -- makespan simulator state (all touched only from the
        #    orchestrating thread; workers never schedule) --------------
        #: endpoint id -> absolute virtual time its lane frees up
        self._lane_free: Dict[str, float] = {}
        #: min-heap of worker busy-until times, at most ``pool_size`` deep
        self._worker_free: List[float] = []
        #: submitted-but-unscheduled futures, resolved strictly in order
        self._pending: Deque[ResponseFuture] = deque()
        #: guards the scheduling loop (resolve/drain both pop _pending);
        #: RLock because _schedule_next runs nested inside either
        self._sched_lock = threading.RLock()
        #: set once by close(); later submissions shed, later closes no-op
        self._closed = False
        #: True only while close() drains — suppresses new hedges, whose
        #: answers nobody would read
        self._draining = False

    def close(self) -> None:
        # Submitted-but-ungathered futures (e.g. the engine aborted
        # mid-wave) already executed at the endpoint — eagerly in the
        # simulator, really on the thread pool.  Drain them so their
        # requests, bytes, and failures reach the metrics instead of
        # silently under-counting; their errors are swallowed
        # (_schedule_next parks exceptions on the future, it never
        # raises) and the virtual clock is left where the query ended.
        # Each one counts as cancelled: the endpoint did the work, the
        # query never read the answer.  Idempotent and thread-safe: a
        # second close (or one racing a result()) finds nothing to drain
        # and never double-counts.
        with self._sched_lock:
            if self._closed:
                return
            self._closed = True
            self._draining = True
            try:
                abandoned = len(self._pending)
                while self._pending:
                    self._schedule_next()
                if abandoned:
                    self.cancelled += abandoned
                    self.context.metrics.requests_cancelled += abandoned
                health = self.health_snapshot()
                if health:
                    self.context.metrics.endpoint_health = health
            finally:
                self._draining = False
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def _endpoint_stat(self, endpoint_id: str, name: str,
                       amount: int = 1) -> None:
        stats = self._endpoint_stats.setdefault(endpoint_id, {})
        stats[name] = stats.get(name, 0) + amount

    def health_snapshot(self) -> Dict[str, Dict[str, object]]:
        """Per-endpoint breaker state plus failure/retry/timeout counters.

        The operator's unhealthy-member view: exported into
        ``Metrics.endpoint_health`` when the handler closes and rolled
        up by the engine for the serving layer's ``/stats`` document.
        """
        snapshot: Dict[str, Dict[str, object]] = {}
        for endpoint_id in set(self._health) | set(self._endpoint_stats):
            entry: Dict[str, object] = {"breaker_state": "closed"}
            health = self._health.get(endpoint_id)
            if health is not None:
                entry["breaker_state"] = health.state
                entry["consecutive_failures"] = health.consecutive_failures
                entry["breaker_opens"] = health.open_count
                if health.state != "closed":
                    entry["open_until"] = health.open_until
            entry.update(self._endpoint_stats.get(endpoint_id, {}))
            snapshot[endpoint_id] = entry
        return snapshot

    def lane_backlog(self, endpoint_id: str) -> float:
        """Virtual seconds of work already queued on an endpoint's lane.

        The replica router's load signal: how far past "now" the lane is
        booked.  Zero for an idle (or never-used) lane.
        """
        free_at = self._lane_free.get(endpoint_id, 0.0)
        return max(0.0, free_at - self.context.metrics.virtual_seconds)

    def __enter__(self) -> "ElasticRequestHandler":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # The lazily created thread pool must not outlive the query that
        # needed it (``use_threads=True`` would otherwise leak workers).
        self.close()

    def _pool(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(max_workers=self.pool_size)
        return self._executor

    # ------------------------------------------------------------------

    def _retry_backoff(self, request: Request, attempt: int) -> float:
        """Exponential backoff with deterministic jitter (virtual time)."""
        base = self.retry_backoff_seconds * (2.0 ** attempt)
        jitter = _jitter_fraction(
            request.endpoint_id, attempt, request.query_text
        )
        return base * (1.0 + 0.1 * jitter)

    def _perform(
        self, request: Request, timeout: Optional[float] = None
    ) -> Tuple[Response, int, int]:
        """Run one request; returns (response, bytes_sent, bytes_received).

        Transient :class:`EndpointUnavailableError` failures are retried
        up to ``max_retries`` times, each failed attempt adding a round
        trip plus an exponentially growing, deterministically jittered
        backoff to the request's virtual cost.  When the budget is
        exhausted, the raised error carries the accumulated virtual cost
        and attempt/byte counts so the scheduler can charge the failure
        honestly.  No shared state is mutated here, so this is safe to
        call from worker threads; accounting happens in the caller.

        ``timeout`` (the future's frozen per-request timeout) only
        matters for wall-clock endpoints, where it becomes the real
        socket budget; virtual endpoints are censored retroactively at
        scheduling time instead.
        """
        endpoint = self.federation.endpoint(request.endpoint_id)
        if getattr(endpoint, "wall_clock", False):
            return self._perform_wall_clock(endpoint, request, timeout)
        bytes_sent = len(request.query_text)
        penalty = 0.0
        for attempt in range(self.max_retries + 1):
            try:
                response = endpoint.execute(request.query_text)
                break
            except EndpointUnavailableError as error:
                penalty += self._retry_backoff(request, attempt)
                penalty += self.context.network.request_cost(
                    client=self.context.client_region,
                    endpoint=endpoint.region,
                    bytes_sent=bytes_sent,
                    bytes_received=0,
                    rows_touched=1,
                )
                if attempt == self.max_retries:
                    error.virtual_cost = penalty
                    error.failed_attempts = attempt + 1
                    error.bytes_sent_total = bytes_sent * (attempt + 1)
                    raise
            except EndpointRateLimitError as error:
                # The endpoint answered — with a refusal; charge the
                # attempted round trips up to and including this one.
                penalty += self.context.network.request_cost(
                    client=self.context.client_region,
                    endpoint=endpoint.region,
                    bytes_sent=bytes_sent,
                    bytes_received=0,
                    rows_touched=1,
                )
                error.virtual_cost = penalty
                error.failed_attempts = attempt + 1
                error.bytes_sent_total = bytes_sent * (attempt + 1)
                raise
        cost = penalty + self.context.network.request_cost(
            client=self.context.client_region,
            endpoint=endpoint.region,
            bytes_sent=bytes_sent,
            bytes_received=response.bytes_received,
            rows_touched=response.rows_touched,
        ) + getattr(response, "latency_penalty_seconds", 0.0)
        return (
            Response(
                request=request,
                value=response.value,
                cost_seconds=cost,
                compute=getattr(response, "compute", None),
                failed_attempts=attempt,
            ),
            bytes_sent,
            response.bytes_received,
        )

    def _perform_wall_clock(
        self, endpoint, request: Request, timeout: Optional[float]
    ) -> Tuple[Response, int, int]:
        """One request against a real endpoint; cost is measured.

        The per-request timeout is enforced *by the endpoint's sockets*
        (connect + bounded read slices), not reconstructed afterwards,
        and it bounds the whole retry loop: backoffs are real sleeps
        honoring the server's ``Retry-After`` as a floor, and a retry
        that cannot finish inside the remaining budget is not attempted.
        Errors marked ``retryable=False`` (protocol violations that a
        retransmission would only repeat) skip the retry loop entirely.
        """
        bytes_sent = len(request.query_text)
        started = time.monotonic()
        for attempt in range(self.max_retries + 1):
            attempt_timeout = timeout
            if timeout is not None:
                attempt_timeout = max(
                    1e-3, timeout - (time.monotonic() - started)
                )
            try:
                response = endpoint.execute(
                    request.query_text, timeout_seconds=attempt_timeout
                )
                break
            except EndpointRateLimitError as error:
                error.virtual_cost = time.monotonic() - started
                error.failed_attempts = attempt + 1
                error.bytes_sent_total = bytes_sent * (attempt + 1)
                raise
            except EndpointUnavailableError as error:
                wait = max(
                    self._retry_backoff(request, attempt),
                    getattr(error, "retry_after", 0.0),
                )
                exhausted = (
                    attempt == self.max_retries
                    or getattr(error, "retryable", True) is False
                    or (
                        timeout is not None
                        and time.monotonic() - started + wait >= timeout
                    )
                )
                if exhausted:
                    error.virtual_cost = time.monotonic() - started
                    error.failed_attempts = attempt + 1
                    error.bytes_sent_total = bytes_sent * (attempt + 1)
                    raise
                time.sleep(wait)
        elapsed = time.monotonic() - started
        return (
            Response(
                request=request,
                value=response.value,
                cost_seconds=elapsed,
                compute=getattr(response, "compute", None),
                failed_attempts=attempt,
                wall_clock=True,
                partial=getattr(response, "partial", False),
            ),
            bytes_sent,
            response.bytes_received,
        )

    def _record(self, response: Response, bytes_sent: int, bytes_received: int):
        self.context.record_request(
            response.request.kind, bytes_sent, bytes_received, response.compute
        )

    # ------------------------------------------------------------------
    # Futures-based scheduling
    # ------------------------------------------------------------------

    def submit(self, request: Request,
               at: Optional[float] = None) -> ResponseFuture:
        """Dispatch one request without waiting for it.

        The returned future joins the current in-flight window: its
        start time is the virtual clock *now*, so submissions from
        different pipeline stages overlap until something resolves them.
        ``at`` backdates the submission instant to an earlier point on
        the virtual timeline (never later than now): the streaming
        executor uses it to model a request fired the moment a partial
        upstream batch *arrived*, even though the orchestrator already
        resolved later-finishing futures and advanced the clock past
        that moment.
        """
        with self._sched_lock:
            return self._submit_locked(request, at)

    def _submit_locked(self, request: Request,
                       at: Optional[float] = None) -> ResponseFuture:
        metrics = self.context.metrics
        submit_clock = metrics.virtual_seconds
        if at is not None:
            submit_clock = max(0.0, min(at, submit_clock))
        if self._closed:
            # The handler is shut down (the executor may be gone):
            # park a rejection on an already-resolved future instead of
            # touching the pool — nothing will ever drain _pending again.
            future = ResponseFuture(self, request, submit_clock)
            future._exception = QueryRejectedError(
                request.endpoint_id, "request handler is closed"
            )
            future._scheduled = True
            metrics.sheds += 1
            return future
        if not self._pending:
            metrics.scheduler_waves += 1
        future = ResponseFuture(self, request, submit_clock)
        future._timeout = self._timeout_for(request.endpoint_id)
        # Fast-fail gates, cheapest first: load shedding, the query
        # deadline, then the breaker.  All three park an error on the
        # future without contacting the endpoint or the thread pool.
        if (
            self._shed_rejects(request, future)
            or self._deadline_rejects(request, future)
            or self._breaker_rejects(request, future)
        ):
            self._pending.append(future)
            if len(self._pending) > metrics.inflight_high_water:
                metrics.inflight_high_water = len(self._pending)
            return future
        if self.use_threads:
            future._thread_future = self._pool().submit(
                self._perform, request, future._timeout
            )
        else:
            try:
                future._performed = self._perform(request, future._timeout)
            except Exception as error:  # re-raised when the future resolves
                future._submit_error = error
        self._pending.append(future)
        if len(self._pending) > metrics.inflight_high_water:
            metrics.inflight_high_water = len(self._pending)
        return future

    def submit_all(self, requests: Sequence[Request]) -> List[ResponseFuture]:
        return [self.submit(request) for request in requests]

    # -- deadlines, timeouts, shedding ------------------------------------

    def _timeout_for(self, endpoint_id: str) -> Optional[float]:
        """This endpoint's per-request timeout at the current instant.

        With a warm latency history the timeout adapts to p95 × k,
        clamped between the floor and the static default; a cold
        endpoint falls back to the static default.  No default means
        no timeout at all (the pre-deadline behaviour).
        """
        ceiling = self.request_timeout_seconds
        if ceiling is None:
            return None
        multiplier = self.adaptive_timeout_multiplier
        if (
            multiplier is not None
            and self.latency.count(endpoint_id) >= self.timeout_warmup
        ):
            p95 = self.latency.quantile(endpoint_id, 0.95)
            if p95 is not None:
                return min(
                    max(p95 * multiplier, self.timeout_floor_seconds), ceiling
                )
        return ceiling

    def _shed_rejects(self, request: Request, future: ResponseFuture) -> bool:
        """Load shedding: bound the in-flight queue, reject the rest."""
        if self.max_inflight is None or len(self._pending) < self.max_inflight:
            return False
        future._submit_error = QueryRejectedError(
            request.endpoint_id,
            f"in-flight queue full ({len(self._pending)} pending, "
            f"limit {self.max_inflight})",
        )
        self.context.metrics.sheds += 1
        self.context.trace_event(
            "shed",
            endpoint=request.endpoint_id,
            request_kind=request.kind,
            pending=len(self._pending),
            limit=self.max_inflight,
        )
        return True

    def _deadline_rejects(self, request: Request,
                          future: ResponseFuture) -> bool:
        """A submission past the query deadline fails fast for free."""
        deadline = self.context.deadline
        if deadline is None:
            return False
        now = self.context.metrics.virtual_seconds
        if not deadline.expired(now):
            return False
        future._submit_error = RequestTimeoutError(
            request.endpoint_id, 0.0, deadline=True
        )
        self.context.metrics.deadline_exceeded += 1
        self.context.trace_event(
            "deadline",
            stage="submit",
            endpoint=request.endpoint_id,
            request_kind=request.kind,
            expires_at=deadline.expires_at,
        )
        return True

    def _lane_start(self, future: ResponseFuture, endpoint_id: str) -> float:
        """When this request would start, were it scheduled right now
        (same arithmetic as :meth:`_schedule_lane`, without mutating)."""
        start = max(
            future._submit_clock, self._lane_free.get(endpoint_id, 0.0)
        )
        if len(self._worker_free) >= self.pool_size:
            start = max(start, self._worker_free[0])
        return start

    def _clamp_failure_cost(self, future: ResponseFuture, endpoint_id: str,
                            cost: float) -> float:
        """Cap a failed request's chargeable time: the client stopped
        waiting at its timeout / at the deadline, even if the retries
        would have ground on longer."""
        timeout = future._timeout
        if timeout is not None and cost > timeout:
            cost = timeout
            self.context.metrics.timeouts += 1
        deadline = self.context.deadline
        if deadline is not None:
            budget = deadline.remaining(self._lane_start(future, endpoint_id))
            if cost > budget:
                cost = budget
                self.context.metrics.deadline_exceeded += 1
        return cost

    # -- circuit breaker ---------------------------------------------------

    def _breaker_rejects(self, request: Request,
                         future: ResponseFuture) -> bool:
        """Gate a submission on the endpoint's breaker state.

        Returns True when the request must fail fast (breaker open, or
        half-open with the single probe slot already taken); the future
        then carries a :class:`CircuitBreakerOpenError` and never
        contacts the endpoint or the thread pool.  Gating compares the
        breaker's ``open_until`` against the *submission-time* virtual
        clock, which both execution modes share.
        """
        if self.breaker_threshold is None:
            return False
        health = self._health.get(request.endpoint_id)
        if health is None or health.state == "closed":
            return False
        now = self.context.metrics.virtual_seconds
        if health.state == "open":
            if now < health.open_until:
                future._submit_error = CircuitBreakerOpenError(
                    request.endpoint_id, health.open_until
                )
                self.context.metrics.breaker_fast_fails += 1
                return True
            health.state = "half_open"
            health.probe_inflight = False
        if health.state == "half_open":
            if health.probe_inflight:
                future._submit_error = CircuitBreakerOpenError(
                    request.endpoint_id, health.open_until
                )
                self.context.metrics.breaker_fast_fails += 1
                return True
            health.probe_inflight = True
        return False

    def _note_failure(self, endpoint_id: str, at: float) -> None:
        """Record an exhausted failure; maybe open the breaker at ``at``."""
        if self.breaker_threshold is None:
            return
        health = self._health.setdefault(endpoint_id, _EndpointHealth())
        health.consecutive_failures += 1
        reopen = health.state == "half_open"
        tripped = (
            health.state == "closed"
            and health.consecutive_failures >= self.breaker_threshold
        )
        if not (reopen or tripped):
            return
        health.open_count += 1
        cooldown = (
            self.breaker_cooldown_seconds
            * (2.0 ** (health.open_count - 1))
            * (1.0 + 0.1 * _jitter_fraction(endpoint_id, health.open_count))
        )
        health.open_until = at + cooldown
        health.state = "open"
        health.probe_inflight = False
        self.context.metrics.breaker_opens += 1
        self.context.trace_event(
            "breaker_open",
            endpoint=endpoint_id,
            open_until=health.open_until,
            consecutive_failures=health.consecutive_failures,
        )

    def _note_success(self, endpoint_id: str) -> None:
        health = self._health.get(endpoint_id)
        if health is None:
            return
        if health.state == "half_open":
            self.context.trace_event("breaker_close", endpoint=endpoint_id)
        health.state = "closed"
        health.consecutive_failures = 0
        health.open_count = 0
        health.probe_inflight = False

    def gather(self, futures: Sequence[ResponseFuture]) -> List[Response]:
        """Resolve futures in order; the clock ends at their makespan."""
        return [future.result() for future in futures]

    def _resolve(self, future: ResponseFuture) -> Response:
        # Scheduling is strictly submission-ordered: resolving a future
        # first schedules everything submitted before it, which keeps
        # threaded and single-threaded accounting identical.  The lock
        # makes a close() racing this resolution safe: whichever enters
        # first drains; the other finds the future already scheduled.
        with self._sched_lock:
            while not future._scheduled:
                self._schedule_next()
        # Failures charge the clock too — the caller really waited out
        # the retries and backoffs before seeing the error.
        clock = self.context.metrics.virtual_seconds
        if future._finish > clock:
            self.context.charge(future._finish - clock)
        if future._exception is not None:
            raise future._exception
        return future._response

    def settle(
        self, future: ResponseFuture
    ) -> Tuple[Optional[Response], Optional[BaseException]]:
        """Resolve a future, degrading instead of raising in partial mode.

        Returns ``(response, None)`` on success.  When the context runs
        with ``partial_results=True`` and the request failed past its
        retry budget (endpoint down, breaker open, or rate limited), the
        failure is recorded in the context's completeness report and
        ``(None, error)`` is returned so the caller can drop or reroute
        this endpoint's contribution.  Outside partial mode — and for
        non-endpoint failures like timeouts — this re-raises exactly
        like :meth:`ResponseFuture.result`.
        """
        try:
            return future.result(), None
        except (EndpointUnavailableError, EndpointRateLimitError) as error:
            if not self.context.partial_results:
                raise
            if isinstance(error, CircuitBreakerOpenError):
                kind = "breaker_open"
            elif isinstance(error, QueryRejectedError):
                kind = "shed"
            elif isinstance(error, RequestTimeoutError):
                kind = "deadline" if error.deadline else "timeout"
            elif isinstance(error, EndpointRateLimitError):
                kind = "rate_limited"
            else:
                kind = "unavailable"
            self.context.completeness.note_failure(
                future.request.endpoint_id, kind
            )
            return None, error

    def _schedule_lane(self, future: ResponseFuture, endpoint_id: str,
                       cost_seconds: float) -> float:
        """Place one request onto its lane and a pool worker; returns
        the absolute virtual finish time."""
        start = max(
            future._submit_clock, self._lane_free.get(endpoint_id, 0.0)
        )
        if len(self._worker_free) >= self.pool_size:
            start = max(start, heapq.heappop(self._worker_free))
        finish = start + cost_seconds
        heapq.heappush(self._worker_free, finish)
        self._lane_free[endpoint_id] = finish
        lanes = self.context.metrics.lane_busy_seconds
        lanes[endpoint_id] = lanes.get(endpoint_id, 0.0) + cost_seconds
        return finish

    def _account_retries(self, endpoint_id: str, kind: str, attempts: int,
                         bytes_retransmitted: int, exhausted: bool) -> None:
        """Fold failed attempts into the metrics and the trace.

        Failures are never free: every attempt — absorbed by a later
        retry or not — counts in ``requests_failed``, and the bytes it
        put on the wire count in ``bytes_sent``.
        """
        if attempts <= 0:
            return
        metrics = self.context.metrics
        metrics.requests_failed += attempts
        retries = attempts - 1 if exhausted else attempts
        metrics.retries += retries
        metrics.bytes_sent += bytes_retransmitted
        self._endpoint_stat(endpoint_id, "failed_attempts", attempts)
        if retries:
            self._endpoint_stat(endpoint_id, "retries", retries)
        self.context.trace_event(
            "retry",
            endpoint=endpoint_id,
            request_kind=kind,
            failed_attempts=attempts,
            exhausted=exhausted,
        )

    def _schedule_next(self) -> None:
        future = self._pending.popleft()
        endpoint_id = future.request.endpoint_id
        try:
            if future._thread_future is not None:
                performed = future._thread_future.result()
            elif future._submit_error is not None:
                raise future._submit_error
            else:
                performed = future._performed
        except Exception as error:
            # Honest failure accounting: the retries really happened, so
            # their round trips and backoffs hold lane time and charge
            # the clock like any other work — only fast-fails (breaker
            # open, shed, submitted past the deadline) are free, because
            # nothing was sent.  The error surfaces at result()/settle().
            fast_fail = isinstance(
                error, (CircuitBreakerOpenError, QueryRejectedError)
            ) or getattr(error, "deadline", False)
            if not fast_fail:
                cost = getattr(error, "virtual_cost", 0.0)
                cost = self._clamp_failure_cost(future, endpoint_id, cost)
                attempts = getattr(error, "failed_attempts", 0)
                self._account_retries(
                    endpoint_id,
                    future.request.kind,
                    attempts,
                    getattr(error, "bytes_sent_total", 0),
                    exhausted=True,
                )
                if cost > 0:
                    future._finish = self._schedule_lane(
                        future, endpoint_id, cost
                    )
                if isinstance(
                    error, (EndpointUnavailableError, EndpointRateLimitError)
                ):
                    self._note_failure(endpoint_id, at=future._finish)
            future._exception = error
            future._scheduled = True
            return
        response, bytes_sent, bytes_received = performed
        self._record(response, bytes_sent, bytes_received)
        if response.failed_attempts:
            self._account_retries(
                endpoint_id,
                future.request.kind,
                response.failed_attempts,
                bytes_sent * response.failed_attempts,
                exhausted=False,
            )
        response = self._maybe_hedge(future, endpoint_id, response)
        self._finish_success(future, endpoint_id, response)

    # -- hedged requests ---------------------------------------------------

    def _hedge_trigger(self, endpoint_id: str) -> Optional[float]:
        """Latency past which a request is worth racing against the
        endpoint's replica: the smaller of the warm p95 and the static
        threshold (a steady straggler's own p95 is high — the static
        floor keeps hedging armed against it)."""
        candidates = []
        if self.hedge_threshold_seconds is not None:
            candidates.append(self.hedge_threshold_seconds)
        if self.latency.count(endpoint_id) >= self.timeout_warmup:
            p95 = self.latency.quantile(endpoint_id, 0.95)
            if p95 is not None:
                candidates.append(p95)
        return min(candidates) if candidates else None

    def _charge_hedge_lane(self, endpoint_id: str, launched_at: float,
                           cost_seconds: float) -> None:
        """Hold replica lane time for a hedge.  Hedges are speculative
        duplicates riding on spare capacity, so they occupy their
        endpoint's lane but not a pool worker slot."""
        if cost_seconds <= 0:
            return
        begin = max(launched_at, self._lane_free.get(endpoint_id, 0.0))
        self._lane_free[endpoint_id] = begin + cost_seconds
        lanes = self.context.metrics.lane_busy_seconds
        lanes[endpoint_id] = lanes.get(endpoint_id, 0.0) + cost_seconds

    def _maybe_hedge(self, future: ResponseFuture, endpoint_id: str,
                     response: Response) -> Response:
        """Race a slow response against the endpoint's replica.

        The primary's cost is known at scheduling time, so the hedge
        models a client that launched the duplicate once the trigger
        elapsed and took whichever answer landed first.  The loser is
        cancel-accounted: its lane time is held only up to the moment
        the winner answered, and ``requests_cancelled`` counts it.
        The hedge is performed on the orchestrating thread in both
        execution modes, keeping them bit-identical.  During a close()
        drain no hedge is ever launched: the drained future's answer is
        never read, so the speculative replica request would write to a
        dead future and charge its lane for work nobody wanted.
        """
        if not self.hedge or self._draining:
            return response
        if response.wall_clock:
            # Hedging here is *post hoc*: the primary's modeled cost is
            # known at scheduling time, so the simulator can pretend a
            # duplicate was launched mid-flight.  A wall-clock response
            # has already really arrived by this point — launching a
            # replica request now could never beat it, only duplicate
            # work — so hedging is explicitly gated off for real sockets.
            return response
        replica_id = self.federation.replica_of(endpoint_id)
        if replica_id is None:
            return response
        trigger = self._hedge_trigger(endpoint_id)
        if trigger is None or response.cost_seconds <= trigger:
            return response
        metrics = self.context.metrics
        metrics.hedges_launched += 1
        request = future.request
        hedge_request = Request(replica_id, request.query_text, request.kind)
        launched_at = self._lane_start(future, endpoint_id) + trigger
        try:
            hedge_response, hedge_sent, hedge_received = self._perform(
                hedge_request, self._timeout_for(replica_id)
            )
        except Exception as error:
            # The replica failed too — the primary answer stands; the
            # replica's attempts and lane time are still accounted.
            self._account_retries(
                replica_id,
                request.kind,
                getattr(error, "failed_attempts", 0),
                getattr(error, "bytes_sent_total", 0),
                exhausted=True,
            )
            self._charge_hedge_lane(
                replica_id, launched_at, getattr(error, "virtual_cost", 0.0)
            )
            self.context.trace_event(
                "hedge",
                endpoint=endpoint_id,
                replica=replica_id,
                request_kind=request.kind,
                won=False,
                failed=True,
                primary_cost=response.cost_seconds,
            )
            return response
        self._record(hedge_response, hedge_sent, hedge_received)
        hedged_cost = trigger + hedge_response.cost_seconds
        won = hedged_cost < response.cost_seconds
        metrics.requests_cancelled += 1  # whichever lost was abandoned
        if won:
            metrics.hedges_won += 1
            self.latency.observe(replica_id, hedge_response.cost_seconds)
            self._charge_hedge_lane(
                replica_id, launched_at, hedge_response.cost_seconds
            )
            winner = Response(
                request=request,
                value=hedge_response.value,
                cost_seconds=hedged_cost,
                compute=hedge_response.compute,
                failed_attempts=response.failed_attempts,
            )
        else:
            # The primary answered first: the replica worked only from
            # the hedge launch until that moment, then was cancelled.
            replica_busy = min(
                hedge_response.cost_seconds,
                max(0.0, response.cost_seconds - trigger),
            )
            self.latency.observe(replica_id, replica_busy)
            self._charge_hedge_lane(replica_id, launched_at, replica_busy)
            winner = response
        self.context.trace_event(
            "hedge",
            endpoint=endpoint_id,
            replica=replica_id,
            request_kind=request.kind,
            won=won,
            primary_cost=response.cost_seconds,
            hedged_cost=hedged_cost,
        )
        return winner

    def _finish_success(self, future: ResponseFuture, endpoint_id: str,
                        response: Response) -> None:
        """Schedule an answered request, applying the timeout and the
        deadline clamp.  A clamped request becomes a failure: the client
        cancelled it after ``allowed`` seconds and only that much is
        charged — which is what bounds the query's completion time by
        ``deadline + one request timeout``."""
        cost = response.cost_seconds
        if response.wall_clock:
            # The wall budget was already enforced at the socket: an
            # answer that exists is an answer the client really read, so
            # the retroactive censoring below (which models a virtual
            # client cancelling at a predicted instant) must not discard
            # it.  Measured latency feeds the tracker as-is, and a
            # member that flagged its own answer as incomplete is folded
            # into the completeness report instead of being dropped.
            self.latency.observe(endpoint_id, cost)
            self._note_success(endpoint_id)
            if response.partial:
                self.context.completeness.note_failure(
                    endpoint_id, "remote_partial"
                )
                self.context.trace_event(
                    "remote_partial", endpoint=endpoint_id,
                    request_kind=future.request.kind,
                )
            future._response = response
            future._finish = self._schedule_lane(future, endpoint_id, cost)
            future._scheduled = True
            return
        allowed = cost
        reason = None
        timeout = future._timeout
        if timeout is not None and allowed > timeout:
            allowed = timeout
            reason = "timeout"
        deadline = self.context.deadline
        if deadline is not None:
            budget = deadline.remaining(self._lane_start(future, endpoint_id))
            if allowed > budget:
                allowed = budget
                reason = "deadline"
        # The tracker sees what a client would measure: true latency for
        # answers it read, the censored cancellation point otherwise.
        self.latency.observe(endpoint_id, allowed)
        if reason is None:
            self._note_success(endpoint_id)
            future._response = response
            future._finish = self._schedule_lane(future, endpoint_id, cost)
            future._scheduled = True
            return
        metrics = self.context.metrics
        metrics.requests_failed += 1
        if reason == "timeout":
            metrics.timeouts += 1
            self._endpoint_stat(endpoint_id, "timeouts", 1)
        else:
            metrics.deadline_exceeded += 1
        future._finish = self._schedule_lane(future, endpoint_id, allowed)
        if reason == "timeout":
            # Blowing the per-request budget is an endpoint health
            # signal; the deadline binding is the query's own fault.
            self._note_failure(endpoint_id, at=future._finish)
        self.context.trace_event(
            "timeout",
            endpoint=endpoint_id,
            request_kind=future.request.kind,
            limit_seconds=allowed,
            cost_seconds=cost,
            reason=reason,
        )
        future._exception = RequestTimeoutError(
            endpoint_id, allowed, deadline=(reason == "deadline")
        )
        future._scheduled = True

    # ------------------------------------------------------------------
    # Barrier-style entry points (built on the scheduler)
    # ------------------------------------------------------------------

    def execute(self, request: Request) -> Response:
        """Serial request: the caller waits out the full round trip."""
        return self.submit(request).result()

    def execute_batch(self, requests: Sequence[Request]) -> List[Response]:
        """Concurrent batch with a barrier: submit one wave, await it.

        Charges the wave's makespan — requests to one endpoint
        serialize, requests to different endpoints overlap, and the
        worker pool bounds total concurrency.
        """
        if not requests:
            return []
        return self.gather(self.submit_all(requests))

    # Convenience wrappers -------------------------------------------------

    def ask(self, endpoint_id: str, query_text: str) -> bool:
        response = self.execute(Request(endpoint_id, query_text, kind="ASK"))
        return bool(response.value)

    def ask_all(self, endpoint_ids: Sequence[str], query_text: str) -> Dict[str, bool]:
        requests = [Request(eid, query_text, kind="ASK") for eid in endpoint_ids]
        responses = self.execute_batch(requests)
        return {r.request.endpoint_id: bool(r.value) for r in responses}

    def select(self, endpoint_id: str, query_text: str) -> ResultSet:
        response = self.execute(Request(endpoint_id, query_text, kind="SELECT"))
        return response.value  # type: ignore[return-value]

    def select_all(
        self, endpoint_ids: Sequence[str], query_text: str
    ) -> Dict[str, ResultSet]:
        requests = [Request(eid, query_text, kind="SELECT") for eid in endpoint_ids]
        responses = self.execute_batch(requests)
        return {r.request.endpoint_id: r.value for r in responses}  # type: ignore[misc]
