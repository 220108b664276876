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
two ways, both applied at *scheduling* time so both execution modes
agree bit for bit:

- **adaptive timeouts** — each request's chargeable time is capped at
  the endpoint's tracked p95 × :data:`ADAPTIVE_TIMEOUT_MULTIPLIER`
  (clamped between :data:`TIMEOUT_FLOOR_SECONDS` and the configured
  default, which also serves until the endpoint's latency history
  warms up); blowing the cap raises :class:`RequestTimeoutError`, a
  failure the caller may resend to the endpoint's fragment siblings
  (:func:`~repro.federation.routing.fail_over`), and feeds the breaker;
- **deadline clamps** — whatever remains of the query budget at a
  request's *lane start* bounds its charge, so the virtual completion
  time provably never exceeds ``deadline + one request timeout``;
  requests submitted past expiry fail fast for free.

**One request path, two clocks.**  Simulated endpoints are costed by
the network model; socket-backed ones (``wall_clock = True``) are
measured.  Both go through the same attempt loop (:meth:`_perform`): a
per-request attempt clock, picked once from the endpoint, says what an
attempt cost, how a backoff is spent and whether the per-request budget
binds up front.  The only thing scheduling ever asks of an answer is
whether its cost was measured — a measured answer is never re-censored
post hoc.

With ``use_threads=True`` submissions additionally run on a real
:class:`~concurrent.futures.ThreadPoolExecutor` (the paper's setup);
futures are *scheduled* in submission order regardless of real
completion order, so results and accounting are bit-identical to the
single-threaded default — endpoints are read-only during queries and
serialize their own :meth:`~repro.endpoint.local.LocalEndpoint.execute`
(one lock per endpoint, not per handler, so *concurrent queries* from
the serving layer keep the evaluator counters coherent too).

``close()`` is idempotent and safe to call from any thread, including
while requests are unresolved: abandoned futures are counted as
cancelled exactly once, and submissions arriving after close are shed
without touching the executor.
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
from functools import partial
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


#: consecutive exhausted failures that open an endpoint's breaker where
#: one is wanted (a bare handler runs without; the engine's ``breaker``
#: knob asks for this)
DEFAULT_BREAKER_THRESHOLD = 3
#: virtual seconds an opened breaker stays open before its half-open
#: probe; doubled per consecutive reopen, deterministically jittered
BREAKER_COOLDOWN_SECONDS = 1.0
#: k in the adaptive per-request timeout p95 × k
ADAPTIVE_TIMEOUT_MULTIPLIER = 4.0
#: the adaptive timeout never drops below this
TIMEOUT_FLOOR_SECONDS = 0.05
#: observations an endpoint needs before its p95 is trusted
TIMEOUT_WARMUP = 8


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
    #: responses are exempt from retroactive timeout censoring, which
    #: only makes sense for modeled costs
    wall_clock: bool = False
    #: the endpoint itself flagged this answer as incomplete
    partial: bool = False


def _jitter_fraction(*parts: object) -> float:
    """Deterministic pseudo-random fraction in [0, 1) — CRC-based so it
    is stable across processes (built-in str hashing is randomized)."""
    key = "|".join(str(part) for part in parts)
    return (zlib.crc32(key.encode("utf-8")) % 997) / 997.0


class _ModeledAttempts:
    """Attempt clock of a simulated endpoint: the network model prices
    every round trip, backoffs are charged rather than waited out, and
    nothing is enforced up front — the scheduler censors a modeled cost
    against the timeout and the deadline when it places the request."""

    measured = False

    def __init__(self, context: ExecutionContext, region, bytes_sent: int):
        self._round_trip = partial(
            context.network.request_cost,
            client=context.client_region,
            endpoint=region,
            bytes_sent=bytes_sent,
        )
        self._spent = 0.0

    def budget(self) -> Optional[float]:
        return None

    def affords(self, wait: float) -> bool:
        return True

    def failed(self, wait: float, retrying: bool) -> float:
        # The backoff is charged with the failure it follows, last one
        # included: an exhausted request holds its lane through it.
        self._spent += wait
        self._spent += self._round_trip(bytes_received=0, rows_touched=1)
        return self._spent

    def answered(self, response) -> float:
        return (
            self._spent
            + self._round_trip(
                bytes_received=response.bytes_received,
                rows_touched=response.rows_touched,
            )
            + response.latency_penalty_seconds
        )


class _MeasuredAttempts:
    """Attempt clock of a socket-backed endpoint: cost is what
    ``time.monotonic()`` saw.  The per-request timeout is enforced *by
    the endpoint's sockets* and bounds the whole retry loop: every
    attempt gets what is left of it, backoffs are real sleeps, and a
    retry whose backoff would not fit is not attempted."""

    measured = True

    def __init__(self, timeout: Optional[float]):
        self._timeout = timeout
        self._started = time.monotonic()

    def _elapsed(self) -> float:
        return time.monotonic() - self._started

    def budget(self) -> Optional[float]:
        if self._timeout is None:
            return None
        return max(1e-3, self._timeout - self._elapsed())

    def affords(self, wait: float) -> bool:
        return self._timeout is None or self._elapsed() + wait < self._timeout

    def failed(self, wait: float, retrying: bool) -> float:
        spent = self._elapsed()
        if retrying:
            time.sleep(wait)
        return spent

    def answered(self, response) -> float:
        return self._elapsed()


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
        latency_tracker: Optional[LatencyTracker] = None,
        request_timeout_seconds: Optional[float] = None,
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
            abandoned = len(self._pending)
            while self._pending:
                self._schedule_next()
            self.cancelled += abandoned
            self.context.metrics.requests_cancelled += abandoned
            health = self.health_snapshot()
            if health:
                self.context.metrics.endpoint_health = health
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
        up to ``max_retries`` times behind an exponentially growing,
        deterministically jittered backoff (the server's ``Retry-After``
        is a floor).  A retry is not attempted when the error is marked
        ``retryable=False`` (a protocol violation a retransmission would
        only repeat), when the endpoint *refused* (rate limit — it
        answered, so there is nothing to back off from), or when the
        attempt clock cannot afford the backoff.  The error that ends
        the loop carries the accumulated cost and attempt/byte counts so
        the scheduler can charge the failure honestly.  No shared state
        is mutated here, so this is safe to call from worker threads;
        accounting happens in the caller.

        ``timeout`` is the future's frozen per-request timeout.  What it
        means is the attempt clock's business: a measured endpoint gets
        it as the real socket budget for the whole loop, a modeled one
        is censored retroactively at scheduling time instead.
        """
        endpoint = self.federation.endpoint(request.endpoint_id)
        bytes_sent = len(request.query_text)
        if getattr(endpoint, "wall_clock", False):
            clock = _MeasuredAttempts(timeout)
        else:
            clock = _ModeledAttempts(self.context, endpoint.region, bytes_sent)
        for attempt in range(self.max_retries + 1):
            try:
                response = endpoint.execute(
                    request.query_text, timeout_seconds=clock.budget()
                )
                break
            except (EndpointUnavailableError, EndpointRateLimitError) as error:
                refused = isinstance(error, EndpointRateLimitError)
                wait = 0.0 if refused else max(
                    self._retry_backoff(request, attempt), error.retry_after
                )
                retrying = not (
                    refused
                    or attempt == self.max_retries
                    or not error.retryable
                    or not clock.affords(wait)
                )
                spent = clock.failed(wait, retrying)
                if not retrying:
                    error.virtual_cost = spent
                    error.failed_attempts = attempt + 1
                    error.bytes_sent_total = bytes_sent * (attempt + 1)
                    raise
        return (
            Response(
                request=request,
                value=response.value,
                cost_seconds=clock.answered(response),
                compute=response.compute,
                failed_attempts=attempt,
                wall_clock=clock.measured,
                partial=response.partial,
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
            metrics = self.context.metrics
            submit_clock = metrics.virtual_seconds
            if at is not None:
                submit_clock = max(0.0, min(at, submit_clock))
            future = ResponseFuture(self, request, submit_clock)
            if self._closed:
                # The handler is shut down (the executor may be gone):
                # park a rejection on an already-resolved future instead
                # of touching the pool — nothing will ever drain
                # _pending again.
                future._exception = QueryRejectedError(
                    request.endpoint_id, "request handler is closed"
                )
                future._scheduled = True
                metrics.sheds += 1
                return future
            if not self._pending:
                metrics.scheduler_waves += 1
            future._timeout = self._timeout_for(request.endpoint_id)
            # Fast-fail gates, cheapest first: the query deadline, then
            # the breaker.  Both park an error on the future without
            # contacting the endpoint or the thread pool.
            if not (
                self._deadline_rejects(request, future)
                or self._breaker_rejects(request, future)
            ):
                if self.use_threads:
                    future._thread_future = self._pool().submit(
                        self._perform, request, future._timeout
                    )
                else:
                    try:
                        future._performed = self._perform(
                            request, future._timeout
                        )
                    except Exception as error:  # re-raised at resolution
                        future._submit_error = error
            self._pending.append(future)
            if len(self._pending) > metrics.inflight_high_water:
                metrics.inflight_high_water = len(self._pending)
            return future

    def submit_all(self, requests: Sequence[Request]) -> List[ResponseFuture]:
        return [self.submit(request) for request in requests]

    # -- deadlines and timeouts --------------------------------------------

    def _timeout_for(self, endpoint_id: str) -> Optional[float]:
        """This endpoint's per-request timeout at the current instant.

        With a warm latency history the timeout adapts to p95 × k,
        clamped between the floor and the static default; a cold
        endpoint falls back to the static default.  No default means
        no timeout at all (the pre-deadline behaviour).
        """
        ceiling = self.request_timeout_seconds
        if ceiling is None or self.latency.count(endpoint_id) < TIMEOUT_WARMUP:
            return ceiling
        p95 = self.latency.quantile(endpoint_id, 0.95)
        return min(
            max(p95 * ADAPTIVE_TIMEOUT_MULTIPLIER, TIMEOUT_FLOOR_SECONDS),
            ceiling,
        )

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
        """When this request would start, were it scheduled right now."""
        start = max(
            future._submit_clock, self._lane_free.get(endpoint_id, 0.0)
        )
        if len(self._worker_free) >= self.pool_size:
            start = max(start, self._worker_free[0])
        return start

    def _censor(self, future: ResponseFuture, endpoint_id: str,
                cost: float) -> Tuple[float, bool, bool]:
        """How much of a modeled cost the client waited out: it stopped
        at its timeout / at the deadline, even if the answer (or the
        retries) would have ground on longer.  Returns ``(allowed, cut
        by the timeout, cut by the deadline)``."""
        timeout = future._timeout
        timed_out = timeout is not None and cost > timeout
        if timed_out:
            cost = timeout
        past_deadline = False
        deadline = self.context.deadline
        if deadline is not None:
            budget = deadline.remaining(self._lane_start(future, endpoint_id))
            past_deadline = cost > budget
            if past_deadline:
                cost = budget
        return cost, timed_out, past_deadline

    def _note_timeout(self, endpoint_id: str) -> None:
        """A request outlasted its per-request timeout: one count in the
        query's metrics and one in the endpoint's health view, always
        together, so ``/stats`` agrees with the query's own metrics."""
        self.context.metrics.timeouts += 1
        self._endpoint_stat(endpoint_id, "timeouts", 1)

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
        if health.state == "open" and now >= health.open_until:
            health.state = "half_open"
            health.probe_inflight = False
        if health.state == "half_open" and not health.probe_inflight:
            health.probe_inflight = True
            return False
        future._submit_error = CircuitBreakerOpenError(
            request.endpoint_id, health.open_until
        )
        self.context.metrics.breaker_fast_fails += 1
        return True

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
            BREAKER_COOLDOWN_SECONDS
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
        start = self._lane_start(future, endpoint_id)
        if len(self._worker_free) >= self.pool_size:
            heapq.heappop(self._worker_free)  # the worker _lane_start saw
        finish = start + cost_seconds
        heapq.heappush(self._worker_free, finish)
        self._lane_free[endpoint_id] = finish
        lanes = self.context.metrics.lane_busy_seconds
        lanes[endpoint_id] = lanes.get(endpoint_id, 0.0) + cost_seconds
        return finish

    def _account_retries(self, endpoint_id: str, kind: str, attempts: int = 0,
                         bytes_retransmitted: int = 0, error=None) -> None:
        """Fold failed attempts into the metrics and the trace.

        Failures are never free: every attempt — absorbed by a later
        retry or not — counts in ``requests_failed``, and the bytes it
        put on the wire count in ``bytes_sent``.  ``error`` is the
        exception that exhausted the attempt loop, whose stamps say how
        many attempts and bytes that took; without one the attempts
        were absorbed by a later success.
        """
        exhausted = error is not None
        if exhausted:
            attempts = getattr(error, "failed_attempts", 0)
            bytes_retransmitted = getattr(error, "bytes_sent_total", 0)
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
                cost, timed_out, past_deadline = self._censor(
                    future, endpoint_id, getattr(error, "virtual_cost", 0.0)
                )
                if timed_out:
                    self._note_timeout(endpoint_id)
                if past_deadline:
                    self.context.metrics.deadline_exceeded += 1
                self._account_retries(
                    endpoint_id, future.request.kind, error=error
                )
                if cost > 0:
                    future._finish = self._schedule_lane(
                        future, endpoint_id, cost
                    )
                if isinstance(
                    error, (EndpointUnavailableError, EndpointRateLimitError)
                ):
                    self._note_failure(endpoint_id, at=future._finish)
                    self.latency.mark_down(endpoint_id)
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
            )
        # Censoring is *post hoc*: a modeled cost is known at scheduling
        # time, so the simulator can pretend the client cancelled at a
        # predicted instant.  A measured answer has already really
        # arrived, inside a budget its socket enforced — censoring it
        # would discard an answer the client read — so it is scheduled
        # as it is.
        verdict = (response.cost_seconds, False, False)
        if not response.wall_clock:
            verdict = self._censor(future, endpoint_id, response.cost_seconds)
        self._finish_success(future, endpoint_id, response, *verdict)

    def _finish_success(self, future: ResponseFuture, endpoint_id: str,
                        response: Response, allowed: float,
                        timed_out: bool, past_deadline: bool) -> None:
        """Schedule an answered request, given :meth:`_censor`'s verdict
        on it.  One cut by its timeout or the deadline becomes a
        failure: the client cancelled it after ``allowed`` seconds and
        only that much is charged — which is what bounds the query's
        completion time by ``deadline + one request timeout``."""
        cost = response.cost_seconds
        reason = (
            "deadline" if past_deadline else "timeout" if timed_out else None
        )
        # The tracker sees what a client would measure: true latency for
        # answers it read, the censored cancellation point otherwise.
        self.latency.observe(endpoint_id, allowed, answered=reason is None)
        if reason is None:
            self._note_success(endpoint_id)
            if response.partial:
                # The member flagged its own answer as incomplete: fold
                # that into the completeness report, keep the rows.
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
        metrics = self.context.metrics
        metrics.requests_failed += 1
        if reason == "timeout":
            self._note_timeout(endpoint_id)
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
        return self.gather(self.submit_all(requests))
