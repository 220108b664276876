"""Per-query execution metrics and the virtual clock.

Every federated engine in this repository executes against an
:class:`ExecutionContext`: it accumulates virtual time (network + modeled
compute), counts requests and transferred bytes, tracks per-phase time
(source selection / query analysis / execution — Figure 12), and enforces
the virtual timeout and intermediate-result budgets.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .errors import MemoryLimitError, QueryTimeoutError
from .network import NetworkModel, Region


@dataclass
class CompletenessReport:
    """How much of the full answer a degraded query actually produced.

    Partial-results mode drops the contribution of endpoints that stay
    down past their retry budget instead of aborting; this report makes
    that degradation *honest*: which endpoints failed, which subqueries
    lost contributions, where traffic was rerouted to replicas, and the
    per-failure-kind counts.  ``complete`` is True only when no subquery
    lost any contribution and every failed request was answered by a
    fragment sibling (reroutes that fully recovered still count as
    complete — the answers are all there).
    """

    #: subquery labels that lost at least one endpoint's contribution
    subqueries_degraded: List[str] = field(default_factory=list)
    #: failed endpoint id -> replica id that answered in its place
    rerouted: Dict[str, str] = field(default_factory=dict)
    #: failure kind (``unavailable`` / ``breaker_open`` / ``rate_limited``)
    #: -> count of failed requests
    status_counts: Dict[str, int] = field(default_factory=dict)
    #: endpoint id -> its failed requests that no sibling answered, for
    #: every endpoint that failed past the retry budget at least once; a
    #: reroute settles one request, not every failure of the endpoint
    unrecovered: Dict[str, int] = field(default_factory=dict)

    @property
    def endpoints_failed(self) -> List[str]:
        """Endpoint ids that failed at least once, in order of failure."""
        return list(self.unrecovered)

    @property
    def complete(self) -> bool:
        """True unless an endpoint's contribution may be missing.

        A subquery that dropped an endpoint's rows is obviously
        incomplete; so is any run where a request failed *during source
        selection* without a sibling answering in its place — the
        selection then silently never targeted that endpoint for the
        pattern, and whatever it would have contributed is gone.  The
        count is per request: an endpoint rerouted for one pattern and
        dropped for another is still missing rows.
        """
        if self.subqueries_degraded:
            return False
        return not any(self.unrecovered.values())

    def note_failure(self, endpoint_id: str, kind: str) -> None:
        self.status_counts[kind] = self.status_counts.get(kind, 0) + 1
        self.unrecovered[endpoint_id] = self.unrecovered.get(endpoint_id, 0) + 1

    def note_degraded(self, label: str) -> None:
        if label not in self.subqueries_degraded:
            self.subqueries_degraded.append(label)

    def note_reroute(self, endpoint_id: str, replica_id: str) -> None:
        self.rerouted[endpoint_id] = replica_id
        self.unrecovered[endpoint_id] -= 1

    def to_dict(self) -> Dict[str, object]:
        return {
            "complete": self.complete,
            "endpoints_failed": self.endpoints_failed,
            "subqueries_degraded": list(self.subqueries_degraded),
            "rerouted": dict(self.rerouted),
            "status_counts": dict(self.status_counts),
        }


@dataclass
class Metrics:
    """Counters for one query execution.

    Plain ``metrics.field += n`` updates are safe on the orchestrating
    thread (the request scheduler mutates counters there only), but a
    serving layer running many queries may fold counters across threads
    — use :meth:`increment` / :meth:`merge` for those paths: Python's
    read-modify-write ``+=`` is not atomic, and unlocked concurrent
    increments silently lose updates.
    """

    requests: int = 0
    ask_requests: int = 0
    select_requests: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    virtual_seconds: float = 0.0
    peak_intermediate_rows: int = 0
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    cache_hits: int = 0
    #: endpoint-evaluator compute counters aggregated over every request
    #: this query issued (plans built/cached, batches, intermediate rows,
    #: probe counts, measured evaluator wall time) — lets the Figure-12
    #: profiling attribute local compute, not just virtual network time
    evaluator: Dict[str, float] = field(default_factory=dict)
    #: most requests simultaneously in flight in the request scheduler —
    #: pipelined phases push this well above any single batch's size
    inflight_high_water: int = 0
    #: submission bursts that started from an empty scheduler window; a
    #: barrier per block shows up as many small waves, pipelining as few
    #: wide ones
    scheduler_waves: int = 0
    #: endpoint id -> virtual seconds its (serialized) lane spent busy
    lane_busy_seconds: Dict[str, float] = field(default_factory=dict)
    #: endpoint request attempts that failed (whether later retried to
    #: success or exhausted) — failures are never free: each one also
    #: charges its round trip and backoff to the virtual clock
    requests_failed: int = 0
    #: re-attempts performed after a transient failure
    retries: int = 0
    #: times a circuit breaker opened for an endpoint
    breaker_opens: int = 0
    #: requests failed fast by an open breaker (no endpoint contact)
    breaker_fast_fails: int = 0
    #: subqueries that lost an endpoint contribution in partial mode
    subqueries_degraded: int = 0
    #: requests cancelled at their (adaptive) per-request timeout
    timeouts: int = 0
    #: requests whose remaining query budget cut them off (deadline
    #: binding is the *query's* fault, so no breaker blame accrues)
    deadline_exceeded: int = 0
    #: requests refused up front (submitted to a closed handler)
    sheds: int = 0
    #: in-flight requests abandoned — futures drained unresolved at
    #: close(); their endpoints did the work for nothing
    requests_cancelled: int = 0
    #: endpoint id -> {count, p50, p95, p99} from the latency tracker
    endpoint_latency: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: endpoint id -> breaker state and per-endpoint failure/retry
    #: counters, captured when the request handler closes — what /stats
    #: shows operators about which members are unhealthy
    endpoint_health: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: subquery relations served from the engine's result cache
    result_cache_hits: int = 0
    #: result-cache lookups that went to the endpoints instead
    result_cache_misses: int = 0
    #: endpoint SELECT requests never sent because a cached relation
    #: (exact or unconstrained-then-filtered) answered the subquery
    requests_avoided: int = 0
    #: endpoints pruned from source selection because another member of
    #: a declared fragment already serves the same data
    fragment_pruned: int = 0
    #: routing decisions made over declared replicated fragments
    replica_routes: int = 0
    #: binding batches routed through the streaming join pipeline
    batches_routed: int = 0
    #: mid-flight join-order replans (observed cardinality diverged from
    #: the optimizer's estimate while part of the join tree was unstarted)
    replans: int = 0
    #: virtual time at which the first final answer row was emitted —
    #: the time-to-first-result; a materialized run emits everything at
    #: the end, so there it equals the makespan
    ttfb_seconds: float = 0.0
    #: VALUES blocks dispatched from *partial* upstream binding sets
    #: (before the driving subquery finished)
    values_dispatches_partial: int = 0
    #: guards cross-thread counter updates (increment/merge/record_compute)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def increment(self, name: str, amount: float = 1) -> None:
        """Atomically add ``amount`` to the scalar counter ``name``."""
        with self._lock:
            setattr(self, name, getattr(self, name) + amount)

    def merge(self, other: "Metrics") -> None:
        """Atomically fold another query's counters into this one.

        Scalar counters add; ``peak_intermediate_rows``,
        ``inflight_high_water``, and ``ttfb_seconds`` take the max (a
        rollup's meaningful TTFB figure is its worst); the dict-valued views
        (phases, evaluator compute, lane busy time) merge per key.  The
        serving layer uses this to aggregate per-query metrics into a
        long-lived rollup without losing updates across threads.
        """
        with self._lock:
            for name, value in other.snapshot().items():
                if ":" in name or name == "lane_utilization":
                    continue
                if name in (
                    "peak_intermediate_rows",
                    "inflight_high_water",
                    "ttfb_seconds",
                ):
                    setattr(self, name, max(getattr(self, name), value))
                else:
                    setattr(self, name, getattr(self, name) + value)
            for bucket_name in ("phase_seconds", "evaluator", "lane_busy_seconds"):
                mine = getattr(self, bucket_name)
                for key, value in getattr(other, bucket_name).items():
                    mine[key] = mine.get(key, 0) + value

    def lane_utilization(self) -> float:
        """Mean busy fraction of the endpoint lanes over the query's
        virtual makespan (1.0 = every lane saturated the whole time)."""
        if not self.lane_busy_seconds or self.virtual_seconds <= 0:
            return 0.0
        busy = sum(self.lane_busy_seconds.values())
        return busy / (self.virtual_seconds * len(self.lane_busy_seconds))

    def record_compute(self, compute: Optional[Dict[str, float]]) -> None:
        """Fold one endpoint response's evaluator counters in."""
        if not compute:
            return
        for key, value in compute.items():
            self.evaluator[key] = self.evaluator.get(key, 0) + value

    def snapshot(self) -> Dict[str, float]:
        return {
            "requests": self.requests,
            "ask_requests": self.ask_requests,
            "select_requests": self.select_requests,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "virtual_seconds": self.virtual_seconds,
            "peak_intermediate_rows": self.peak_intermediate_rows,
            "cache_hits": self.cache_hits,
            "inflight_high_water": self.inflight_high_water,
            "scheduler_waves": self.scheduler_waves,
            "lane_utilization": self.lane_utilization(),
            "requests_failed": self.requests_failed,
            "retries": self.retries,
            "breaker_opens": self.breaker_opens,
            "breaker_fast_fails": self.breaker_fast_fails,
            "subqueries_degraded": self.subqueries_degraded,
            "timeouts": self.timeouts,
            "deadline_exceeded": self.deadline_exceeded,
            "sheds": self.sheds,
            "requests_cancelled": self.requests_cancelled,
            "result_cache_hits": self.result_cache_hits,
            "result_cache_misses": self.result_cache_misses,
            "requests_avoided": self.requests_avoided,
            "fragment_pruned": self.fragment_pruned,
            "replica_routes": self.replica_routes,
            "batches_routed": self.batches_routed,
            "replans": self.replans,
            "ttfb_seconds": self.ttfb_seconds,
            "values_dispatches_partial": self.values_dispatches_partial,
            **{f"phase:{k}": v for k, v in self.phase_seconds.items()},
            **{f"evaluator:{k}": v for k, v in self.evaluator.items()},
            **{
                f"latency:{endpoint}:{stat}": value
                for endpoint, stats in self.endpoint_latency.items()
                for stat, value in stats.items()
            },
            **{
                f"health:{endpoint}:{stat}": value
                for endpoint, stats in self.endpoint_health.items()
                for stat, value in stats.items()
            },
        }


class ExecutionContext:
    """Virtual clock plus budgets for one federated query."""

    def __init__(
        self,
        network: NetworkModel,
        client_region: Region,
        timeout_seconds: float = 3600.0,
        max_intermediate_rows: int = 5_000_000,
        join_rate: float = 4_000_000.0,
        join_threads: int = 4,
        real_time_limit: Optional[float] = None,
        partial_results: bool = False,
        deadline=None,
    ):
        self.network = network
        self.client_region = client_region
        self.timeout_seconds = timeout_seconds
        self.max_intermediate_rows = max_intermediate_rows
        #: rows/second one federator thread can hash-join (virtual model)
        self.join_rate = join_rate
        self.join_threads = max(1, join_threads)
        #: optional wall-clock cap (simulation budget); exceeding it
        #: aborts the query as a timeout, like killing a stuck run
        self.real_time_limit = real_time_limit
        self._started_at = time.monotonic()
        self.metrics = Metrics()
        self._current_phase: Optional[str] = None
        #: optional QueryTrace collecting the execution narrative
        self.trace = None
        #: degrade instead of aborting when an endpoint stays down past
        #: its retry budget (see ElasticRequestHandler.settle)
        self.partial_results = partial_results
        #: optional :class:`~repro.federation.deadline.Deadline` — the
        #: query's virtual-time budget, enforced by the request handler
        #: (every request's chargeable time is clamped to what remains)
        self.deadline = deadline
        #: phase slice of the deadline covering source selection and
        #: analysis (GJV checks, COUNT probes); once it runs dry those
        #: phases degrade conservatively instead of spending more budget
        self.analysis_deadline = (
            None if deadline is None
            else deadline.child(deadline.analysis_fraction)
        )
        #: honest accounting of what partial mode dropped
        self.completeness = CompletenessReport()

    def trace_event(self, kind: str, **detail) -> None:
        """Record a trace event when tracing is enabled (no-op otherwise)."""
        if self.trace is not None:
            self.trace.record(kind, self.metrics.virtual_seconds, **detail)

    # -- virtual clock --------------------------------------------------

    def charge(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot charge negative time")
        self.metrics.virtual_seconds += seconds
        if self._current_phase is not None:
            bucket = self.metrics.phase_seconds
            bucket[self._current_phase] = bucket.get(self._current_phase, 0.0) + seconds
        self.check_deadline()

    def charge_join(self, rows: int, threads: Optional[int] = None) -> None:
        """Charge federator-side join work, divided over join threads
        (the paper's JoinCost model, Section 4.2)."""
        effective_threads = threads or self.join_threads
        self.charge(rows / (self.join_rate * effective_threads))

    def check_deadline(self) -> None:
        if self.metrics.virtual_seconds > self.timeout_seconds:
            raise QueryTimeoutError(self.timeout_seconds)
        if (
            self.real_time_limit is not None
            and time.monotonic() - self._started_at > self.real_time_limit
        ):
            raise QueryTimeoutError(self.real_time_limit)

    def note_intermediate_rows(self, rows: int) -> None:
        if rows > self.metrics.peak_intermediate_rows:
            self.metrics.peak_intermediate_rows = rows
        if rows > self.max_intermediate_rows:
            raise MemoryLimitError(rows, self.max_intermediate_rows)

    # -- phases ----------------------------------------------------------

    @contextmanager
    def phase(self, name: str):
        """Attribute virtual time charged inside the block to ``name``."""
        previous = self._current_phase
        self._current_phase = name
        self.metrics.phase_seconds.setdefault(name, 0.0)
        try:
            yield self
        finally:
            self._current_phase = previous

    # -- request accounting (used by the request handler) -----------------

    def record_request(
        self,
        kind: str,
        bytes_sent: int,
        bytes_received: int,
        compute: Optional[Dict[str, float]] = None,
    ) -> None:
        self.metrics.requests += 1
        if kind == "ASK":
            self.metrics.ask_requests += 1
        else:
            self.metrics.select_requests += 1
        self.metrics.bytes_sent += bytes_sent
        self.metrics.bytes_received += bytes_received
        self.metrics.record_compute(compute)
