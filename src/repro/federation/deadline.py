"""Per-query time budgets and per-endpoint latency tracking.

Public SPARQL endpoints have unbounded tail latency (Schwarte et al.'s
experience report, arXiv:1210.5403): a single straggler stalls a whole
federated query forever.  This module provides the primitives the
deadline-aware execution stack is built from:

- :class:`Deadline` — an absolute virtual-time budget for one query.
  Phases carve **child budgets** out of whatever remains, so analysis
  work (GJV checks, COUNT probes) can be skipped conservatively long
  before the query's own budget runs dry.
- :class:`LatencyTracker` — streaming per-endpoint latency quantiles
  (p50/p95/p99) via the fixed-size P² estimator of Jain & Chlamtác.
  The request handler derives **adaptive per-request timeouts** from a
  warm endpoint's p95×k.
- :class:`AdmissionController` — bounded concurrent-query admission
  with load shedding, the bookkeeping under the serving layer's
  ``QuerySessionManager``: an overloaded federator rejects work it
  could not finish in time instead of queueing it into everyone else's
  deadline.

Everything here is virtual-time / arithmetic only — no wall clocks, no
threads beyond a lock — so simulated and threaded runs stay bit-identical.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional, Set

#: fraction of a fresh deadline granted to the analysis phases (source
#: selection, GJV checks, COUNT probes); execution gets the rest
ANALYSIS_FRACTION = 0.35

#: default per-request timeout when a deadline is set but no explicit
#: request timeout was configured: a single request may consume at most
#: this fraction of the whole query budget
DEFAULT_REQUEST_TIMEOUT_FRACTION = 0.25


class Deadline:
    """An absolute virtual-time budget for one query (or phase).

    ``start`` anchors the budget on the virtual clock; ``expires_at`` is
    the absolute instant past which work must degrade.  Budgets are
    advisory to the code that checks them — enforcement happens at the
    request scheduler, which clamps every request's chargeable time to
    the remaining budget (so completion is provably bounded by
    ``deadline + one request timeout``).
    """

    __slots__ = ("budget_seconds", "start", "expires_at", "analysis_fraction")

    def __init__(
        self,
        budget_seconds: float,
        start: float = 0.0,
        analysis_fraction: float = ANALYSIS_FRACTION,
    ):
        if budget_seconds < 0:
            raise ValueError("budget_seconds must be >= 0")
        if not 0.0 < analysis_fraction < 1.0:
            raise ValueError("analysis_fraction must be in (0, 1)")
        self.budget_seconds = budget_seconds
        self.start = start
        self.expires_at = start + budget_seconds
        self.analysis_fraction = analysis_fraction

    def remaining(self, now: float) -> float:
        """Budget left at virtual instant ``now`` (never negative)."""
        return max(0.0, self.expires_at - now)

    def expired(self, now: float) -> bool:
        return now >= self.expires_at

    def child(self, fraction: float, now: Optional[float] = None) -> "Deadline":
        """A phase budget: ``fraction`` of what remains at ``now``.

        The child is anchored at ``now`` (default: this deadline's own
        start) and can never outlive its parent.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        anchor = self.start if now is None else now
        budget = self.remaining(anchor) * fraction
        return Deadline(
            budget, start=anchor, analysis_fraction=self.analysis_fraction
        )

    def __repr__(self) -> str:
        return (
            f"Deadline({self.budget_seconds:.3f}s from t={self.start:.3f}, "
            f"expires t={self.expires_at:.3f})"
        )


class P2Quantile:
    """Jain & Chlamtác's P² streaming quantile estimator.

    Maintains five markers (min, three interior quantile markers, max)
    in O(1) memory per observation — the classic fixed-size alternative
    to keeping a reservoir.  Until five observations arrive the exact
    small-sample quantile is returned instead.
    """

    __slots__ = ("q", "count", "_samples", "_heights", "_positions",
                 "_desired", "_increments")

    def __init__(self, q: float):
        if not 0.0 < q < 1.0:
            raise ValueError("q must be in (0, 1)")
        self.q = q
        self.count = 0
        #: first five observations, before the markers are initialized
        self._samples: List[float] = []
        self._heights: Optional[List[float]] = None
        self._positions: Optional[List[float]] = None
        self._desired: Optional[List[float]] = None
        self._increments: Optional[List[float]] = None

    def observe(self, value: float) -> None:
        self.count += 1
        if self._heights is None:
            self._samples.append(value)
            if len(self._samples) == 5:
                self._samples.sort()
                q = self.q
                self._heights = list(self._samples)
                self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
                self._desired = [
                    1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0
                ]
                self._increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]
            return
        heights = self._heights
        positions = self._positions
        if value < heights[0]:
            heights[0] = value
            cell = 0
        elif value >= heights[4]:
            heights[4] = value
            cell = 3
        else:
            cell = 3
            for i in range(1, 5):
                if value < heights[i]:
                    cell = i - 1
                    break
        for i in range(cell + 1, 5):
            positions[i] += 1.0
        for i in range(5):
            self._desired[i] += self._increments[i]
        for i in (1, 2, 3):
            delta = self._desired[i] - positions[i]
            if (delta >= 1.0 and positions[i + 1] - positions[i] > 1.0) or (
                delta <= -1.0 and positions[i - 1] - positions[i] < -1.0
            ):
                step = 1.0 if delta > 0 else -1.0
                candidate = self._parabolic(i, step)
                if heights[i - 1] < candidate < heights[i + 1]:
                    heights[i] = candidate
                else:
                    heights[i] = self._linear(i, step)
                positions[i] += step

    def _parabolic(self, i: int, step: float) -> float:
        h, n = self._heights, self._positions
        return h[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, step: float) -> float:
        h, n = self._heights, self._positions
        j = i + int(step)
        return h[i] + step * (h[j] - h[i]) / (n[j] - n[i])

    def value(self) -> Optional[float]:
        """Current quantile estimate; None before any observation."""
        if self.count == 0:
            return None
        if self._heights is None:
            ordered = sorted(self._samples)
            index = min(
                len(ordered) - 1,
                max(0, math.ceil(self.q * len(ordered)) - 1),
            )
            return ordered[index]
        return self._heights[2]


class LatencyTracker:
    """Streaming per-endpoint latency quantiles (p50 / p95 / p99).

    The request handler feeds every *charged* request cost in — true
    latency for answered requests, the censored timeout for requests it
    cancelled — so the tracker models what a client actually measures.
    One tracker is shared across an engine's queries: adaptive timeouts
    warm up once, not per query.

    It also remembers which endpoints are *down*: a request that failed
    past its retries adds no latency sample, so without this a dead
    endpoint would look as fast as an unmeasured one.  The mark holds
    until the endpoint answers again.
    """

    QUANTILES = (0.5, 0.95, 0.99)

    def __init__(self):
        #: endpoint id -> quantile -> estimator
        self._estimators: Dict[str, Dict[float, P2Quantile]] = {}
        self._counts: Dict[str, int] = {}
        #: endpoints whose last settled request failed past its retries
        self._down: Set[str] = set()
        # One tracker serves every query the engine runs; concurrent
        # serving-layer executions observe from many threads, and the P²
        # marker updates are multi-step — unlocked, they corrupt.
        self._lock = threading.Lock()

    def observe(self, endpoint_id: str, seconds: float, answered: bool = True) -> None:
        """One charged request cost; ``answered`` clears a down mark
        (a censored timeout is charged but is no answer)."""
        with self._lock:
            if answered:
                self._down.discard(endpoint_id)
            per_endpoint = self._estimators.get(endpoint_id)
            if per_endpoint is None:
                per_endpoint = {q: P2Quantile(q) for q in self.QUANTILES}
                self._estimators[endpoint_id] = per_endpoint
            for estimator in per_endpoint.values():
                estimator.observe(seconds)
            self._counts[endpoint_id] = self._counts.get(endpoint_id, 0) + 1

    def mark_down(self, endpoint_id: str) -> None:
        """A request to ``endpoint_id`` failed past its retries."""
        with self._lock:
            self._down.add(endpoint_id)

    def is_down(self, endpoint_id: str) -> bool:
        with self._lock:
            return endpoint_id in self._down

    def count(self, endpoint_id: str) -> int:
        with self._lock:
            return self._counts.get(endpoint_id, 0)

    def quantile(self, endpoint_id: str, q: float) -> Optional[float]:
        with self._lock:
            per_endpoint = self._estimators.get(endpoint_id)
            if per_endpoint is None or q not in per_endpoint:
                return None
            return per_endpoint[q].value()

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """``{endpoint: {count, p50, p95, p99}}`` for metrics export."""
        out: Dict[str, Dict[str, float]] = {}
        with self._lock:
            for endpoint_id, per_endpoint in self._estimators.items():
                entry: Dict[str, float] = {
                    "count": float(self._counts.get(endpoint_id, 0))
                }
                for q, estimator in per_endpoint.items():
                    value = estimator.value()
                    if value is not None:
                        entry[f"p{int(q * 100)}"] = value
                out[endpoint_id] = entry
        return out


class AdmissionController:
    """Bounded concurrent-query admission with load shedding.

    A session manager admits at most ``max_concurrent`` queries at a
    time; anything beyond that is rejected up front — an overloaded federator that queued the work
    instead would blow *every* caller's deadline, not just the shed
    one's.  Thread-safe: HTTP worker threads share one.
    """

    def __init__(self, max_concurrent: int = 8):
        if max_concurrent < 0:
            raise ValueError("max_concurrent must be >= 0")
        self.max_concurrent = max_concurrent
        self._active = 0
        self._lock = threading.Lock()
        self.admitted = 0
        self.sheds = 0

    @property
    def active(self) -> int:
        return self._active

    def try_admit(self) -> bool:
        """Admit one query; False (and a shed on the books) if full."""
        with self._lock:
            if self._active >= self.max_concurrent:
                self.sheds += 1
                return False
            self._active += 1
            self.admitted += 1
            return True

    def release(self) -> None:
        with self._lock:
            if self._active <= 0:
                raise RuntimeError("release() without a matching admit")
            self._active -= 1
