"""A local in-process SPARQL endpoint backed by a triple store."""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Optional

from ..rdf.triple import Triple
from ..sparql.ast import Query
from ..sparql.evaluator import Evaluator
from ..sparql.parser import parse_query
from ..sparql.results import ResultSet
from ..store.triplestore import TripleStore
from .base import EndpointResponse
from .errors import EndpointRateLimitError
from .faults import FaultProfile, injector_for
from .network import Region

_DEFAULT_REGION = Region("local")

#: query text one endpoint keeps parsed (LRU).  Bytes, not entries: a bound
#: VALUES request is kilobytes of IRIs and its AST ~6x that.
_PARSE_CACHE_TEXT_BYTES = 256 * 1024


class LocalEndpoint:
    """Wraps a :class:`TripleStore` behind the endpoint protocol.

    ``max_requests_per_query`` simulates a public endpoint's politeness
    limit (see Table 2): the owning engine resets the window per query via
    :meth:`reset_request_window`; exceeding the limit raises
    :class:`EndpointRateLimitError`.

    ``failure_rate`` injects i.i.d. transient faults: that fraction of
    requests raises :class:`EndpointUnavailableError` (deterministically
    seeded), exercising the request handler's retry logic.  ``faults``
    accepts a full :class:`~repro.endpoint.faults.FaultProfile` for
    structured failure modes — outage windows, latency spikes, rate
    limits — and overrides the ``failure_rate`` shorthand when given.
    """

    def __init__(
        self,
        endpoint_id: str,
        store: TripleStore,
        region: Region = _DEFAULT_REGION,
        max_requests_per_query: Optional[int] = None,
        failure_rate: float = 0.0,
        failure_seed: int = 97,
        faults: Optional[FaultProfile] = None,
    ):
        if not 0.0 <= failure_rate < 1.0:
            raise ValueError("failure_rate must be in [0, 1)")
        self.endpoint_id = endpoint_id
        self.store = store
        self.region = region
        self.max_requests_per_query = max_requests_per_query
        self.failure_rate = failure_rate
        self.faults = injector_for(
            endpoint_id, faults, failure_rate, failure_seed
        )
        self._requests_in_window = 0
        self._evaluator = Evaluator(store)
        self._parse_cache: Dict[str, Query] = {}
        self._parse_cache_bytes = 0
        #: serializes :meth:`execute` like a single-threaded SPARQL
        #: server answering one query at a time.  The evaluator's stats
        #: snapshot/delta window, the rate-limit window, the parse cache,
        #: and the fault injector all mutate shared state — without this
        #: lock, *concurrent queries* (each with its own request handler)
        #: interleave those read-modify-write windows and the per-request
        #: compute attribution drifts.  RLock so reset_request_window can
        #: be called while holding it.
        self._lock = threading.RLock()

    @classmethod
    def from_triples(
        cls,
        endpoint_id: str,
        triples: Iterable[Triple],
        region: Region = _DEFAULT_REGION,
        **kwargs,
    ) -> "LocalEndpoint":
        return cls(endpoint_id, TripleStore(triples), region, **kwargs)

    def set_faults(self, profile: Optional[FaultProfile]) -> None:
        """(Re)configure fault injection on a live endpoint — e.g. to
        take it down for a resilience scenario; ``None`` heals it."""
        self.faults = injector_for(self.endpoint_id, profile, 0.0, 97)

    def reset_request_window(self) -> None:
        with self._lock:
            self._requests_in_window = 0
            if self.faults is not None:
                self.faults.reset_window()

    def execute(
        self, query_text: str, timeout_seconds: Optional[float] = None
    ) -> EndpointResponse:
        """``timeout_seconds`` is ignored: a simulated endpoint's cost
        is censored on the virtual timeline, not at a socket."""
        with self._lock:
            return self._execute_locked(query_text)

    def _execute_locked(self, query_text: str) -> EndpointResponse:
        if self.max_requests_per_query is not None:
            self._requests_in_window += 1
            if self._requests_in_window > self.max_requests_per_query:
                raise EndpointRateLimitError(
                    self.endpoint_id, self.max_requests_per_query
                )
        latency_penalty = 0.0
        if self.faults is not None:
            latency_penalty = self.faults.check(query_text)
        query = self._parse_cache.pop(query_text, None)
        if query is None:
            query = parse_query(query_text)
            self._parse_cache_bytes += len(query_text)
        self._parse_cache[query_text] = query  # (re)inserted most recent
        while self._parse_cache_bytes > _PARSE_CACHE_TEXT_BYTES:
            oldest = next(iter(self._parse_cache))
            del self._parse_cache[oldest]
            self._parse_cache_bytes -= len(oldest)
        stats = self._evaluator.stats
        before = stats.snapshot()
        if query.form == "ASK":
            answer = self._evaluator.ask(query)
            return EndpointResponse(
                value=answer,
                rows_touched=1,
                bytes_received=16,
                compute=stats.delta(before),
                latency_penalty_seconds=latency_penalty,
            )
        result: ResultSet = self._evaluator.select(query)
        return EndpointResponse(
            value=result,
            rows_touched=max(1, len(result)),
            bytes_received=64 + result.estimated_bytes(),
            compute=stats.delta(before),
            latency_penalty_seconds=latency_penalty,
        )

    def triple_count(self) -> int:
        return len(self.store)

    def __repr__(self) -> str:
        return (
            f"LocalEndpoint({self.endpoint_id!r}, {len(self.store)} triples, "
            f"region={self.region.name!r})"
        )
