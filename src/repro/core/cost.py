"""SAPE's cost model (Section 4.1).

Per-triple-pattern cardinalities come from lightweight
``SELECT (COUNT(*) AS ?c)`` probes sent during query analysis (with any
pushable filters attached for tighter estimates).  Subquery cardinality
follows the paper's rules:

- per endpoint, the bindings of a join variable after a join are bounded
  by the *minimum* cardinality of the patterns it joins;
- a variable's total cardinality is the *sum* over relevant endpoints;
- a subquery's cardinality is the *maximum* over its projected variables.

Subqueries whose cardinality (or endpoint fan-out) exceeds ``μ + kσ`` —
with Chauvenet's criterion rejecting outliers before computing μ and σ —
are *delayed* and later evaluated with bound VALUES blocks.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..rdf.term import Variable
from ..rdf.triple import TriplePattern
from ..sparql.ast import GroupPattern, count_query
from ..sparql.expressions import Expression
from ..sparql.serializer import serialize_query
from ..federation.cache import ProbeCache, canonical_pattern_key
from ..federation.request_handler import (
    ElasticRequestHandler,
    Request,
    ResponseFuture,
)
from .subquery import Subquery

#: supported settings for the delay threshold (Figure 13)
DELAY_THRESHOLDS = ("mu", "mu+sigma", "mu+2sigma", "outliers")

#: cardinality assumed for a pattern whose COUNT probe was skipped
#: because the analysis budget ran dry — pessimistic on purpose, so the
#: unprobed subquery classifies as delayed (evaluated bound, the cheap
#: way to be wrong about a huge relation)
WORST_CASE_CARDINALITY = 1_000_000_000


def chauvenet_keep_mask(values: Sequence[float]) -> List[bool]:
    """Chauvenet's criterion: flag values a sample of this size should not
    contain.  Returns a keep/reject mask aligned with ``values``."""
    n = len(values)
    if n < 3:
        return [True] * n
    mean = sum(values) / n
    variance = sum((v - mean) ** 2 for v in values) / n
    std = math.sqrt(variance)
    if std == 0:
        return [True] * n
    mask = []
    for value in values:
        z = abs(value - mean) / std
        expected = n * math.erfc(z / math.sqrt(2.0))
        mask.append(expected >= 0.5)
    return mask


def robust_mean_std(values: Sequence[float]) -> Tuple[float, float]:
    """Mean and standard deviation after Chauvenet outlier rejection."""
    if not values:
        return 0.0, 0.0
    mask = chauvenet_keep_mask(values)
    kept = [v for v, keep in zip(values, mask) if keep] or list(values)
    mean = sum(kept) / len(kept)
    variance = sum((v - mean) ** 2 for v in kept) / len(kept)
    return mean, math.sqrt(variance)


class CardinalityEstimator:
    """COUNT-probe based cardinality estimation with a persistent cache.

    ``count_cache`` is the engine's session-wide
    :class:`~repro.federation.cache.ProbeCache`; without one, the
    estimator remembers only its own probes.
    """

    def __init__(
        self,
        handler: ElasticRequestHandler,
        count_cache: Optional[ProbeCache] = None,
    ):
        self.handler = handler
        self.count_cache = count_cache if count_cache is not None else ProbeCache()
        #: probes dispatched but not yet awaited, by cache key
        self._inflight: Dict[Tuple[str, str, int], ResponseFuture] = {}
        #: one deadline trace/metric per estimator, however many probes
        #: the dry analysis budget ends up skipping
        self._budget_noted = False

    # -- analysis budget -------------------------------------------------

    def _out_of_time(self) -> bool:
        """Whether the analysis slice of the query deadline ran dry."""
        context = self.handler.context
        budget = context.analysis_deadline
        return budget is not None and budget.expired(
            context.metrics.virtual_seconds
        )

    def _note_budget_exhausted(self) -> None:
        if self._budget_noted:
            return
        self._budget_noted = True
        context = self.handler.context
        context.metrics.deadline_exceeded += 1
        context.trace_event(
            "deadline",
            stage="count_probes",
            expires_at=context.analysis_deadline.expires_at,
            fallback="worst-case cardinality",
        )

    # -- probes ----------------------------------------------------------

    @staticmethod
    def _probe(
        pattern: TriplePattern, filters: Sequence[Expression]
    ) -> Tuple[List[Expression], str]:
        """The filters ``pattern``'s COUNT probe can carry, and the
        probe's cache key (invariant under variable renaming)."""
        pushable = [
            f for f in filters
            if f.variables() <= pattern.variables()
            and not f.contains_exists()
        ]
        key = canonical_pattern_key(pattern)
        if pushable:
            key += " || " + " && ".join(sorted(f.to_sparql() for f in pushable))
        return pushable, key

    def _cache_key(self, endpoint_id: str, key: str) -> Tuple[str, str, int]:
        """``ProbeCache`` arguments with the endpoint's store version
        folded in, so a mutated store never serves stale counts (same
        scheme as the ASK/check caches)."""
        version = self.handler.federation.endpoint_version(endpoint_id)
        return (endpoint_id, key, version)

    def prefetch(
        self,
        patterns: Sequence[TriplePattern],
        selection: Dict[TriplePattern, Tuple[str, ...]],
        filters: Sequence[Expression] = (),
    ) -> int:
        """Dispatch COUNT probes for every (pattern, relevant endpoint)
        without awaiting them.

        Called while the GJV check queries are still in flight, so the
        analysis phase pays one overlapped window instead of a check
        barrier followed by one probe barrier *per pattern* (the two
        back-to-back barriers Figure 3's ERH never exhibits).  Probes a
        later :meth:`pattern_cardinalities` call never consumes are
        settled by :meth:`drain`.  Returns the number dispatched.
        """
        if self._out_of_time():
            self._note_budget_exhausted()
            return 0
        dispatched = 0
        for pattern in dict.fromkeys(patterns):
            pushable, key = self._probe(pattern, filters)
            wanted = [
                cache_key
                for cache_key in (
                    self._cache_key(endpoint_id, key)
                    for endpoint_id in selection.get(pattern, ())
                )
                if not self.count_cache.contains(*cache_key)
                and cache_key not in self._inflight
            ]
            self._dispatch(pattern, pushable, wanted)
            dispatched += len(wanted)
        return dispatched

    def _dispatch(self, pattern: TriplePattern, pushable, cache_keys) -> None:
        """Send ``pattern``'s COUNT probe to each keyed endpoint without
        awaiting it — the one place a probe is submitted."""
        if not cache_keys:
            return
        group = GroupPattern(elements=[pattern], filters=list(pushable))
        text = serialize_query(count_query(group))
        for cache_key in cache_keys:
            self._inflight[cache_key] = self.handler.submit(
                Request(cache_key[0], text, kind="SELECT")
            )

    def _settle(self, cache_key, future: ResponseFuture) -> Optional[int]:
        """Await one probe; cache and return its count.  A failed probe
        (partial mode) is simply not cached — the estimate degrades, the
        query does not abort — and reads as ``None``."""
        response, error = self.handler.settle(future)
        if error is not None:
            return None
        count = int(response.value.rows[0][0].lexical)
        endpoint_id, key, version = cache_key
        self.count_cache.put(endpoint_id, key, count, version)
        return count

    def drain(self) -> None:
        """Await and cache every still-outstanding prefetched probe, so
        issued requests are always accounted before analysis ends."""
        while self._inflight:
            cache_key, future = self._inflight.popitem()
            if self._out_of_time():
                # Abandon the rest: the handler's close() drain settles
                # the futures, and the skipped answers are never cached.
                self._note_budget_exhausted()
                self._inflight.clear()
                break
            self._settle(cache_key, future)

    def _await(self, cache_key) -> int:
        """The count behind one dispatched probe."""
        future = self._inflight.pop(cache_key, None)
        if future is None or self._out_of_time():
            # Out of analysis budget: the probe was never sent, or is
            # abandoned (close() drains the future).  Assume the worst;
            # never cached — the next query probes for real.
            self._note_budget_exhausted()
            return WORST_CASE_CARDINALITY
        # Partial mode: a down endpoint contributes no rows, so 0 is
        # the honest (uncached) fallback estimate.
        return self._settle(cache_key, future) or 0

    def pattern_cardinalities(
        self,
        pattern: TriplePattern,
        sources: Sequence[str],
        filters: Sequence[Expression] = (),
    ) -> Dict[str, int]:
        """Triples matching ``pattern`` (with pushable filters) per source."""
        pushable, key = self._probe(pattern, filters)
        counts: Dict[str, int] = {}
        missing = []
        for endpoint_id in sources:
            cache_key = self._cache_key(endpoint_id, key)
            cached = self.count_cache.get(*cache_key)
            if cached is not None:
                counts[endpoint_id] = cached
                self.handler.context.metrics.cache_hits += 1
            elif cache_key in self._inflight:
                counts[endpoint_id] = self._await(cache_key)
            else:
                missing.append(cache_key)
        # Never prefetched: dispatch now (budget permitting), then read
        # back like any other in-flight probe.
        if not self._out_of_time():
            self._dispatch(pattern, pushable, missing)
        for cache_key in missing:
            counts[cache_key[0]] = self._await(cache_key)
        return counts

    # -- the paper's estimation rules ----------------------------------

    def variable_cardinality(
        self,
        subquery: Subquery,
        variable: Variable,
        per_pattern: Dict[TriplePattern, Dict[str, int]],
    ) -> float:
        """``C(sq, v) = Σ_ep min over patterns containing v of C(tp, ep)``."""
        containing = [p for p in subquery.patterns if variable in p.variables()]
        if not containing:
            return 0.0
        total = 0.0
        for endpoint_id in subquery.sources:
            total += min(
                per_pattern[pattern].get(endpoint_id, 0) for pattern in containing
            )
        return total

    def subquery_cardinality(self, subquery: Subquery) -> float:
        """``C(sq)``: max over projected variables of their cardinality."""
        per_pattern = {
            pattern: self.pattern_cardinalities(
                pattern, subquery.sources, subquery.filters
            )
            for pattern in subquery.patterns
        }
        projection = subquery.effective_projection()
        cardinalities = [
            self.variable_cardinality(subquery, variable, per_pattern)
            for variable in projection
        ]
        if not cardinalities:
            return 0.0
        return max(cardinalities)

    def estimate_all(self, subqueries: Iterable[Subquery]) -> None:
        for subquery in subqueries:
            subquery.estimated_cardinality = self.subquery_cardinality(subquery)


def classify_delayed(
    subqueries: Sequence[Subquery],
    threshold: str = "mu+sigma",
) -> None:
    """Mark subqueries as delayed per the paper's heuristic.

    ``threshold`` selects the Figure-13 variant: ``mu``, ``mu+sigma``
    (the paper's default), ``mu+2sigma``, or ``outliers`` (delay only
    Chauvenet-rejected outliers).  Optional subqueries are always delayed;
    at least one subquery always stays non-delayed so phase one can run.
    """
    if threshold not in DELAY_THRESHOLDS:
        raise ValueError(
            f"unknown delay threshold {threshold!r}; expected one of "
            f"{DELAY_THRESHOLDS}"
        )
    for subquery in subqueries:
        subquery.delayed = bool(subquery.optional)
    candidates = [sq for sq in subqueries if not sq.optional]
    if len(candidates) < 2:
        _ensure_anchor(subqueries)
        return
    cardinalities = [float(sq.estimated_cardinality or 0.0) for sq in candidates]
    fanouts = [float(len(sq.sources)) for sq in candidates]
    if threshold == "outliers":
        keep_c = chauvenet_keep_mask(cardinalities)
        keep_f = chauvenet_keep_mask(fanouts)
        for subquery, kc, kf in zip(candidates, keep_c, keep_f):
            if not kc or not kf:
                subquery.delayed = True
    else:
        k = {"mu": 0.0, "mu+sigma": 1.0, "mu+2sigma": 2.0}[threshold]
        mean_c, std_c = robust_mean_std(cardinalities)
        mean_f, std_f = robust_mean_std(fanouts)
        for subquery, cardinality, fanout in zip(candidates, cardinalities, fanouts):
            if cardinality > mean_c + k * std_c:
                subquery.delayed = True
            elif cardinality >= mean_c + k * std_c and cardinality > 1.2 * mean_c:
                # Boundary case: with exactly two subqueries the larger
                # one sits exactly at mu+sigma (max = mean + population
                # std for n=2), so a strict comparison would never delay
                # anything; delay it when it is clearly the heavy side.
                subquery.delayed = True
            if fanout > mean_f + k * std_f:
                subquery.delayed = True
    for subquery in subqueries:
        if subquery.delayed and not subquery.is_safely_delayable:
            subquery.delayed = False
    _ensure_anchor(subqueries)


def _ensure_anchor(subqueries: Sequence[Subquery]) -> None:
    """Phase one needs at least one non-delayed subquery to produce the
    bindings phase two binds against."""
    if not subqueries or not all(sq.delayed for sq in subqueries):
        return
    anchor = min(
        subqueries, key=lambda sq: float(sq.estimated_cardinality or 0.0)
    )
    anchor.delayed = False


def decomposition_cost(subqueries: Sequence[Subquery]) -> float:
    """Cost of a decomposition = expected intermediate-result volume."""
    return sum(float(sq.estimated_cardinality or 0.0) for sq in subqueries)
