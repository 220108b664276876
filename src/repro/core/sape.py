"""Selectivity-Aware Planning and parallel Execution (Section 4, Alg. 3).

Phase one evaluates every non-delayed subquery concurrently at its
relevant endpoints.  Phase two evaluates delayed subqueries most
selective first, with their variables bound to already-found bindings
through SPARQL ``VALUES`` blocks; subqueries containing fully unbound
patterns get their source list refined with bound ASKs first.  The
results of one subquery gathered from different endpoints are merged
with the §3.3 Case-2 cross-endpoint re-join when binding values overlap
across endpoints.

Phase two is futures-based, the way the paper's ERH keeps its thread
pool saturated (Figure 3): every VALUES block of every endpoint of a
delayed subquery enters one submission wave, and delayed subqueries that
share no variable — so neither can tighten the other's bindings — are
dispatched concurrently in the same wave.

Turning a subquery into requests is :class:`SubqueryDispatcher`'s job,
shared with the streaming executor; :class:`SubqueryEvaluator` is the
materialized scheduler on top of it (submit a wave, then settle it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..endpoint.metrics import ExecutionContext
from ..rdf.term import GroundTerm, Variable
from ..sparql.ast import GroupPattern, Query, ValuesBlock
from ..sparql.results import ResultSet
from ..sparql.serializer import serialize_query
from ..federation.request_handler import (
    ElasticRequestHandler,
    Request,
    ResponseFuture,
)
from ..federation.result_cache import ResultCache, subquery_cache_key
from ..federation.routing import fail_over
from .joins import hash_join, union_all
from .optimizer import Relation, refine_with_bindings
from .subquery import Subquery

#: variable -> its surviving values
Bindings = Dict[Variable, Set[GroundTerm]]


class BindingTracker:
    """Per-variable distinct-value intersections, maintained incrementally.

    A value can only survive the global join if it appears in every
    relation mentioning the variable, so the intersection is both sound
    and the tightest available bound set.  Feeding relations in one at a
    time (as they arrive from endpoints) replaces the seed's rescan of
    *every* relation after *each* delayed subquery.
    """

    def __init__(self) -> None:
        self.bindings: Bindings = {}

    def add(self, result: ResultSet) -> None:
        """Tighten the tracked intersections with one new relation."""
        rows = result.rows
        for index, variable in enumerate(result.variables):
            values = {row[index] for row in rows if row[index] is not None}
            if variable in self.bindings:
                self.bindings[variable] &= values
            else:
                self.bindings[variable] = values


@dataclass(slots=True)
class Contribution:
    """One endpoint's answer to one subquery request.

    Requested by :meth:`SubqueryDispatcher.request`: a result-cache hit
    arrives with ``value`` set and no ``future``; a miss is in flight on
    ``future`` until :meth:`SubqueryDispatcher.settle` fills ``value``
    (repointing ``endpoint_id`` / ``future`` at the fragment sibling
    that answered when the endpoint failed).
    """

    subquery: Subquery
    endpoint_id: str
    values_block: Optional[ValuesBlock] = None
    future: Optional[ResponseFuture] = None
    value: Optional[ResultSet] = None


@dataclass(slots=True)
class BoundPlan:
    """How one delayed subquery is fetched: unbound (``variable`` is
    None) or as VALUES ``blocks`` over ``variable``, from ``sources``;
    ``asks`` are its in-flight source-refinement ASKs."""

    subquery: Subquery
    variable: Optional[Variable]
    sources: List[str]
    blocks: List[List[GroundTerm]] = field(default_factory=list)
    asks: List[ResponseFuture] = field(default_factory=list)


class SubqueryDispatcher:
    """The one place a subquery turns into endpoint requests.

    Both executors fetch every relation through this class: the
    materialized SAPE wave (:class:`SubqueryEvaluator`) requests a whole
    wave and then settles it, the streaming timeline
    (:mod:`repro.core.streaming`) requests with ``at=`` backdating and
    settles each answer as it goes.  *Request* and *settle* are separate
    steps so each keeps its own ordering; everything between them —
    result-cache lookup and store, the cached-unconstrained local
    filter, VALUES-block planning, bound-ASK source refinement, failover
    to a fragment sibling, degradation marking — is written once, here.
    """

    def __init__(
        self,
        handler: ElasticRequestHandler,
        context: ExecutionContext,
        values_block_size: int = 128,
        result_cache: Optional[ResultCache] = None,
    ):
        self.handler = handler
        self.context = context
        self.values_block_size = max(1, values_block_size)
        #: engine-lifetime subquery result cache; None = always fetch
        self.result_cache = result_cache

    # ------------------------------------------------------------------
    # Request
    # ------------------------------------------------------------------

    def request(
        self,
        subquery: Subquery,
        sources: Sequence[str],
        values_block: Optional[ValuesBlock] = None,
        at: Optional[float] = None,
    ) -> Iterator[Contribution]:
        """One :class:`Contribution` per source, lazily, in source order.

        A (subquery, endpoint) pair whose relation is cached (same
        canonical text, same store version) never reaches the handler;
        every other pair is submitted — backdated to ``at`` when given —
        as the generator reaches it, so a caller that drains it first
        gets one submission wave and a caller that settles between
        steps gets request-then-answer ordering.
        """
        text: Optional[str] = None
        for endpoint_id in sources:
            hit = self._cache_lookup(subquery, endpoint_id, values_block)
            if hit is not None:
                yield Contribution(subquery, endpoint_id, values_block, value=hit)
                continue
            if text is None:
                text = subquery.to_sparql(values=values_block)
            yield Contribution(
                subquery, endpoint_id, values_block,
                future=self.handler.submit(
                    Request(endpoint_id, text, kind="SELECT"), at=at
                ),
            )

    def plan(self, subquery: Subquery, bindings: Bindings) -> BoundPlan:
        """Plan a delayed subquery against the bindings found so far.

        Binds on the shared variable with the fewest surviving values,
        sorted by term sort key and cut into ``VALUES`` blocks.  A
        subquery with a ``?s ?p ?o``-style pattern is relevant everywhere,
        so its bound re-selection ASKs (Alg. 3 line 13) go out now,
        sampled from the first block; :meth:`refine` reads the answers.
        """
        candidates = [
            (len(values), variable)
            for variable, values in bindings.items()
            if variable in subquery.variables() and values
        ]
        plan = BoundPlan(
            subquery,
            min(candidates)[1] if candidates else None,
            list(subquery.sources),
        )
        if plan.variable is None:
            return plan
        values = sorted(bindings[plan.variable], key=lambda t: t.sort_key())
        plan.blocks = [
            values[i:i + self.values_block_size]
            for i in range(0, len(values), self.values_block_size)
        ]
        if plan.blocks and subquery.has_fully_unbound_pattern():
            sample = ValuesBlock([plan.variable], [(v,) for v in plan.blocks[0]])
            group = GroupPattern(
                elements=[sample] + list(subquery.patterns),
                filters=list(subquery.filters),
            )
            text = serialize_query(Query(form="ASK", where=group))
            plan.asks = [
                self.handler.submit(Request(endpoint_id, text, kind="ASK"))
                for endpoint_id in plan.sources
            ]
        return plan

    def refine(self, plan: BoundPlan) -> None:
        """Settle the plan's refinement ASKs; keep the endpoints that can
        contribute (all of them when none said yes)."""
        refined = []
        for ask in plan.asks:
            response, error = self.handler.settle(ask)
            # A failed refinement ASK excludes that endpoint — it cannot
            # answer the dependent SELECTs either (partial mode; outside
            # it settle re-raised).
            if error is None and bool(response.value):
                refined.append(ask.request.endpoint_id)
        plan.sources = refined or plan.sources

    def request_plan(
        self, plan: BoundPlan, at: Optional[float] = None
    ) -> Iterator[Contribution]:
        """Every contribution a plan needs: each VALUES block × endpoint.

        Cache interaction, per endpoint: when the *unconstrained*
        relation is cached, the bound join runs as a local filter and no
        block is sent there at all; otherwise each (block, endpoint)
        pair is looked up under its VALUES-constrained key, so an
        exactly repeated bound workload also short-circuits.
        """
        subquery, variable = plan.subquery, plan.variable
        if variable is None:
            # Nothing to bind against: evaluate unbound.
            yield from self.request(subquery, plan.sources, None, at)
            return
        cached, live = self.split_cached(subquery, variable, plan.sources)
        wanted = {term for block in plan.blocks for term in block}
        for endpoint_id, relation in cached.items():
            yield Contribution(
                subquery, endpoint_id,
                value=self.filter_cached(
                    relation, variable, wanted, len(plan.blocks) - 1
                ),
            )
        for block in plan.blocks:
            values_block = ValuesBlock([variable], [(v,) for v in block])
            yield from self.request(subquery, live, values_block, at)

    # ------------------------------------------------------------------
    # Settle
    # ------------------------------------------------------------------

    def settle(self, contribution: Contribution) -> bool:
        """Resolve one contribution; False when partial mode dropped it.

        A failed request is first resent to the endpoint's fragment
        siblings (:func:`~repro.federation.routing.fail_over`, same
        query text); only an unrecovered failure degrades the subquery.
        Outside partial mode this raises exactly like ``result()``.  Only
        full answers are cached — under the answering endpoint's *cache
        scope*, so a future query routed to the other copy of a
        replicated fragment still hits — and failed or degraded settles
        never are, so degradation cannot poison the cache.
        """
        future = contribution.future
        if future is None:
            return True  # served by the result cache
        subquery, endpoint_id = contribution.subquery, contribution.endpoint_id
        response, error = self.handler.settle(future)
        if error is not None:
            future = fail_over(self.handler, future.request, subquery.patterns)
            if future is None:
                self.mark_degraded(subquery.label, endpoint_id)
                return False
            response = future.result()
            contribution.endpoint_id = endpoint_id = future.request.endpoint_id
            contribution.future = future
        contribution.value = value = response.value
        if self.result_cache is not None and isinstance(value, ResultSet):
            scope, version = self.handler.federation.cache_identity(endpoint_id)
            self.result_cache.put(
                scope, version,
                subquery_cache_key(subquery, contribution.values_block),
                value,
            )
        return True

    def mark_degraded(self, label: str, endpoint_id: str) -> None:
        report = self.context.completeness
        if label not in report.subqueries_degraded:
            self.context.metrics.subqueries_degraded += 1
        report.note_degraded(label)
        self.context.trace_event(
            "subquery_degraded", label=label, endpoint=endpoint_id
        )

    # ------------------------------------------------------------------
    # Result cache
    # ------------------------------------------------------------------

    def _cache_lookup(
        self, subquery: Subquery, endpoint_id: str, values_block=None
    ) -> Optional[ResultSet]:
        """A cached relation for (subquery, endpoint), or None.

        Hits are returned with the caller's projection as header (keys
        are canonical, so positions correspond even across queries that
        named their variables differently).  Replicated endpoints share
        a fragment scope (see
        :meth:`~repro.federation.federation.Federation.cache_identity`),
        so a subquery answered by one replica warms the cache for every
        copy the router might pick next time.
        """
        if self.result_cache is None:
            return None
        scope, version = self.handler.federation.cache_identity(endpoint_id)
        hit = self.result_cache.get(
            scope,
            version,
            subquery_cache_key(subquery, values_block),
            projection=subquery.effective_projection(),
        )
        metrics = self.context.metrics
        if hit is None:
            metrics.result_cache_misses += 1
            return None
        metrics.result_cache_hits += 1
        metrics.requests_avoided += 1
        self.context.trace_event(
            "result_cache", label=subquery.label,
            endpoint=endpoint_id, rows=len(hit),
            constrained=values_block is not None,
        )
        return hit

    def split_cached(
        self, subquery: Subquery, variable: Variable, sources: Sequence[str]
    ) -> Tuple[Dict[str, ResultSet], List[str]]:
        """Split a bound fetch's sources into those whose *unconstrained*
        relation is cached (endpoint -> relation) and the live rest.

        Serving the cached ones by local filtering is profitable
        whenever the full relation is already in memory, and exact
        whenever the bound variable is projected (SAPE binds on shared
        variables, which projections always keep).
        """
        cached: Dict[str, ResultSet] = {}
        if (
            self.result_cache is None
            or variable not in subquery.effective_projection()
        ):
            return cached, list(sources)
        live: List[str] = []
        for endpoint_id in sources:
            hit = self._cache_lookup(subquery, endpoint_id)
            if hit is None:
                live.append(endpoint_id)
            else:
                cached[endpoint_id] = hit
        return cached, live

    def filter_cached(
        self,
        cached: ResultSet,
        variable: Variable,
        wanted: Set[GroundTerm],
        blocks_avoided: int,
    ) -> ResultSet:
        """The rows of a cached unconstrained relation whose ``variable``
        is in ``wanted`` — exactly what the endpoint's VALUES join would
        return, for one local scan instead of a round trip per block.
        ``blocks_avoided`` counts the requests this stands in for beyond
        the one the cache lookup already counted."""
        index = cached.variables.index(variable)
        rows = [row for row in cached.rows if row[index] in wanted]
        self.context.charge_join(len(cached))
        self.context.metrics.requests_avoided += blocks_avoided
        return ResultSet(cached.variables, rows)


class SubqueryEvaluator:
    """Evaluates a set of LADE subqueries against the federation."""

    def __init__(
        self,
        handler: ElasticRequestHandler,
        context: ExecutionContext,
        values_block_size: int = 128,
        result_cache: Optional[ResultCache] = None,
    ):
        self.context = context
        self.dispatcher = SubqueryDispatcher(
            handler, context, values_block_size, result_cache
        )

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def evaluate(
        self,
        subqueries: Sequence[Subquery],
        initial_relations: Optional[Dict[str, ResultSet]] = None,
    ) -> Dict[str, ResultSet]:
        """Run Algorithm 3; returns relation name -> result set.

        ``initial_relations`` seeds the binding map (e.g. VALUES blocks in
        the original query); their values also bound delayed subqueries.
        """
        dispatcher = self.dispatcher
        relations: Dict[str, ResultSet] = dict(initial_relations or {})
        tracker = BindingTracker()
        for result in relations.values():
            tracker.add(result)

        # Phase 1: one submission wave for every non-delayed subquery.
        non_delayed = [sq for sq in subqueries if not sq.delayed]
        wave = [
            (subquery, (), list(dispatcher.request(subquery, subquery.sources)))
            for subquery in non_delayed
        ]
        self._gather(wave, relations, tracker, "concurrent")

        # Phase 2: delayed subqueries, most selective first, bound joins.
        # Variable-disjoint subqueries share a wave — neither can tighten
        # the other's bindings.
        remaining = [sq for sq in subqueries if sq.delayed]
        while remaining:
            deadline = self.context.deadline
            if deadline is not None and deadline.expired(
                self.context.metrics.virtual_seconds
            ):
                # Out of budget: the remaining delayed subqueries are
                # skipped, each contributing an empty relation (an empty
                # set is a subset of any true answer), and the result
                # degrades to PARTIAL via the completeness report.
                for subquery in remaining:
                    relations[subquery.label] = ResultSet(
                        tuple(subquery.effective_projection())
                    )
                    dispatcher.mark_degraded(subquery.label, "(deadline)")
                self.context.metrics.deadline_exceeded += 1
                self.context.trace_event(
                    "deadline",
                    stage="sape",
                    skipped=[sq.label for sq in remaining],
                    expires_at=deadline.expires_at,
                )
                break
            wave = self._independent_wave(remaining, tracker.bindings)
            for subquery in wave:
                remaining.remove(subquery)
            self._gather(
                self._request_delayed_wave(wave, tracker.bindings),
                relations, tracker, "delayed (bound)",
            )
        return relations

    def _gather(
        self,
        wave: Sequence[Tuple[Subquery, Sequence[str], List[Contribution]]],
        relations: Dict[str, ResultSet],
        tracker: BindingTracker,
        mode: str,
    ) -> None:
        """Settle a submitted wave of ``(subquery, endpoint order,
        contributions)`` into one combined relation per subquery.

        In-flight pieces settle in submission order (cache-served ones
        have nothing to await) and every piece unions at its *requested*
        position, so the pieces of one endpoint (several under VALUES
        blocks) and the endpoints of one subquery always union in the
        same order — whichever of them another query happened to cache
        in the meantime.
        """
        gathered: List[Dict[str, List[ResultSet]]] = []
        for _, order, contributions in wave:
            per_endpoint = {endpoint_id: [] for endpoint_id in order}
            for contribution in contributions:
                if self.dispatcher.settle(contribution):
                    per_endpoint.setdefault(
                        contribution.endpoint_id, []
                    ).append(contribution.value)
            gathered.append(per_endpoint)
        for (subquery, _, _), per_endpoint in zip(wave, gathered):
            result = self.combine_endpoint_results(subquery, {
                endpoint_id: (
                    pieces[0] if len(pieces) == 1
                    else union_all(pieces, self.context)
                )
                for endpoint_id, pieces in per_endpoint.items()
                if pieces
            })
            relations[subquery.label] = result
            subquery.actual_cardinality = len(result)
            self.context.note_intermediate_rows(len(result))
            self.context.trace_event(
                "subquery_result", label=subquery.label,
                rows=len(result), mode=mode,
            )
            tracker.add(result)

    # ------------------------------------------------------------------
    # Phase-2 helpers
    # ------------------------------------------------------------------

    def refined_size(self, subquery: Subquery, bindings: Bindings) -> float:
        if subquery.cache_warm:
            # Cache-aware cost: a warm subquery costs ~0 — it is served
            # from memory, so it always sorts to the front of the wave.
            return 0.0
        relation = Relation(
            name=subquery.label,
            size=int(subquery.estimated_cardinality or 0),
            variables=subquery.variables(),
        )
        return refine_with_bindings(relation, dict(bindings))

    def _independent_wave(
        self, subqueries: List[Subquery], bindings: Bindings
    ) -> List[Subquery]:
        """Most selective subquery plus every later one sharing no
        variable with anything already picked (stable order)."""
        ranked = sorted(
            subqueries, key=lambda sq: self.refined_size(sq, bindings)
        )
        wave: List[Subquery] = []
        claimed: Set[Variable] = set()
        for subquery in ranked:
            if not wave or not (subquery.variables() & claimed):
                wave.append(subquery)
                claimed |= subquery.variables()
        return wave

    def _request_delayed_wave(
        self, wave: Sequence[Subquery], bindings: Bindings
    ) -> List[Tuple[Subquery, Sequence[str], List[Contribution]]]:
        """Put one wave of delayed subqueries in flight.

        Every subquery's every VALUES block × endpoint is submitted
        before anything is awaited; source-refinement ASKs go out in the
        same window and only their dependent SELECTs wait for them — the
        rest of the wave is already in flight by then.
        """
        dispatcher = self.dispatcher
        planned: List[Tuple[BoundPlan, List[Contribution]]] = []
        for subquery in wave:
            plan = dispatcher.plan(subquery, bindings)
            planned.append((
                plan, [] if plan.asks else list(dispatcher.request_plan(plan))
            ))
        for plan, contributions in planned:
            if plan.asks:
                dispatcher.refine(plan)
                contributions.extend(dispatcher.request_plan(plan))
        return [
            (plan.subquery, plan.sources, contributions)
            for plan, contributions in planned
        ]

    # ------------------------------------------------------------------
    # Cross-endpoint combination (§3.3 Case 2)
    # ------------------------------------------------------------------

    def combine_endpoint_results(
        self,
        subquery: Subquery,
        per_endpoint: Dict[str, ResultSet],
    ) -> ResultSet:
        """Merge one subquery's per-endpoint results.

        Default is a union.  When the subquery has several patterns and a
        local join variable's values appear at more than one endpoint,
        local evaluation may miss cross-endpoint combinations (paper
        §3.3, Case 2); in that case the server re-joins per-pattern
        projections of the endpoint results, which is complete because
        locality guarantees every local pattern row survived the local
        join.
        """
        results = [r for r in per_endpoint.values() if isinstance(r, ResultSet)]
        if not results:
            return ResultSet(tuple(subquery.effective_projection()))
        plain = union_all(results, self.context).distinct()
        if len(per_endpoint) < 2 or len(subquery.patterns) < 2:
            return self.apply_late_filters(subquery, plain)
        header = plain.variables
        internal = [
            v for v in subquery.internal_join_variables() if v in header
        ]
        if not internal or not self._values_overlap(per_endpoint, internal):
            return self.apply_late_filters(subquery, plain)
        rejoined = self._projection_rejoin(subquery, plain, header)
        return self.apply_late_filters(subquery, rejoined)

    def apply_late_filters(
        self, subquery: Subquery, result: ResultSet
    ) -> ResultSet:
        """Federator-side filters that were unsafe to push (see
        ``assign_filters``)."""
        if not subquery.late_filters:
            return result
        for filter_expr in subquery.late_filters:
            if filter_expr.variables() <= set(result.variables):
                kept = [
                    row
                    for row, binding in zip(result.rows, result.bindings())
                    if filter_expr.effective_boolean(binding)
                ]
                result = ResultSet(result.variables, kept)
        self.context.charge_join(len(result) * max(1, len(subquery.late_filters)))
        return result

    @staticmethod
    def _values_overlap(
        per_endpoint: Dict[str, ResultSet], variables: List[Variable]
    ) -> bool:
        for variable in variables:
            seen: Dict[GroundTerm, str] = {}
            for endpoint_id, result in per_endpoint.items():
                if variable not in result.variables:
                    continue
                for value in result.distinct_values(variable):
                    owner = seen.get(value)
                    if owner is None:
                        seen[value] = endpoint_id
                    elif owner != endpoint_id:
                        return True
        return False

    def _projection_rejoin(
        self,
        subquery: Subquery,
        union: ResultSet,
        header: Tuple[Variable, ...],
    ) -> ResultSet:
        joined: Optional[ResultSet] = None
        for pattern in subquery.patterns:
            columns = sorted(
                (v for v in pattern.variables() if v in header),
                key=lambda v: v.name,
            )
            if not columns:
                continue
            piece = union.project(columns).distinct()
            joined = piece if joined is None else hash_join(
                joined, piece, self.context
            )
        if joined is None:
            return union
        for filter_expr in subquery.filters:
            if filter_expr.variables() <= set(joined.variables):
                kept = [
                    row
                    for row, binding in zip(joined.rows, joined.bindings())
                    if filter_expr.effective_boolean(binding)
                ]
                joined = ResultSet(joined.variables, kept)
        return joined.project(list(header)).distinct()

