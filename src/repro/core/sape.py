"""Selectivity-Aware Planning and parallel Execution (Section 4, Alg. 3).

Phase one evaluates every non-delayed subquery concurrently at its
relevant endpoints.  Phase two evaluates delayed subqueries most
selective first, with their variables bound to already-found bindings
through SPARQL ``VALUES`` blocks; subqueries containing fully unbound
patterns get their source list refined with bound ASKs first.  The
results of one subquery gathered from different endpoints are merged
with the §3.3 Case-2 cross-endpoint re-join when binding values overlap
across endpoints.

With ``pipeline=True`` (the default) phase two is futures-based, the way
the paper's ERH keeps its thread pool saturated (Figure 3): every VALUES
block of every endpoint of a delayed subquery enters one submission
wave instead of a barrier per block, and delayed subqueries that share
no variable — so neither can tighten the other's bindings — are
dispatched concurrently in the same wave.  ``pipeline=False`` preserves
the strictly sequential barrier execution for ablation and benchmarking;
both modes return identical results (see tests/test_pipeline_equivalence).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..endpoint.metrics import ExecutionContext
from ..rdf.dictionary import TermDictionary
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
from .joins import hash_join, union_all
from .optimizer import Relation, refine_with_bindings
from .subquery import Subquery

#: variable -> interned IDs (in the query's join dictionary) of its
#: surviving values
Bindings = Dict[Variable, Set[int]]


class BindingTracker:
    """Per-variable distinct-value intersections, maintained incrementally.

    A value can only survive the global join if it appears in every
    relation mentioning the variable, so the intersection is both sound
    and the tightest available bound set.  Feeding relations in one at a
    time (as they arrive from endpoints) replaces the seed's rescan of
    *every* relation after *each* delayed subquery.

    Tracked sets hold IDs interned in ``dictionary`` (the context's join
    intern table) and the per-relation intersections run on machine
    integers; selection heuristics only ever ask for ``len()``, so terms
    are decoded solely when :meth:`SubqueryEvaluator._plan_blocks` turns
    an intersection into concrete ``VALUES`` rows.
    """

    def __init__(self, dictionary: TermDictionary) -> None:
        self.dictionary = dictionary
        self.bindings: Bindings = {}

    def add(self, result: ResultSet) -> None:
        """Tighten the tracked intersections with one new relation."""
        encode = self.dictionary.encode
        rows = result.rows
        for index, variable in enumerate(result.variables):
            values = {
                encode(row[index]) for row in rows if row[index] is not None
            }
            if variable in self.bindings:
                self.bindings[variable] &= values
            else:
                self.bindings[variable] = values


class _DelayedPlan:
    """One delayed subquery's in-flight requests within a wave."""

    __slots__ = ("subquery", "variable", "blocks", "sources",
                 "ask_futures", "select_futures", "cached")

    def __init__(self, subquery: Subquery, variable: Optional[Variable]):
        self.subquery = subquery
        self.variable = variable
        self.blocks: List[List[GroundTerm]] = []
        self.sources: List[str] = list(subquery.sources)
        self.ask_futures: List[ResponseFuture] = []
        #: (endpoint_id, values_block or None, future) in block-major order
        self.select_futures: List[Tuple[str, object, ResponseFuture]] = []
        #: (endpoint_id, relation) contributions the result cache served
        #: without a request
        self.cached: List[Tuple[str, ResultSet]] = []


class SubqueryEvaluator:
    """Evaluates a set of LADE subqueries against the federation."""

    def __init__(
        self,
        handler: ElasticRequestHandler,
        context: ExecutionContext,
        values_block_size: int = 128,
        pipeline: bool = True,
        result_cache: Optional[ResultCache] = None,
    ):
        self.handler = handler
        self.context = context
        self.values_block_size = max(1, values_block_size)
        #: futures-based phase-2 scheduling; False = barrier per block
        self.pipeline = pipeline
        #: engine-lifetime subquery result cache; None = always fetch
        self.result_cache = result_cache
        #: intern table the binding tracker keeps its value sets in
        #: (shared with the join kernel)
        self._binding_dictionary = context.get_join_dictionary()

    # ------------------------------------------------------------------
    # Result-cache plumbing
    # ------------------------------------------------------------------

    def _cache_identity(self, endpoint_id: str) -> tuple:
        """The endpoint's result-cache ``(scope, version token)``.

        Replicated endpoints share a fragment scope (see
        :meth:`~repro.federation.federation.Federation.cache_identity`),
        so a subquery answered by one replica warms the cache for every
        copy the router might pick next time.
        """
        return self.handler.federation.cache_identity(endpoint_id)

    def _cache_lookup(
        self, subquery: Subquery, endpoint_id: str, values_block=None
    ) -> Optional[ResultSet]:
        """A cached relation for (subquery, endpoint), or None.

        Hits are returned with the caller's projection as header (keys
        are canonical, so positions correspond even across queries that
        named their variables differently) and skip the endpoint request
        entirely.
        """
        if self.result_cache is None:
            return None
        key = subquery_cache_key(subquery, values_block)
        scope, version = self._cache_identity(endpoint_id)
        hit = self.result_cache.get(
            scope,
            version,
            key,
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

    def _cache_store(
        self,
        subquery: Subquery,
        endpoint_id: str,
        value: ResultSet,
        values_block=None,
    ) -> None:
        """Cache one successfully settled contribution.

        Only full answers reach this point — failed or degraded settles
        return None from ``_settle_contribution`` and are never cached,
        so partial-mode degradation can never poison the cache.  The
        entry lands under the answering endpoint's *cache scope*: its own
        id normally, the shared fragment scope when it is a declared
        replica — so a future query routed to the other copy still hits.
        """
        if self.result_cache is None or not isinstance(value, ResultSet):
            return
        scope, version = self._cache_identity(endpoint_id)
        self.result_cache.put(
            scope,
            version,
            subquery_cache_key(subquery, values_block),
            value,
        )

    def _filter_cached_unconstrained(
        self, plan: _DelayedPlan, endpoint_id: str
    ) -> Optional[ResultSet]:
        """Serve a VALUES-constrained subquery from the cached
        *unconstrained* relation by filtering locally.

        Profitable whenever the full relation is already in memory: the
        bound variable is projected (SAPE binds on shared variables,
        which projections always keep), so selecting the rows whose
        value is in the binding set is exactly what the endpoint's
        VALUES join would return — for the cost of one local scan
        instead of ``len(blocks)`` round trips.
        """
        if self.result_cache is None or plan.variable is None or not plan.blocks:
            return None
        if plan.variable not in plan.subquery.effective_projection():
            return None
        cached = self._cache_lookup(plan.subquery, endpoint_id)
        if cached is None:
            return None
        wanted = {term for block in plan.blocks for term in block}
        index = cached.variables.index(plan.variable)
        rows = [row for row in cached.rows if row[index] in wanted]
        self.context.charge_join(len(cached))
        # One avoided request was counted by the lookup; the other
        # blocks this endpoint never saw are avoided too.
        extra = len(plan.blocks) - 1
        if extra > 0:
            self.context.metrics.requests_avoided += extra
        return ResultSet(cached.variables, rows)

    # ------------------------------------------------------------------
    # Partial-results settling
    # ------------------------------------------------------------------

    def _mark_degraded(self, label: str, endpoint_id: str) -> None:
        report = self.context.completeness
        if label not in report.subqueries_degraded:
            self.context.metrics.subqueries_degraded += 1
        report.note_degraded(label)
        self.context.trace_event(
            "subquery_degraded", label=label, endpoint=endpoint_id
        )

    def _settle_contribution(
        self, label: str, endpoint_id: str, future: ResponseFuture
    ) -> Optional[Tuple[str, ResultSet]]:
        """Resolve one endpoint's contribution to a subquery.

        Returns ``(answering_endpoint_id, value)``, or None when partial
        mode dropped the contribution.  A failed request is first
        rerouted to the endpoint's registered standby replica (same
        query text); only an unrecovered failure degrades the subquery.
        Outside partial mode this raises exactly like ``result()``.
        """
        settled = self._settle_contribution_timed(label, endpoint_id, future)
        if settled is None:
            return None
        return settled[0], settled[1]

    def _settle_contribution_timed(
        self, label: str, endpoint_id: str, future: ResponseFuture
    ) -> Optional[Tuple[str, ResultSet, ResponseFuture]]:
        """:meth:`_settle_contribution`, also returning the future that
        actually answered (the original or its replica reroute) — the
        streaming executor reads the answer's virtual finish time and
        cost off it to place partial batches on the timeline."""
        response, error = self.handler.settle(future)
        if error is None:
            return endpoint_id, response.value, future  # type: ignore[return-value]
        replica_id = self.handler.federation.replica_of(endpoint_id)
        if replica_id is not None:
            request = future.request
            retry = self.handler.submit(
                Request(replica_id, request.query_text, request.kind)
            )
            response, error = self.handler.settle(retry)
            if error is None:
                self.context.completeness.note_reroute(
                    endpoint_id, replica_id
                )
                return replica_id, response.value, retry  # type: ignore[return-value]
        self._mark_degraded(label, endpoint_id)
        return None

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
        relations: Dict[str, ResultSet] = dict(initial_relations or {})
        tracker = BindingTracker(self._binding_dictionary)
        for result in relations.values():
            tracker.add(result)

        non_delayed = [sq for sq in subqueries if not sq.delayed]
        delayed = [sq for sq in subqueries if sq.delayed]

        # Phase 1: concurrent evaluation of the non-delayed subqueries.
        # A (subquery, endpoint) pair whose relation is cached (same
        # canonical text, same store version) never reaches the handler.
        if non_delayed:
            requests: List[Tuple[Subquery, Request]] = []
            per_subquery: Dict[str, Dict[str, ResultSet]] = {}
            for subquery in non_delayed:
                text: Optional[str] = None
                for endpoint_id in subquery.sources:
                    hit = self._cache_lookup(subquery, endpoint_id)
                    if hit is not None:
                        per_subquery.setdefault(
                            subquery.label, {}
                        )[endpoint_id] = hit
                        continue
                    if text is None:
                        text = subquery.to_sparql()
                    requests.append(
                        (subquery, Request(endpoint_id, text, kind="SELECT"))
                    )
            futures = self.handler.submit_all([r for _, r in requests])
            for (subquery, request), future in zip(requests, futures):
                settled = self._settle_contribution(
                    subquery.label, request.endpoint_id, future
                )
                if settled is None:
                    continue
                answered_id, value = settled
                self._cache_store(subquery, answered_id, value)
                per_subquery.setdefault(subquery.label, {})[answered_id] = value
            for subquery in non_delayed:
                merged = self.combine_endpoint_results(
                    subquery, per_subquery.get(subquery.label, {})
                )
                relations[subquery.label] = merged
                subquery.actual_cardinality = len(merged)
                self.context.note_intermediate_rows(len(merged))
                self.context.trace_event(
                    "subquery_result", label=subquery.label,
                    rows=len(merged), mode="concurrent",
                )
                tracker.add(merged)

        # Phase 2: delayed subqueries, most selective first, bound joins.
        # Pipelined mode additionally packs variable-disjoint subqueries
        # into the same wave — neither can tighten the other's bindings.
        remaining = list(delayed)
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
                    self._mark_degraded(subquery.label, "(deadline)")
                self.context.metrics.deadline_exceeded += 1
                self.context.trace_event(
                    "deadline",
                    stage="sape",
                    skipped=[sq.label for sq in remaining],
                    expires_at=deadline.expires_at,
                )
                break
            if self.pipeline:
                wave = self._independent_wave(remaining, tracker.bindings)
            else:
                wave = [self._most_selective(remaining, tracker.bindings)]
            for subquery in wave:
                remaining.remove(subquery)
            for subquery, result in self._evaluate_delayed_wave(
                wave, tracker.bindings
            ):
                relations[subquery.label] = result
                subquery.actual_cardinality = len(result)
                self.context.note_intermediate_rows(len(result))
                self.context.trace_event(
                    "subquery_result", label=subquery.label,
                    rows=len(result), mode="delayed (bound)",
                )
                tracker.add(result)
        return relations

    # ------------------------------------------------------------------
    # Phase-2 helpers
    # ------------------------------------------------------------------

    def _refined_size(self, subquery: Subquery, bindings: Bindings) -> float:
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

    def _most_selective(
        self, subqueries: List[Subquery], bindings: Bindings
    ) -> Subquery:
        return min(subqueries, key=lambda sq: self._refined_size(sq, bindings))

    def _independent_wave(
        self, subqueries: List[Subquery], bindings: Bindings
    ) -> List[Subquery]:
        """Most selective subquery plus every later one sharing no
        variable with anything already picked (stable order, so the wave
        leader equals the barrier mode's pick)."""
        ranked = sorted(
            subqueries, key=lambda sq: self._refined_size(sq, bindings)
        )
        wave: List[Subquery] = []
        claimed: Set[Variable] = set()
        for subquery in ranked:
            if not wave or not (subquery.variables() & claimed):
                wave.append(subquery)
                claimed |= subquery.variables()
        return wave

    def _choose_bound_variable(
        self, subquery: Subquery, bindings: Bindings
    ) -> Optional[Variable]:
        candidates = [
            (len(values), variable)
            for variable, values in bindings.items()
            if variable in subquery.variables() and values
        ]
        if not candidates:
            return None
        return min(candidates)[1]

    def _plan_blocks(
        self, subquery: Subquery, variable: Variable, bindings: Bindings
    ) -> List[List[GroundTerm]]:
        """Decode boundary: tracked ID sets become term ``VALUES`` rows
        here, sorted by term sort key."""
        values = sorted(
            self._binding_dictionary.decode_many(bindings[variable]),
            key=lambda t: t.sort_key(),
        )
        return [
            values[i:i + self.values_block_size]
            for i in range(0, len(values), self.values_block_size)
        ]

    def _evaluate_delayed_wave(
        self, wave: Sequence[Subquery], bindings: Bindings
    ) -> List[Tuple[Subquery, ResultSet]]:
        """Evaluate one wave of delayed subqueries.

        Pipelined: every subquery's every VALUES block × endpoint is
        submitted before anything is awaited; source-refinement ASKs go
        out in the same window and only their dependent SELECTs wait for
        them.  Barrier mode falls back to the sequential per-block path.
        """
        if not self.pipeline:
            return [
                (subquery, self._evaluate_delayed(subquery, bindings))
                for subquery in wave
            ]
        plans: List[_DelayedPlan] = []
        deferred: List[_DelayedPlan] = []
        for subquery in wave:
            variable = self._choose_bound_variable(subquery, bindings)
            plan = _DelayedPlan(subquery, variable)
            plans.append(plan)
            if variable is None:
                # Nothing to bind against: evaluate unbound, concurrently.
                text = None
                for eid in plan.sources:
                    hit = self._cache_lookup(subquery, eid)
                    if hit is not None:
                        plan.cached.append((eid, hit))
                        continue
                    if text is None:
                        text = subquery.to_sparql()
                    plan.select_futures.append(
                        (eid, None,
                         self.handler.submit(Request(eid, text, "SELECT")))
                    )
                continue
            plan.blocks = self._plan_blocks(subquery, variable, bindings)
            if subquery.has_fully_unbound_pattern() and plan.blocks:
                plan.ask_futures = self._submit_refinement(
                    subquery, variable, plan.blocks[0], plan.sources
                )
                deferred.append(plan)
            else:
                self._submit_blocks(plan)
        # Refinement answers gate only their own subquery's SELECTs; the
        # rest of the wave is already in flight while we wait.
        for plan in deferred:
            refined = []
            for ask_future in plan.ask_futures:
                response, error = self.handler.settle(ask_future)
                # A failed refinement ASK excludes that endpoint — it
                # cannot answer the dependent SELECTs either (partial
                # mode; outside it settle re-raised).
                if error is None and bool(response.value):
                    refined.append(ask_future.request.endpoint_id)
            plan.sources = refined or plan.sources
            self._submit_blocks(plan)
        results: List[Tuple[Subquery, ResultSet]] = []
        for plan in plans:
            per_endpoint: Dict[str, List[ResultSet]] = {
                eid: [] for eid in plan.sources
            }
            for endpoint_id, cached_value in plan.cached:
                per_endpoint.setdefault(endpoint_id, []).append(cached_value)
            for endpoint_id, values_block, future in plan.select_futures:
                settled = self._settle_contribution(
                    plan.subquery.label, endpoint_id, future
                )
                if settled is None:
                    continue
                answered_id, value = settled
                self._cache_store(
                    plan.subquery, answered_id, value, values_block
                )
                per_endpoint.setdefault(answered_id, []).append(value)
            merged_per_endpoint = {
                eid: union_all(results_list, self.context)
                for eid, results_list in per_endpoint.items()
                if results_list
            }
            results.append((
                plan.subquery,
                self.combine_endpoint_results(plan.subquery, merged_per_endpoint),
            ))
        return results

    def _submit_blocks(self, plan: _DelayedPlan) -> None:
        """Dispatch every VALUES block × endpoint of one plan at once.

        Cache interaction, per endpoint: when the *unconstrained*
        relation is cached, the bound join runs as a local filter and no
        block is sent there at all; otherwise each (block, endpoint)
        pair is looked up under its VALUES-constrained key, so an
        exactly repeated bound workload also short-circuits.
        """
        live_sources: List[str] = []
        for endpoint_id in plan.sources:
            filtered = self._filter_cached_unconstrained(plan, endpoint_id)
            if filtered is not None:
                plan.cached.append((endpoint_id, filtered))
            else:
                live_sources.append(endpoint_id)
        for block in plan.blocks:
            values_block = ValuesBlock([plan.variable], [(v,) for v in block])
            text: Optional[str] = None
            for endpoint_id in live_sources:
                hit = self._cache_lookup(plan.subquery, endpoint_id, values_block)
                if hit is not None:
                    plan.cached.append((endpoint_id, hit))
                    continue
                if text is None:
                    text = plan.subquery.to_sparql(values=values_block)
                plan.select_futures.append((
                    endpoint_id,
                    values_block,
                    self.handler.submit(Request(endpoint_id, text, "SELECT")),
                ))

    def _submit_refinement(
        self,
        subquery: Subquery,
        variable: Variable,
        sample_block: List[GroundTerm],
        sources: Sequence[str],
    ) -> List[ResponseFuture]:
        """Dispatch the bound re-selection ASKs (Alg. 3 line 13)."""
        values_block = ValuesBlock([variable], [(v,) for v in sample_block])
        group = GroupPattern(
            elements=[values_block] + list(subquery.patterns),
            filters=list(subquery.filters),
        )
        text = serialize_query(Query(form="ASK", where=group))
        return [
            self.handler.submit(Request(eid, text, kind="ASK"))
            for eid in sources
        ]

    # -- barrier (sequential) phase-2 path, kept for ablation ------------

    def _evaluate_delayed(
        self, subquery: Subquery, bindings: Bindings
    ) -> ResultSet:
        variable = self._choose_bound_variable(subquery, bindings)
        if variable is None:
            # Nothing to bind against: evaluate unbound, concurrently.
            per_endpoint = self._fetch_unbound(subquery)
            return self.combine_endpoint_results(subquery, per_endpoint)
        blocks = self._plan_blocks(subquery, variable, bindings)
        sources = list(subquery.sources)
        if subquery.has_fully_unbound_pattern() and blocks:
            sources = self._refine_sources(subquery, variable, blocks[0], sources)
        # Same cache interaction as the pipelined path: a cached
        # unconstrained relation turns the bound join into a local
        # filter; otherwise per-block constrained keys may still hit.
        probe = _DelayedPlan(subquery, variable)
        probe.blocks = blocks
        probe.sources = sources
        per_endpoint: Dict[str, List[ResultSet]] = {eid: [] for eid in sources}
        live_sources: List[str] = []
        for endpoint_id in sources:
            filtered = self._filter_cached_unconstrained(probe, endpoint_id)
            if filtered is not None:
                per_endpoint[endpoint_id].append(filtered)
            else:
                live_sources.append(endpoint_id)
        for block in blocks:
            values_block = ValuesBlock([variable], [(v,) for v in block])
            text = None
            requests = []
            for eid in live_sources:
                hit = self._cache_lookup(subquery, eid, values_block)
                if hit is not None:
                    per_endpoint.setdefault(eid, []).append(hit)
                    continue
                if text is None:
                    text = subquery.to_sparql(values=values_block)
                requests.append(Request(eid, text, kind="SELECT"))
            for future in self.handler.submit_all(requests):
                settled = self._settle_contribution(
                    subquery.label, future.request.endpoint_id, future
                )
                if settled is None:
                    continue
                answered_id, value = settled
                self._cache_store(subquery, answered_id, value, values_block)
                per_endpoint.setdefault(answered_id, []).append(value)
        merged_per_endpoint = {
            eid: union_all(results, self.context)
            for eid, results in per_endpoint.items()
            if results
        }
        return self.combine_endpoint_results(subquery, merged_per_endpoint)

    def _fetch_unbound(self, subquery: Subquery) -> Dict[str, ResultSet]:
        per_endpoint: Dict[str, ResultSet] = {}
        text: Optional[str] = None
        requests = []
        for eid in subquery.sources:
            hit = self._cache_lookup(subquery, eid)
            if hit is not None:
                per_endpoint[eid] = hit
                continue
            if text is None:
                text = subquery.to_sparql()
            requests.append(Request(eid, text, kind="SELECT"))
        for future in self.handler.submit_all(requests):
            settled = self._settle_contribution(
                subquery.label, future.request.endpoint_id, future
            )
            if settled is not None:
                self._cache_store(subquery, settled[0], settled[1])
                per_endpoint[settled[0]] = settled[1]
        return per_endpoint

    def _refine_sources(
        self,
        subquery: Subquery,
        variable: Variable,
        sample_block: List[GroundTerm],
        sources: List[str],
    ) -> List[str]:
        """Re-run source selection with found bindings (Alg. 3 line 13).

        Cheap bound ASKs weed out endpoints that cannot contribute, which
        matters for ``?s ?p ?o``-style patterns relevant to everyone.
        """
        futures = self._submit_refinement(subquery, variable, sample_block, sources)
        refined = []
        for future in futures:
            response, error = self.handler.settle(future)
            if error is None and bool(response.value):
                refined.append(future.request.endpoint_id)
        return refined or sources

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
            return self._apply_late_filters(subquery, plain)
        header = plain.variables
        internal = [
            v for v in subquery.internal_join_variables() if v in header
        ]
        if not internal or not self._values_overlap(per_endpoint, internal):
            return self._apply_late_filters(subquery, plain)
        rejoined = self._projection_rejoin(subquery, plain, header)
        return self._apply_late_filters(subquery, rejoined)

    def _apply_late_filters(
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

