"""The Lusail engine: LADE decomposition + SAPE execution (Figure 3).

``LusailEngine.execute`` takes SPARQL text and runs the full pipeline:

1. *source selection* — cached ASK per triple pattern;
2. *query analysis* — GJV detection (check queries), locality-aware
   decomposition, cardinality probes, delay classification;
3. *query execution* — SAPE subquery scheduling, global DP-ordered hash
   joins, OPTIONAL / UNION / VALUES / global FILTER handling, and final
   solution modifiers.

Knobs reproduce the paper's ablations: ``enable_sape`` (Figure 14),
``delay_threshold`` (Figure 13), ``use_cache`` (Figure 12), and
``strict_checks`` (DESIGN.md).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..endpoint.errors import FederationError
from ..endpoint.metrics import CompletenessReport, ExecutionContext, Metrics
from ..federation.cache import ProbeCache
from ..federation.deadline import (
    DEFAULT_REQUEST_TIMEOUT_FRACTION,
    Deadline,
    LatencyTracker,
)
from ..federation.federation import Federation
from ..federation.request_handler import (
    DEFAULT_BREAKER_THRESHOLD,
    ElasticRequestHandler,
)
from ..federation.result_cache import ResultCache, subquery_cache_key
from ..federation.routing import ReplicaRouter
from ..federation.source_selection import SourceSelector
from ..sparql.ast import (
    BindElement,
    GroupPattern,
    MinusPattern,
    OptionalPattern,
    Query,
    SubSelect,
    UnionPattern,
    ValuesBlock,
)
from ..sparql.parser import parse_query
from ..sparql.results import ResultSet
from .cost import (
    CardinalityEstimator,
    classify_delayed,
    decomposition_cost,
)
from .decomposer import Decomposer, compute_projections
from .gjv import GJVDetector, GJVReport
from .joins import hash_join, left_outer_join, union_all
from .optimizer import Relation, plan_join_order
from .sape import SubqueryEvaluator
from .subquery import Subquery, assign_filters
from .trace import QueryTrace


@dataclass
class QueryResult:
    """Outcome of one federated query."""

    status: str  # "OK" | "PARTIAL" | "TO" | "OOM" | "RE"
    result: Optional[ResultSet]
    metrics: Metrics
    boolean: Optional[bool] = None
    error: Optional[str] = None
    decomposition: List[Subquery] = field(default_factory=list)
    #: execution narrative, populated when ``execute(..., trace=True)``
    trace: Optional[QueryTrace] = None
    #: which endpoints failed / subqueries degraded (partial-results
    #: mode); ``completeness.complete`` is True for a fault-free run
    completeness: Optional[CompletenessReport] = None

    @property
    def ok(self) -> bool:
        return self.status == "OK"

    @property
    def runtime_seconds(self) -> float:
        return self.metrics.virtual_seconds

    def __len__(self) -> int:
        return 0 if self.result is None else len(self.result)


class UnsupportedQueryError(FederationError):
    """Query uses a feature outside the engine's supported subset."""

    status = "RE"


class LusailEngine:
    """Federated SPARQL processing with locality-aware decomposition."""

    name = "Lusail"

    def __init__(
        self,
        federation: Federation,
        pool_size: int = 8,
        delay_threshold: str = "mu+sigma",
        enable_sape: bool = True,
        use_cache: bool = True,
        strict_checks: bool = False,
        values_block_size: int = 128,
        use_threads: bool = False,
        max_retries: int = 2,
        partial_results: bool = False,
        breaker: bool = True,
        hedge_threshold_seconds: Optional[float] = None,
        reset_request_windows: bool = True,
    ):
        self.federation = federation
        self.pool_size = pool_size
        self.delay_threshold = delay_threshold
        self.enable_sape = enable_sape
        self.use_cache = use_cache
        self.strict_checks = strict_checks
        self.values_block_size = values_block_size
        #: run request batches on a real thread pool (the paper's ERH);
        #: virtual-time accounting is identical either way
        self.use_threads = use_threads
        #: transient-failure retries per endpoint request
        self.max_retries = max_retries
        #: degrade (drop a down endpoint's contribution, annotate the
        #: result with a completeness report) instead of aborting with RE
        self.partial_results = partial_results
        #: per-endpoint circuit breaker: after enough consecutive
        #: exhausted failures, fail fast until a virtual-time cooldown
        #: (exponential, deterministically jittered) elapses.  Threshold
        #: and cooldown are the request handler's, not mirrored here.
        self.breaker = breaker
        #: race requests slower than this against registered replicas
        #: (tail-at-scale hedging); ``None`` leaves hedging off
        self.hedge_threshold_seconds = hedge_threshold_seconds
        #: per-endpoint latency quantiles, shared across this engine's
        #: queries so adaptive timeouts and hedging warm up once
        self.latency_tracker = LatencyTracker()
        #: engine-lifetime per-endpoint health rollup (breaker state,
        #: retry/failure counters) folded in as each query's request
        #: handler reports; the serving layer's /stats reads it through
        #: :meth:`endpoint_stats`
        self._endpoint_health: Dict[str, Dict[str, object]] = {}
        self._endpoint_health_lock = threading.Lock()
        #: ASK / GJV-check / COUNT-probe answers shared across this
        #: engine's queries (Fig. 12(b,c)); ``None`` with the cache knob
        #: off, and each analysis then remembers only its own probes
        self.ask_cache: Optional[ProbeCache] = ProbeCache() if use_cache else None
        self.check_cache: Optional[ProbeCache] = ProbeCache() if use_cache else None
        self.count_cache: Optional[ProbeCache] = ProbeCache() if use_cache else None
        #: subquery result cache shared across this engine's queries:
        #: (endpoint, store version, canonical subquery) -> relation;
        #: ``use_cache=False`` (the paper's Fig. 12 cache knob) disables
        #: it with the rest
        self.result_cache: Optional[ResultCache] = (
            ResultCache() if use_cache else None
        )
        #: routes declared replicated fragments to their least-loaded
        #: copy; engine-lifetime so round-robin rotation and latency
        #: history persist across queries
        self.replica_router = ReplicaRouter(self.latency_tracker)
        #: reset per-query endpoint rate-limit windows at query setup
        #: (the single-caller default).  The serving layer turns this
        #: off: with many queries in flight, one query's setup must not
        #: clear the windows the others are being measured against.
        self.reset_request_windows = reset_request_windows

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def execute(
        self,
        query_text: str,
        timeout_seconds: float = 3600.0,
        max_intermediate_rows: int = 5_000_000,
        real_time_limit: float = None,
        trace: bool = False,
        deadline_seconds: Optional[float] = None,
    ) -> QueryResult:
        """Run a federated query; never raises for per-query failures.

        With ``trace=True`` the result carries a :class:`QueryTrace` of
        the execution narrative (see :func:`repro.core.trace.render_trace`).

        ``deadline_seconds`` sets a hard virtual-time budget: the
        request handler clamps every request to what remains, analysis
        phases degrade conservatively once their slice runs dry, and
        out-of-time subqueries surface as ``PARTIAL`` through the
        completeness report — so a deadline run always implies
        partial-results semantics (a budget that aborted instead of
        degrading would be pointless).
        """
        context, query = self._prologue(
            query_text, timeout_seconds, max_intermediate_rows,
            real_time_limit, trace, deadline_seconds,
        )
        if context is None:
            return query
        return self._materialize(query, context)

    def execute_streaming(
        self,
        query_text: str,
        timeout_seconds: float = 3600.0,
        max_intermediate_rows: int = 5_000_000,
        real_time_limit: float = None,
        trace: bool = False,
        deadline_seconds: Optional[float] = None,
    ) -> "StreamingResult":
        """Run a federated query, yielding result batches as they form.

        Returns a :class:`repro.core.streaming.StreamingResult` whose
        ``stream`` delivers :class:`ResultSet` batches while endpoint
        responses are still in flight; the final :class:`QueryResult`
        (status, metrics, completeness) becomes available once the
        stream is exhausted — completeness is only known at end of
        stream.  Queries outside the streamable subset (aggregates,
        ORDER BY, LIMIT/OFFSET, OPTIONAL/UNION/...) run on the
        materialized executor and emit its result as a single batch, so
        callers never need two code paths.

        The consumer must drain or ``close()`` the stream: the run
        epilogue runs from the stream's own ``finally``.
        """
        from .streaming import StreamingResult, is_streamable, start_stream

        context, query = self._prologue(
            query_text, timeout_seconds, max_intermediate_rows,
            real_time_limit, trace, deadline_seconds,
        )
        if context is None:
            return StreamingResult.from_materialized(query)
        if is_streamable(query):
            return start_stream(self, query, context)
        return StreamingResult.from_materialized(
            self._materialize(query, context)
        )

    # ------------------------------------------------------------------
    # The run prologue and epilogue, shared by both executors
    # ------------------------------------------------------------------

    def _new_context(
        self,
        timeout_seconds: float = 3600.0,
        max_intermediate_rows: int = 5_000_000,
        real_time_limit: Optional[float] = None,
        trace: bool = False,
        deadline_seconds: Optional[float] = None,
    ) -> ExecutionContext:
        deadline = None
        partial_results = self.partial_results
        if deadline_seconds is not None:
            deadline = Deadline(deadline_seconds)
            partial_results = True
        context = self.federation.make_context(
            timeout_seconds=timeout_seconds,
            max_intermediate_rows=max_intermediate_rows,
            real_time_limit=real_time_limit,
            partial_results=partial_results,
            deadline=deadline,
            reset_windows=self.reset_request_windows,
        )
        if trace:
            context.trace = QueryTrace()
        return context

    def _prologue(self, query_text: str, *limits):
        """Context construction, then parse.

        Returns ``(context, query)`` for a query ready to run, or
        ``(None, result)`` for an unparseable one, which already ended
        here (reported through the epilogue like any other failure).
        Admission is not the engine's business: servers put a
        :class:`~repro.serving.sessions.QuerySessionManager` in front.
        """
        context = self._new_context(*limits)
        try:
            return context, parse_query(query_text)
        except Exception as error:
            try:
                return None, self._assemble(context, [], error=error)
            finally:
                self._epilogue(context)

    def _materialize(self, query: Query, context: ExecutionContext) -> QueryResult:
        """Run a parsed query to completion on the materialized
        executor."""
        decomposition: List[Subquery] = []
        try:
            result, boolean, decomposition = self._run(query, context)
            return self._assemble(context, decomposition, result, boolean)
        except Exception as error:
            return self._assemble(context, decomposition, error=error)
        finally:
            self._epilogue(context)

    def _assemble(
        self,
        context: ExecutionContext,
        decomposition: List[Subquery],
        result: Optional[ResultSet] = None,
        boolean: Optional[bool] = None,
        error=None,
        status: Optional[str] = None,
    ) -> QueryResult:
        """The one place a run becomes a :class:`QueryResult`.

        ``error`` is the exception that ended the run (its status and
        message are reported) or, with an explicit ``status``, a plain
        message; without either the run succeeded and closes its trace.
        """
        if isinstance(error, FederationError):
            status, error = error.status, str(error)
        elif isinstance(error, Exception):  # runtime exception -> "RE"
            status, error = "RE", f"{type(error).__name__}: {error}"
        elif status is None:
            status = "OK"
            if not context.completeness.complete:
                # The answer is real but degraded: some endpoint's
                # contribution is missing.  Never report that as OK.
                status = "PARTIAL"
                context.trace_event(
                    "completeness", **context.completeness.to_dict()
                )
            context.trace_event(
                "done",
                rows=0 if result is None else len(result),
                requests=context.metrics.requests,
            )
        return QueryResult(
            status=status,
            result=result,
            boolean=boolean,
            metrics=context.metrics,
            error=error,
            decomposition=decomposition,
            trace=context.trace,
            completeness=context.completeness,
        )

    def _epilogue(self, context: ExecutionContext) -> None:
        """What every run owes the engine on the way out, however it
        ended.  The assembled QueryResult holds this same Metrics
        object, so the per-endpoint latency view lands on every path."""
        context.metrics.endpoint_latency = self.latency_tracker.snapshot()
        self._fold_endpoint_health(context.metrics.endpoint_health)

    def _fold_endpoint_health(
        self, health: Dict[str, Dict[str, object]]
    ) -> None:
        """Fold one query's per-endpoint health view into the engine
        rollup: counters accumulate, breaker state reflects the latest
        query's view (each request handler owns its own breakers)."""
        if not health:
            return
        with self._endpoint_health_lock:
            for endpoint_id, entry in health.items():
                rollup = self._endpoint_health.setdefault(endpoint_id, {})
                rollup["breaker_state"] = entry.get("breaker_state", "closed")
                rollup["consecutive_failures"] = entry.get(
                    "consecutive_failures", 0
                )
                rollup.pop("open_until", None)
                if "open_until" in entry:
                    rollup["open_until"] = entry["open_until"]
                for key in (
                    "breaker_opens", "failed_attempts", "retries", "timeouts",
                ):
                    if key in entry:
                        rollup[key] = rollup.get(key, 0) + entry[key]

    def endpoint_stats(self) -> Dict[str, Dict[str, object]]:
        """The operator's unhealthy-member view: per-endpoint breaker
        state and failure counters rolled up across this engine's
        queries, plus connection-pool stats for remote (wall-clock)
        members that expose ``pool_stats()``."""
        with self._endpoint_health_lock:
            stats = {
                endpoint_id: dict(entry)
                for endpoint_id, entry in self._endpoint_health.items()
            }
        for endpoint in self.federation.endpoints():
            pool_stats = getattr(endpoint, "pool_stats", None)
            if callable(pool_stats):
                entry = stats.setdefault(
                    endpoint.endpoint_id, {"breaker_state": "closed"}
                )
                entry["pool"] = pool_stats()
        return stats

    def _make_handler(self, context: ExecutionContext) -> ElasticRequestHandler:
        # With a deadline, one request may spend at most a fixed
        # fraction of the query budget; the handler adapts that per
        # endpoint once the endpoint's latency history warms up.
        request_timeout = None
        if context.deadline is not None:
            request_timeout = (
                context.deadline.budget_seconds
                * DEFAULT_REQUEST_TIMEOUT_FRACTION
            )
        return ElasticRequestHandler(
            self.federation, context, self.pool_size,
            use_threads=self.use_threads, max_retries=self.max_retries,
            breaker_threshold=(
                DEFAULT_BREAKER_THRESHOLD if self.breaker else None
            ),
            latency_tracker=self.latency_tracker,
            request_timeout_seconds=request_timeout,
            hedge_threshold_seconds=self.hedge_threshold_seconds,
        )

    def _make_evaluator(
        self, handler: ElasticRequestHandler, context: ExecutionContext
    ) -> SubqueryEvaluator:
        return SubqueryEvaluator(
            handler, context, self.values_block_size, self.result_cache
        )

    def explain(self, query_text: str) -> List[Subquery]:
        """Decompose without executing; returns the subqueries."""
        context = self._new_context()
        query = parse_query(query_text)
        with self._make_handler(context) as handler:
            subqueries, _report = self._analyze(query.where, handler, context)
        return subqueries

    # ------------------------------------------------------------------
    # Pipeline
    # ------------------------------------------------------------------

    def _run(
        self, query: Query, context: ExecutionContext
    ) -> Tuple[Optional[ResultSet], Optional[bool], List[Subquery]]:
        if query.form == "ASK":
            required = query.where.all_variables()
        else:
            needed = set(query.projected_variables())
            needed |= set(query.group_by)
            for aggregate in query.aggregates:
                if aggregate.argument is not None:
                    needed.add(aggregate.argument)
            required = frozenset(needed)
        with self._make_handler(context) as handler:
            with context.phase("execution"):
                # phases inside _evaluate_group re-attribute analysis time
                result, decomposition = self._evaluate_group(
                    query.where, handler, context, required=required
                )
        if query.form == "ASK":
            return None, bool(len(result)), decomposition
        result = self._apply_modifiers(query, result)
        return result, None, decomposition

    def _apply_modifiers(self, query: Query, result: ResultSet) -> ResultSet:
        if query.aggregates or query.group_by:
            # Federated aggregation: group/aggregate the (distinct) joined
            # result at the federator.  Note the bag-vs-set caveat in
            # DESIGN.md: counts are over distinct solutions.
            from ..sparql.aggregation import aggregate_solutions

            solutions = list(result.distinct().bindings())
            projected = aggregate_solutions(
                query.group_by, query.aggregates, solutions
            )
        else:
            # Federated engines compare DISTINCT result sets (see DESIGN.md).
            projected = result.project(query.projected_variables()).distinct()
        if query.order_by:
            from ..sparql.evaluator import _order

            projected = _order(projected, query.order_by)
        if query.offset or query.limit is not None:
            # The paper: Lusail computes all results and truncates (C4).
            end = None if query.limit is None else query.offset + query.limit
            projected = ResultSet(
                projected.variables, projected.rows[query.offset:end]
            )
        return projected

    # ------------------------------------------------------------------
    # Group evaluation (recursive over OPTIONAL / UNION bodies)
    # ------------------------------------------------------------------

    def _analyze(
        self,
        group: GroupPattern,
        handler: ElasticRequestHandler,
        context: ExecutionContext,
    ) -> Tuple[List[Subquery], GJVReport]:
        """Phases 1+2 for the BGP part of a group."""
        patterns = group.triple_patterns()
        if not patterns:
            return [], GJVReport()
        with context.phase("source_selection"):
            selector = SourceSelector(
                handler, cache=self.ask_cache, router=self.replica_router
            )
            selection = selector.select_all(patterns)
        context.trace_event(
            "source_selection",
            selection={p.n3(): list(s) for p, s in selection.items()},
        )
        with context.phase("analysis"):
            detector = GJVDetector(
                handler,
                selection,
                check_cache=self.check_cache,
                strict_checks=self.strict_checks,
            )
            estimator = CardinalityEstimator(handler, self.count_cache)
            # Overlap the GJV check queries with the cost model's COUNT
            # probes in one scheduler window (Figure 3's ERH never runs
            # analysis as two back-to-back barriers).  Prefetch only
            # when the request-free rules already produced a global
            # variable: then the decomposer is guaranteed to need
            # estimates, so no probe is wasted.
            wave = detector.begin(patterns)
            if len(patterns) > 1 and wave.report.global_variables:
                estimator.prefetch(patterns, selection)
            report = detector.collect(wave)
            needs_estimates = bool(report.global_variables)

            def cost_of(subqueries: List[Subquery]) -> float:
                if not needs_estimates:
                    return float(len(subqueries))
                estimator.estimate_all(subqueries)
                return decomposition_cost(subqueries)

            decomposer = Decomposer(selection, report, cost_estimator=cost_of)
            subqueries = decomposer.decompose(patterns)
            estimator.drain()
        context.trace_event(
            "gjv",
            variables=sorted(v.name for v in report.global_variables),
            pairs=sorted(
                f"{a.predicate.n3()} | {b.predicate.n3()}"
                for pair in report.forbidden_pairs
                for a, b in [sorted(pair, key=lambda t: t.n3())]
            ),
            check_queries=report.check_queries_sent,
        )
        return subqueries, report

    def _prepare_group(
        self,
        group: GroupPattern,
        handler: ElasticRequestHandler,
        context: ExecutionContext,
        required: frozenset,
        values_blocks: Sequence[ValuesBlock] = (),
        optionals: Sequence[OptionalPattern] = (),
        unions: Sequence[UnionPattern] = (),
        subselects: Sequence[SubSelect] = (),
        binds: Sequence[BindElement] = (),
        minuses: Sequence[MinusPattern] = (),
    ) -> Tuple[List[Subquery], list, frozenset]:
        """Analysis through delay classification for one group, shared by
        both executors; returns (subqueries, global filters, needed
        variables).  ``required`` are the variables the caller needs in
        the output — subquery projections never drop them, nor anything
        a filter or one of the group's other elements mentions."""
        subqueries, _report = self._analyze(group, handler, context)
        # Filter placement (paper: decided during decomposition).
        with context.phase("analysis"):
            global_filters = assign_filters(subqueries, group.filters)
            global_filters = self._push_exists_filters(
                subqueries, global_filters, optionals, unions, minuses
            )
            needed = set(required)
            for f in group.filters:
                needed |= f.variables()
            for element in (*optionals, *minuses):
                needed |= element.group.all_variables()
            for element in unions:
                for branch in element.branches:
                    needed |= branch.all_variables()
            for element in values_blocks:
                needed |= set(element.variables)
            for element in subselects:
                needed |= set(element.query.projected_variables())
            for element in binds:
                needed |= element.expression.variables()
            compute_projections(subqueries, frozenset(needed))
            self._classify_subqueries(
                subqueries,
                values_blocks,
                len(unions) + len(subselects),
                handler,
            )
        context.trace_event(
            "decomposition",
            subqueries=[
                {
                    "label": sq.label,
                    "patterns": len(sq.patterns),
                    "sources": list(sq.sources),
                    "estimated": sq.estimated_cardinality,
                    "delayed": sq.delayed,
                    "cache_warm": sq.cache_warm,
                }
                for sq in subqueries
            ],
        )
        return subqueries, global_filters, frozenset(needed)

    def _evaluate_group(
        self,
        group: GroupPattern,
        handler: ElasticRequestHandler,
        context: ExecutionContext,
        hint_values: Optional[ValuesBlock] = None,
        required: frozenset = frozenset(),
    ) -> Tuple[ResultSet, List[Subquery]]:
        """Evaluate one group pattern; returns (result, decomposition).

        ``required`` are the variables the caller needs in the output
        (the query's projection, or the enclosing group's join needs)."""
        elements = list(group.elements)
        if hint_values is not None:
            elements = [hint_values] + elements
        values_blocks = [e for e in elements if isinstance(e, ValuesBlock)]
        optionals = [e for e in elements if isinstance(e, OptionalPattern)]
        unions = [e for e in elements if isinstance(e, UnionPattern)]
        subselects = [e for e in elements if isinstance(e, SubSelect)]
        binds = [e for e in elements if isinstance(e, BindElement)]
        minuses = [e for e in elements if isinstance(e, MinusPattern)]
        subqueries, global_filters, needed = self._prepare_group(
            group, handler, context, required,
            values_blocks, optionals, unions, subselects, binds, minuses,
        )

        # Initial relations: VALUES blocks and sub-SELECTs.
        initial: Dict[str, ResultSet] = {}
        for index, block in enumerate(values_blocks):
            initial[f"values{index}"] = ResultSet(block.variables, block.rows)
        for index, subselect in enumerate(subselects):
            inner, _ = self._evaluate_group(
                subselect.query.where, handler, context
            )
            inner = self._apply_modifiers(subselect.query, inner)
            initial[f"subselect{index}"] = inner

        relations = self._make_evaluator(handler, context).evaluate(
            subqueries, initial_relations=initial
        )

        # UNION blocks: evaluate each branch recursively, union them.
        for index, union in enumerate(unions):
            branch_results = []
            for branch in union.branches:
                branch_result, _ = self._evaluate_group(
                    branch, handler, context, required=needed
                )
                branch_results.append(branch_result)
            relations[f"union{index}"] = union_all(branch_results, context)

        result = self._global_join(relations, context)

        # BIND: computed columns over the joined result (an evaluation
        # error leaves the variable unbound, as in SPARQL).
        for bind in binds:
            result = self._apply_bind(bind, result, context)

        # MINUS: evaluate the right side as its own subplan, anti-join.
        for minus in minuses:
            minus_result, _ = self._evaluate_group(
                minus.group, handler, context, required=needed
            )
            result = self._apply_minus(result, minus_result, context)

        # OPTIONAL groups: evaluated with found bindings, then left-joined.
        for optional in optionals:
            optional_result = self._evaluate_optional(
                optional.group, result, handler, context, needed
            )
            result = left_outer_join(result, optional_result, context)

        # Group-level filters apply to the whole group result (after
        # OPTIONAL, so !BOUND-style filters see unbound cells).
        result = self._apply_global_filters(result, global_filters, context)
        return result, subqueries

    @staticmethod
    def _apply_bind(
        bind: BindElement, result: ResultSet, context: ExecutionContext
    ) -> ResultSet:
        from ..sparql.expressions import ExpressionError

        if bind.variable in result.variables:
            raise UnsupportedQueryError(
                f"BIND target {bind.variable.n3()} is already bound"
            )
        header = tuple(result.variables) + (bind.variable,)
        rows = []
        for row, binding in zip(result.rows, result.bindings()):
            try:
                value = bind.expression.evaluate(binding)
            except ExpressionError:
                value = None
            rows.append(tuple(row) + (value,))
        context.charge_join(len(result))
        return ResultSet(header, rows)

    @staticmethod
    def _apply_minus(
        result: ResultSet, minus_result: ResultSet, context: ExecutionContext
    ) -> ResultSet:
        """SPARQL MINUS over result tables: drop rows compatible with
        (and sharing at least one bound variable with) a right-side row."""
        shared = [v for v in minus_result.variables if v in result.variables]
        if not shared:
            return result
        # Fully bound right keys go into a hash set — a fully bound left
        # key is compatible with one iff the tuples are equal, so the
        # common case (no unbound cells anywhere) is a hash anti-join
        # instead of the former O(|left| × |right keys|) scan.  Right
        # keys with some unbound cells still need the per-cell
        # compatibility test; all-None right keys never overlap with
        # anything and are dropped outright.
        exact = set()
        partial = []
        for binding in minus_result.bindings():
            key = tuple(binding.get(v) for v in shared)
            if None not in key:
                exact.add(key)
            elif any(cell is not None for cell in key):
                partial.append(key)

        def compatible(left_key, right_key):
            overlap = False
            for left_cell, right_cell in zip(left_key, right_key):
                if left_cell is None or right_cell is None:
                    continue
                overlap = True
                if left_cell != right_cell:
                    return False
            return overlap

        kept = []
        indexes = [result.variables.index(v) for v in shared]
        for row in result.rows:
            key = tuple(row[i] for i in indexes)
            if all(cell is None for cell in key):
                kept.append(row)
                continue
            if None not in key:
                removed = key in exact or any(
                    compatible(key, right) for right in partial
                )
            else:
                removed = any(
                    compatible(key, right) for right in exact
                ) or any(compatible(key, right) for right in partial)
            if not removed:
                kept.append(row)
        context.charge_join(len(result) + len(minus_result))
        return ResultSet(result.variables, kept)

    def _classify_subqueries(
        self,
        subqueries: Sequence[Subquery],
        values_blocks: Sequence[ValuesBlock],
        extra_units: int,
        handler: ElasticRequestHandler,
    ) -> None:
        """Cache-warmth marking + delay classification, shared by the
        materialized and streaming paths.  Projections and filters must
        be final before this runs (the cache keys depend on them).

        ``extra_units`` counts sibling evaluation units beyond the
        subqueries and VALUES blocks (UNION branches, sub-SELECTs) so
        the "is there anything to join against?" test matches the
        materialized group evaluator exactly."""
        self._mark_cache_warm(subqueries)
        multiple_units = (
            len(subqueries) + extra_units + len(values_blocks)
        ) > 1
        if self.enable_sape and (
            multiple_units or any(sq.optional for sq in subqueries)
        ):
            estimator = CardinalityEstimator(handler, self.count_cache)
            estimator.estimate_all(subqueries)
            classify_delayed(subqueries, self.delay_threshold)
            self._delay_against_values(subqueries, values_blocks)
            # A warm subquery costs ~0 however large its estimate:
            # fetching it concurrently is a cache read, while keeping
            # it delayed would send real VALUES-bound requests.
            for subquery in subqueries:
                if subquery.cache_warm and not subquery.optional:
                    subquery.delayed = False
        elif not self.enable_sape:
            # LADE-only ablation (Figure 14): no probes, no delays —
            # every subquery is fetched concurrently.
            for subquery in subqueries:
                subquery.delayed = False

    def _mark_cache_warm(self, subqueries: Sequence[Subquery]) -> None:
        """Set ``cache_warm`` on subqueries the result cache fully covers
        (the unconstrained relation of every source is cached at the
        source's current store version).  Warmth probes use the same
        fragment-scoped identity as the cache itself, so a subquery whose
        relation was cached via *another* replica of the same fragment
        still counts as warm — the router's choice cannot make the cost
        model lie."""
        cache = self.result_cache
        for subquery in subqueries:
            if cache is None or not subquery.sources:
                subquery.cache_warm = False
                continue
            key = subquery_cache_key(subquery)
            subquery.cache_warm = all(
                cache.contains(*self.federation.cache_identity(endpoint_id), key)
                for endpoint_id in subquery.sources
            )

    @staticmethod
    def _delay_against_values(
        subqueries: Sequence[Subquery], values_blocks: Sequence[ValuesBlock]
    ) -> None:
        """A subquery sharing a variable with an explicit VALUES block is
        evaluated bound against it (delayed) — the block is typically tiny."""
        block_variables = {
            variable for block in values_blocks for variable in block.variables
        }
        if not block_variables:
            return
        for subquery in subqueries:
            if subquery.variables() & block_variables and subquery.is_safely_delayable:
                subquery.delayed = True

    def _evaluate_optional(
        self,
        group: GroupPattern,
        current: ResultSet,
        handler: ElasticRequestHandler,
        context: ExecutionContext,
        required: frozenset = frozenset(),
    ) -> ResultSet:
        """Evaluate an OPTIONAL body bound to the current bindings."""
        hint = None
        shared = [
            v for v in group.all_variables() if v in current.variables
        ]
        if shared and len(current):
            # Bind on the shared variable with the fewest distinct values.
            variable = min(shared, key=lambda v: len(current.distinct_values(v)))
            values = sorted(
                current.distinct_values(variable), key=lambda t: t.sort_key()
            )
            if values and len(values) <= 10 * self.values_block_size:
                hint = ValuesBlock([variable], [(v,) for v in values])
        result, _ = self._evaluate_group(
            group, handler, context, hint_values=hint, required=required
        )
        if hint is not None:
            # The hint column is internal; it already matches `current`.
            result = result.distinct()
        return result

    # ------------------------------------------------------------------
    # Global join
    # ------------------------------------------------------------------

    def _global_join(
        self, relations: Dict[str, ResultSet], context: ExecutionContext
    ) -> ResultSet:
        if not relations:
            return ResultSet((), [()])  # one empty solution (empty BGP)
        if len(relations) == 1:
            return next(iter(relations.values()))
        relation_objects = [
            Relation(name=name, size=len(result), variables=frozenset(result.variables))
            for name, result in relations.items()
        ]
        if self.enable_sape:
            plan = plan_join_order(
                relation_objects, threads=context.join_threads
            )
            order = plan.order
        else:
            order = [r.name for r in relation_objects]
        context.trace_event("join_order", order=list(order))
        result = relations[order[0]]
        for name in order[1:]:
            result = hash_join(result, relations[name], context)
        return result

    def _push_exists_filters(
        self, subqueries, filters, optionals, unions, minuses
    ):
        """Push EXISTS filters to the endpoint when that is exact.

        EXISTS needs the data, so the federator cannot evaluate it after
        the join, and evaluating it at one endpoint of several changes
        its meaning — ``NOT EXISTS`` would miss matches held elsewhere.
        But when the federation has exactly one member and the group
        decomposed into a single plain subquery, that endpoint sees every
        triple the inner pattern could match, so shipping the filter
        verbatim is exact.  This is what lets one Lusail engine serve
        another engine's Figure-5 locality probes (``SELECT ... FILTER
        NOT EXISTS {...}``) over the SPARQL protocol.
        """
        exists = [f for f in filters if f.contains_exists()]
        if not exists:
            return filters
        if len(self.federation) != 1 or optionals or unions or minuses:
            return filters
        outer_vars = set()
        for subquery in subqueries:
            if not subquery.optional:
                outer_vars |= subquery.variables()
        remaining = [f for f in filters if not f.contains_exists()]
        for filter_expr in exists:
            # The filter is row-local given its correlated (outer-bound)
            # variables, so evaluating it inside any subquery that binds
            # them equals evaluating it after the global join.
            correlated = filter_expr.variables() & outer_vars
            target = None
            for subquery in subqueries:
                if subquery.optional or len(subquery.sources) != 1:
                    continue
                if correlated <= subquery.variables():
                    target = subquery
                    break
            if target is None:
                remaining.append(filter_expr)
            else:
                target.filters.append(filter_expr)
        return remaining

    @staticmethod
    def _apply_global_filters(
        result: ResultSet, filters, context: ExecutionContext
    ) -> ResultSet:
        if not filters:
            return result
        plain = [f for f in filters if not f.contains_exists()]
        if len(plain) != len(filters):
            raise UnsupportedQueryError(
                "FILTER EXISTS across subqueries is not supported at the "
                "global level"
            )
        kept = []
        for row, binding in zip(result.rows, result.bindings()):
            if all(f.effective_boolean(binding) for f in plain):
                kept.append(row)
        context.charge_join(len(result))
        return ResultSet(result.variables, kept)
