"""Streaming adaptive execution: batches flow, joins pipeline, plans bend.

The materialized path (``LusailEngine.execute``) gathers every subquery
relation before the first global join runs, so the time to the first
answer row equals the makespan.  This module replaces that barrier with
a tuple-routing pipeline in the style of ADQUEX:

* endpoint responses are sliced into binding batches placed on the
  virtual timeline at the instants the (already deterministic) lane
  simulation says their bytes would arrive — a response that occupies a
  lane from ``start`` to ``finish`` delivers batch *k* of *n* at
  ``start + (finish-start)·(k+1)/n``;
* a left-deep chain of :class:`~repro.core.joins.SymmetricHashJoin`
  operators joins batches the moment they arrive, from either side;
* delayed subqueries fire VALUES-block requests from *partial* upstream
  binding sets as soon as a block's worth of fresh values exists
  (``incremental`` mode), deduplicating against the PR 7 result cache so
  no binding is requested twice; subqueries whose bindings intersect
  several relations keep the sound barrier semantics (``barrier`` mode);
* a runtime monitor compares each relation's observed cardinality with
  the optimizer's estimate at its end-of-stream and re-ranks the
  not-yet-started suffix of the join chain when they diverge by ≥4x
  (traced as a ``replan`` event);
* the first final-answer batch stamps ``Metrics.ttfb_seconds`` — the
  engine's time-to-first-result — while completeness is only known at
  end of stream and travels in the final :class:`QueryResult`.

Everything runs on the orchestrating thread: events live in one min-heap
keyed ``(virtual time, submission sequence)``, so threaded and simulated
handler modes produce identical batch orders, identical results, and
identical clocks.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..endpoint.metrics import ExecutionContext
from ..federation.request_handler import ElasticRequestHandler
from ..rdf.term import GroundTerm, Variable
from ..sparql.ast import Query, TriplePattern, ValuesBlock
from ..sparql.results import ResultSet, ResultStream
from .engine import LusailEngine, QueryResult
from .joins import SymmetricHashJoin, union_all
from .optimizer import Relation, plan_join_order
from .sape import (
    BindingTracker,
    Contribution,
    SubqueryDispatcher,
    SubqueryEvaluator,
)
from .subquery import Subquery

#: observed/estimated cardinality ratio beyond which the runtime monitor
#: re-ranks the unstarted part of the join chain
REPLAN_DIVERGENCE = 4.0
#: target rows per streamed binding batch (both the granularity at which
#: endpoint responses are sliced onto the virtual timeline and the
#: granularity of emitted result batches)
STREAM_BATCH_ROWS = 256


def is_streamable(query: Query) -> bool:
    """Whether the streaming executor covers this query shape.

    Streaming targets the hot interactive path: conjunctive SELECTs
    (plus VALUES blocks and filters) with no solution modifiers that
    need the whole result before the first row can be emitted.
    Everything else falls back to the materialized engine — callers get
    the same answer either way, just without early batches.
    """
    if query.form != "SELECT":
        return False
    if query.aggregates or query.group_by or query.order_by:
        return False
    if query.limit is not None or query.offset:
        return False
    if not query.where.triple_patterns():
        return False
    return all(
        isinstance(element, (TriplePattern, ValuesBlock))
        for element in query.where.elements
    )


class StreamingResult:
    """Handle for one :meth:`LusailEngine.execute_streaming` call.

    ``stream`` yields :class:`ResultSet` batches over the query's
    projection header; ``result`` (the full :class:`QueryResult` with
    status, metrics and completeness) is populated once the stream is
    exhausted or aborted.  ``streamed`` is False when the engine fell
    back to the materialized path — the stream then carries the finished
    result as one batch and ``result`` is available immediately.
    """

    __slots__ = ("stream", "result", "streamed", "truncated")

    def __init__(self) -> None:
        self.stream: Optional[ResultStream] = None
        self.result: Optional[QueryResult] = None
        self.streamed = True
        #: the stream ended without delivering the complete answer
        #: (engine error mid-stream, or the consumer closed early)
        self.truncated = False

    @property
    def variables(self) -> Tuple[Variable, ...]:
        return () if self.stream is None else self.stream.variables

    @property
    def ttfb_seconds(self) -> Optional[float]:
        return None if self.result is None else self.result.metrics.ttfb_seconds

    def batches(self):
        return self.stream.batches()

    def drain(self) -> QueryResult:
        """Consume the rest of the stream; return the final result."""
        self.stream.materialize()
        return self.result

    def close(self) -> None:
        if self.stream is not None:
            self.stream.close()

    @classmethod
    def from_materialized(cls, result: QueryResult) -> "StreamingResult":
        """Wrap a finished materialized result as a one-batch stream."""
        holder = cls()
        holder.streamed = False
        holder.result = result
        if result.metrics is not None and result.metrics.ttfb_seconds == 0.0:
            # A materialized run emits everything at the end: its
            # time-to-first-result is its makespan.
            result.metrics.ttfb_seconds = result.metrics.virtual_seconds
        variables = () if result.result is None else result.result.variables

        def one_batch():
            if result.result is not None and result.result.rows:
                yield result.result

        holder.stream = ResultStream(variables, one_batch())
        return holder


def start_stream(
    engine: LusailEngine, query: Query, context: ExecutionContext
) -> StreamingResult:
    """Build the lazy streaming run for a parsed, streamable query.

    Nothing executes until the stream is first iterated; the producer's
    ``finally`` runs the engine's epilogue (metrics rollups), so
    consumers must drain or ``close()`` the stream.
    """
    holder = StreamingResult()
    run = _StreamingRun(engine, query, context)
    out_header = run.out_header

    def produce():
        def truncated(**failure) -> None:
            holder.truncated = True
            holder.result = engine._assemble(
                context, run.decomposition, **failure
            )
            context.trace_event(
                "stream_truncated",
                reason=holder.result.error,
                status=holder.result.status,
                emitted=len(run.final_rows),
            )

        try:
            with engine._make_handler(context) as handler:
                with context.phase("execution"):
                    yield from run.execute(handler)
            holder.result = engine._assemble(
                context, run.decomposition,
                ResultSet(out_header, run.final_rows),
            )
        except GeneratorExit:
            truncated(
                result=ResultSet(out_header, run.final_rows),
                error="stream closed before completion",
                status="PARTIAL",
            )
            raise
        except Exception as error:
            truncated(error=error)
        finally:
            if context.metrics.ttfb_seconds == 0.0:
                # No row ever streamed (empty or failed result): the
                # first-result time degenerates to the makespan.
                context.metrics.ttfb_seconds = context.metrics.virtual_seconds
            engine._epilogue(context)

    holder.stream = ResultStream(out_header, produce())
    return holder


class _RelationState:
    """One relation's place in the streaming pipeline."""

    __slots__ = (
        "name", "subquery", "header", "initial", "planned_size",
        "per_endpoint", "seen", "routed_rows", "eos_done", "observed",
        "last_arrival", "mode", "dispatched", "skipped", "variable",
        "driver", "driver_index", "sharing", "seen_values",
        "pending_values", "live_sources", "local_cached", "block_count",
    )

    def __init__(
        self,
        name: str,
        header: Tuple[Variable, ...],
        subquery: Optional[Subquery] = None,
        initial: Optional[ResultSet] = None,
    ):
        self.name = name
        self.subquery = subquery
        self.header = header
        self.initial = initial
        #: optimizer estimate (None = no estimate, replanning skips it)
        self.planned_size: Optional[int] = None
        #: endpoint id -> raw (pre-late-filter) arrived pieces
        self.per_endpoint: Dict[str, List[ResultSet]] = {}
        #: canonical rows already routed into the join chain
        self.seen: Set[tuple] = set()
        self.routed_rows = 0
        self.eos_done = False
        self.observed = 0
        self.last_arrival = 0.0
        #: None (not delayed) | "unbound" | "incremental" | "barrier"
        self.mode: Optional[str] = None
        self.dispatched = False
        #: deadline-skipped: end-of-stream runs no combine/tracker work
        self.skipped = False
        # -- incremental-mode dispatch state --------------------------
        self.variable: Optional[Variable] = None
        self.driver: Optional[str] = None
        self.driver_index: Optional[int] = None
        #: names of other relations sharing a variable (barrier waitset)
        self.sharing: List[str] = []
        self.seen_values: Set[GroundTerm] = set()
        self.pending_values: List[GroundTerm] = []
        self.live_sources: Optional[List[str]] = None
        self.local_cached: Dict[str, ResultSet] = {}
        self.block_count = 0

    @property
    def delayed(self) -> bool:
        return self.mode is not None


class _StreamingRun:
    """One streaming execution over an analyzed, classified query."""

    def __init__(
        self, engine: LusailEngine, query: Query, context: ExecutionContext
    ):
        self.engine = engine
        self.query = query
        self.context = context
        self.metrics = context.metrics
        self.out_header = tuple(query.projected_variables())
        self.decomposition: List[Subquery] = []
        self.global_filters = []
        self.evaluator: Optional[SubqueryEvaluator] = None
        self.dispatcher: Optional[SubqueryDispatcher] = None
        self.tracker: Optional[BindingTracker] = None
        self.states: List[_RelationState] = []
        self.by_name: Dict[str, _RelationState] = {}
        #: join-chain order and its left-deep operator stages; stage i
        #: joins the accumulation over order[:i+1] with order[i+1]
        self.order: List[str] = []
        self.positions: Dict[str, int] = {}
        self.stages: List[SymmetricHashJoin] = []
        #: driver state name -> incremental states it feeds
        self.incremental_deps: Dict[str, List[_RelationState]] = {}
        #: (time, seq, kind, state, endpoint_id, batch) min-heap
        self.heap: list = []
        self._seq = 0
        #: the stream clock: max event arrival time seen, plus the
        #: virtual cost of every join/filter on the emit path — the time
        #: at which the current output batch exists
        self.emit_clock = 0.0
        self.final_seen: Set[tuple] = set()
        self.final_rows: List[tuple] = []
        self._first_emitted = False
        self._deadline_counted = False

    # ------------------------------------------------------------------
    # Setup: analysis, classification, chain construction
    # ------------------------------------------------------------------

    def execute(self, handler: ElasticRequestHandler):
        """Generator of final-answer batches over the query header."""
        engine, context = self.engine, self.context
        group = self.query.where
        values_blocks = [
            e for e in group.elements if isinstance(e, ValuesBlock)
        ]
        subqueries, self.global_filters, _ = engine._prepare_group(
            group, handler, context, frozenset(self.out_header), values_blocks
        )
        self.decomposition = subqueries
        self.evaluator = engine._make_evaluator(handler, context)
        self.dispatcher = self.evaluator.dispatcher
        self.tracker = BindingTracker()
        self._build_states(subqueries, values_blocks)
        self._classify_modes()
        self._plan_chain()
        t0 = self.metrics.virtual_seconds
        self.emit_clock = t0
        self._seed_initial(t0)
        self._launch_phase_one(t0)
        self._barrier_sweep(t0)
        yield from self._event_loop()

    def _build_states(
        self,
        subqueries: Sequence[Subquery],
        values_blocks: Sequence[ValuesBlock],
    ) -> None:
        for index, block in enumerate(values_blocks):
            rs = ResultSet(block.variables, block.rows)
            state = _RelationState(
                f"values{index}", tuple(rs.variables), initial=rs
            )
            state.planned_size = len(rs)
            self.states.append(state)
            self.tracker.add(rs)
        for sq in subqueries:
            state = _RelationState(
                sq.label, tuple(sq.effective_projection()), subquery=sq
            )
            if sq.estimated_cardinality is not None:
                state.planned_size = int(sq.estimated_cardinality)
            self.states.append(state)
        self.by_name = {state.name: state for state in self.states}

    def _classify_modes(self) -> None:
        """Pick each delayed subquery's dispatch mode.

        ``incremental`` requires an unambiguous binding plan that cannot
        change as relations arrive: exactly one bindable variable fed by
        exactly one non-delayed driver, and no fully-unbound pattern
        (those need the bound-ASK source refinement, which wants a
        representative sample).  Everything else keeps barrier
        semantics: wait until every contributing relation has finished,
        then bind against the tracker intersections exactly like the
        materialized SAPE wave."""
        for state in self.states:
            sq = state.subquery
            if sq is None or not sq.delayed:
                continue
            shared: Dict[Variable, List[_RelationState]] = {}
            for other in self.states:
                if other is state:
                    continue
                for variable in sq.variables():
                    if variable in other.header:
                        shared.setdefault(variable, []).append(other)
            state.sharing = sorted(
                {o.name for drivers in shared.values() for o in drivers}
            )
            if not shared:
                state.mode = "unbound"
                continue
            if len(shared) == 1 and not sq.has_fully_unbound_pattern():
                variable, drivers = next(iter(shared.items()))
                if len(drivers) == 1 and not drivers[0].delayed:
                    state.mode = "incremental"
                    state.variable = variable
                    state.driver = drivers[0].name
                    state.driver_index = drivers[0].header.index(variable)
                    self.incremental_deps.setdefault(
                        drivers[0].name, []
                    ).append(state)
                    continue
            state.mode = "barrier"

    def _plan_chain(self) -> None:
        # Delayed relations enter the plan with their estimate bounded
        # by the smallest driver (a VALUES-bound fetch cannot return
        # more driver values than the driver holds) — the materialized
        # path plans with actual sizes it already has; we plan with the
        # best static guess and let the replan monitor fix the rest.
        planned: Dict[str, int] = {}
        for state in self.states:
            size = state.planned_size if state.planned_size is not None else 1
            planned[state.name] = max(0, size)
        for state in self.states:
            if not state.delayed or not state.sharing:
                continue
            bound = min(planned[name] for name in state.sharing)
            planned[state.name] = min(planned[state.name], max(1, bound))
        if self.engine.enable_sape and len(self.states) > 1:
            relations = [
                Relation(
                    name=state.name,
                    size=planned[state.name],
                    variables=frozenset(state.header),
                )
                for state in self.states
            ]
            plan = plan_join_order(relations, threads=self.context.join_threads)
            self.order = list(plan.order)
        else:
            self.order = [state.name for state in self.states]
        self.context.trace_event("join_order", order=list(self.order))
        self.positions = {name: i for i, name in enumerate(self.order)}
        self.stages = []
        header = self.by_name[self.order[0]].header
        for name in self.order[1:]:
            stage = SymmetricHashJoin(
                header, self.by_name[name].header, self.context
            )
            self.stages.append(stage)
            header = stage.header

    # ------------------------------------------------------------------
    # Event heap
    # ------------------------------------------------------------------

    def _push_event(
        self,
        time: float,
        kind: str,
        state: _RelationState,
        endpoint_id: Optional[str],
        batch: Optional[ResultSet],
    ) -> None:
        heapq.heappush(
            self.heap, (time, self._seq, kind, state, endpoint_id, batch)
        )
        self._seq += 1

    def _arrive(
        self, state: _RelationState, contribution: Contribution, floor: float
    ) -> None:
        """Put one requested contribution on the timeline (settling it
        first when it is still in flight); dropped ones leave no event."""
        if contribution.future is None:
            self._schedule_cached(
                state, contribution.endpoint_id, contribution.value, floor
            )
        elif self.dispatcher.settle(contribution):
            self._schedule_response(state, contribution, floor)

    def _schedule_response(
        self, state: _RelationState, contribution: Contribution, floor: float
    ) -> None:
        """Slice one settled response into timed batch-arrival events.

        The lane simulator already fixed when the response occupies its
        endpoint lane (``finish - cost_seconds .. finish``); batches are
        spread uniformly across that window, modelling chunked delivery
        of the same bytes the materialized path receives all at once.
        """
        value, endpoint_id = contribution.value, contribution.endpoint_id
        finish = max(floor, contribution.future.finish)
        rows = value.rows
        if not rows:
            self._push_event(finish, "batch", state, endpoint_id, value)
            state.last_arrival = max(state.last_arrival, finish)
            return
        start = max(floor, finish - contribution.future.cost_seconds)
        span = max(finish - start, 0.0)
        size = STREAM_BATCH_ROWS
        count = (len(rows) + size - 1) // size
        for k in range(count):
            chunk = ResultSet(
                value.variables, rows[k * size:(k + 1) * size]
            )
            at = start + span * (k + 1) / count
            self._push_event(at, "batch", state, endpoint_id, chunk)
        state.last_arrival = max(state.last_arrival, finish)

    def _schedule_cached(
        self,
        state: _RelationState,
        endpoint_id: str,
        value: ResultSet,
        at: float,
    ) -> None:
        """A cache-served contribution arrives whole, instantly."""
        self._push_event(at, "batch", state, endpoint_id, value)
        state.last_arrival = max(state.last_arrival, at)

    # ------------------------------------------------------------------
    # Phase 1: non-delayed (and unbound-delayed) subqueries
    # ------------------------------------------------------------------

    def _seed_initial(self, t0: float) -> None:
        for state in self.states:
            if state.initial is None:
                continue
            self._push_event(t0, "batch", state, None, state.initial)
            state.last_arrival = t0
            self._push_event(t0, "eos", state, None, None)

    def _launch_phase_one(self, t0: float) -> None:
        """Submit every concurrent subquery; timeline its contributions.

        Mirrors the materialized phase 1 request-for-request (same cache
        lookups in the same order, one submission wave) so lane
        placement — and therefore the makespan — matches; the only
        difference is that each response additionally produces timed
        batch events."""
        wave: List[Tuple[_RelationState, Contribution]] = []
        launched: List[_RelationState] = []
        for state in self.states:
            sq = state.subquery
            if sq is None or (sq.delayed and state.mode != "unbound"):
                continue
            launched.append(state)
            wave.extend(
                (state, contribution)
                for contribution in self.dispatcher.request(sq, sq.sources)
            )
        # Cache-served contributions arrive first; the requested ones
        # settle behind them in submission order.
        for served in (True, False):
            for state, contribution in wave:
                if (contribution.future is None) is served:
                    self._arrive(state, contribution, t0)
        for state in launched:
            self._push_event(
                max(state.last_arrival, t0), "eos", state, None, None
            )

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------

    def _event_loop(self):
        while True:
            if not self.heap:
                pending = [
                    s for s in self.states
                    if s.mode == "barrier" and not s.dispatched
                ]
                if not pending:
                    break
                # A cluster of mutually-dependent barrier subqueries has
                # no external trigger left: force the most selective one
                # (the others will chain off its end-of-stream).
                forced = self._most_selective(pending)
                self._dispatch_barrier_state(forced, self.emit_clock)
                continue
            time, _seq, kind, state, endpoint_id, batch = heapq.heappop(
                self.heap
            )
            self.emit_clock = max(self.emit_clock, time)
            if kind == "batch":
                emitted = self._on_batch(state, endpoint_id, batch, time)
            else:
                emitted = self._on_eos(state, time)
            if emitted is not None:
                yield emitted

    def _on_batch(
        self,
        state: _RelationState,
        endpoint_id: Optional[str],
        batch: ResultSet,
        time: float,
    ) -> Optional[ResultSet]:
        if state.subquery is not None and endpoint_id is not None:
            state.per_endpoint.setdefault(endpoint_id, []).append(batch)
        before = self.metrics.virtual_seconds
        if state.subquery is not None:
            batch = self.evaluator.apply_late_filters(state.subquery, batch)
        return self._route_fresh(state, batch, before, time)

    def _route_fresh(
        self,
        state: _RelationState,
        result: ResultSet,
        before: float,
        time: float,
    ) -> Optional[ResultSet]:
        """Route the rows of ``result`` this relation has not routed yet;
        the virtual cost spent since ``before`` lands on the emit clock."""
        fresh = []
        for row in result.project(state.header).rows:
            if row not in state.seen:
                state.seen.add(row)
                fresh.append(row)
        emitted = self._route_and_emit(state, fresh)
        self.emit_clock += max(0.0, self.metrics.virtual_seconds - before)
        emitted = self._stamp_first(emitted)
        for dependent in self.incremental_deps.get(state.name, ()):
            self._feed_incremental(dependent, fresh, time)
        return emitted

    def _on_eos(
        self, state: _RelationState, time: float
    ) -> Optional[ResultSet]:
        if state.eos_done:
            return None
        state.eos_done = True
        emitted = None
        if state.subquery is not None and not state.skipped:
            merged = {
                endpoint_id: union_all(pieces, self.context)
                for endpoint_id, pieces in state.per_endpoint.items()
                if pieces
            }
            combined = self.evaluator.combine_endpoint_results(
                state.subquery, merged
            )
            state.observed = len(combined)
            state.subquery.actual_cardinality = len(combined)
            self.context.note_intermediate_rows(len(combined))
            self.context.trace_event(
                "subquery_result", label=state.subquery.label,
                rows=len(combined), mode="streamed",
            )
            self.tracker.add(combined)
            # The §3.3 cross-endpoint re-join (and any row the per-batch
            # path saw only post-filter) can add rows beyond the union
            # of streamed batches: route the difference now.
            emitted = self._route_fresh(
                state, combined, self.metrics.virtual_seconds, time
            )
        elif state.initial is not None:
            state.observed = len(state.initial)
        for dependent in self.incremental_deps.get(state.name, ()):
            self._flush_incremental(dependent, time)
        self._maybe_replan(state)
        self._barrier_sweep(time)
        return emitted

    def _route_and_emit(
        self, state: _RelationState, rows: List[tuple]
    ) -> Optional[ResultSet]:
        if not rows:
            return None
        self.metrics.batches_routed += 1
        state.routed_rows += len(rows)
        position = self.positions[state.name]
        if not self.stages:
            out = rows
        else:
            if position == 0:
                out = self.stages[0].push_left(rows)
                next_stage = 1
            else:
                out = self.stages[position - 1].push_right(rows)
                next_stage = position
            for index in range(next_stage, len(self.stages)):
                if not out:
                    break
                out = self.stages[index].push_left(out)
        if not out:
            return None
        header = (
            self.stages[-1].header
            if self.stages
            else self.by_name[self.order[0]].header
        )
        result = ResultSet(header, out)
        result = LusailEngine._apply_global_filters(
            result, self.global_filters, self.context
        )
        projected = result.project(self.out_header)
        fresh = []
        for row in projected.rows:
            if row not in self.final_seen:
                self.final_seen.add(row)
                fresh.append(row)
        if not fresh:
            return None
        self.final_rows.extend(fresh)
        return ResultSet(self.out_header, fresh)

    def _stamp_first(
        self, emitted: Optional[ResultSet]
    ) -> Optional[ResultSet]:
        if emitted is not None and not self._first_emitted:
            self._first_emitted = True
            self.metrics.ttfb_seconds = self.emit_clock
            self.context.trace_event(
                "stream_first_result",
                rows=len(emitted),
                ttfb_seconds=self.emit_clock,
            )
        return emitted

    # ------------------------------------------------------------------
    # Incremental VALUES dispatch
    # ------------------------------------------------------------------

    def _feed_incremental(
        self,
        state: _RelationState,
        driver_rows: List[tuple],
        time: float,
    ) -> None:
        """Collect fresh driver values; dispatch full blocks eagerly."""
        if state.dispatched:
            return
        index = state.driver_index
        for row in driver_rows:
            value = row[index]
            if value is None or value in state.seen_values:
                continue
            state.seen_values.add(value)
            state.pending_values.append(value)
        block_size = self.dispatcher.values_block_size
        while len(state.pending_values) >= block_size:
            block = state.pending_values[:block_size]
            del state.pending_values[:block_size]
            self._dispatch_values_block(state, block, time, partial=True)

    def _flush_incremental(self, state: _RelationState, time: float) -> None:
        """Driver end-of-stream: send the short tail block, close out."""
        if state.dispatched:
            return
        state.dispatched = True
        block_size = self.dispatcher.values_block_size
        while state.pending_values:
            block = state.pending_values[:block_size]
            del state.pending_values[:block_size]
            self._dispatch_values_block(state, block, time, partial=False)
        self._push_event(
            max(time, state.last_arrival), "eos", state, None, None
        )

    def _dispatch_values_block(
        self,
        state: _RelationState,
        block: List[GroundTerm],
        at: float,
        partial: bool,
    ) -> None:
        sq = state.subquery
        if self._deadline_expired():
            self._note_deadline_skip(sq.label)
            return
        dispatcher = self.dispatcher
        block = sorted(block, key=lambda term: term.sort_key())
        if state.live_sources is None:
            # First dispatch: endpoints whose unconstrained relation is
            # cached are served by local filtering for every block.
            state.local_cached, state.live_sources = dispatcher.split_cached(
                sq, state.variable, sq.sources
            )
        state.block_count += 1
        if partial:
            self.metrics.values_dispatches_partial += 1
        wanted = set(block)
        for endpoint_id, cached in state.local_cached.items():
            self._schedule_cached(
                state,
                endpoint_id,
                dispatcher.filter_cached(
                    cached, state.variable, wanted, int(state.block_count > 1)
                ),
                at,
            )
        values_block = ValuesBlock([state.variable], [(v,) for v in block])
        for contribution in dispatcher.request(
            sq, state.live_sources, values_block, at
        ):
            self._arrive(state, contribution, at)

    # ------------------------------------------------------------------
    # Barrier dispatch (the materialized SAPE wave, event-triggered)
    # ------------------------------------------------------------------

    def _barrier_sweep(self, time: float) -> None:
        while True:
            ready = []
            for state in self.states:
                if state.mode != "barrier" or state.dispatched:
                    continue
                blockers = [
                    self.by_name[name]
                    for name in state.sharing
                    if not (
                        self.by_name[name].mode == "barrier"
                        and not self.by_name[name].dispatched
                    )
                ]
                if all(blocker.eos_done for blocker in blockers):
                    ready.append(state)
            if not ready:
                return
            chosen = self._most_selective(ready)
            self._dispatch_barrier_state(chosen, time)

    def _most_selective(self, states: List[_RelationState]) -> _RelationState:
        return min(
            states,
            key=lambda s: (
                self.evaluator.refined_size(s.subquery, self.tracker.bindings),
                s.name,
            ),
        )

    def _dispatch_barrier_state(
        self, state: _RelationState, at: float
    ) -> None:
        sq = state.subquery
        state.dispatched = True
        if self._deadline_expired():
            self._note_deadline_skip(sq.label)
            state.skipped = True
            self._push_event(at, "eos", state, None, None)
            return
        plan = self.dispatcher.plan(sq, self.tracker.bindings)
        if plan.asks:
            self.dispatcher.refine(plan)
            # dependent SELECTs wait for their refinement ASKs
            at = max([at] + [ask.finish for ask in plan.asks])
        for contribution in self.dispatcher.request_plan(plan, at):
            self._arrive(state, contribution, at)
        self._push_event(
            max(at, state.last_arrival), "eos", state, None, None
        )

    # ------------------------------------------------------------------
    # Mid-flight replanning
    # ------------------------------------------------------------------

    def _maybe_replan(self, state: _RelationState) -> None:
        """Re-rank the unstarted join-chain suffix after a divergent
        relation finishes.

        Only stages that no batch has flowed through may move: a stage
        whose right input routed zero rows holds no outputs anywhere
        downstream, so rebuilding it (and everything after it) loses
        nothing.  The accumulated left input of the first rebuilt stage
        is carried over without re-charging the join clock."""
        if state.planned_size is None or len(self.order) < 3:
            return
        observed = max(1, state.observed)
        planned = max(1, state.planned_size)
        if max(observed / planned, planned / observed) < REPLAN_DIVERGENCE:
            return
        cut = len(self.order)
        while cut > 1 and self.by_name[self.order[cut - 1]].routed_rows == 0:
            cut -= 1
        suffix = self.order[cut:]
        if len(suffix) < 2 or all(
            self.by_name[name].eos_done for name in suffix
        ):
            return

        def best_size(name: str) -> float:
            relation = self.by_name[name]
            if relation.eos_done:
                return float(relation.observed)
            if relation.subquery is not None and relation.delayed:
                return self.evaluator.refined_size(
                    relation.subquery, self.tracker.bindings
                )
            return float(
                relation.planned_size if relation.planned_size is not None else 1
            )

        reordered = sorted(
            suffix, key=lambda name: (best_size(name), suffix.index(name))
        )
        if reordered == suffix:
            return
        self.metrics.replans += 1
        self.context.trace_event(
            "replan",
            relation=state.name,
            observed=state.observed,
            estimated=state.planned_size,
            old_suffix=list(suffix),
            new_suffix=list(reordered),
        )
        carried = self.stages[cut - 1].left_rows
        self.order = self.order[:cut] + reordered
        self.positions = {name: i for i, name in enumerate(self.order)}
        header = (
            self.stages[cut - 2].header
            if cut >= 2
            else self.by_name[self.order[0]].header
        )
        for stage_index in range(cut - 1, len(self.order) - 1):
            right = self.by_name[self.order[stage_index + 1]]
            stage = SymmetricHashJoin(header, right.header, self.context)
            self.stages[stage_index] = stage
            header = stage.header
        if carried:
            self.stages[cut - 1].preload_left(carried)

    # ------------------------------------------------------------------
    # Deadlines
    # ------------------------------------------------------------------

    def _deadline_expired(self) -> bool:
        deadline = self.context.deadline
        return deadline is not None and deadline.expired(
            self.metrics.virtual_seconds
        )

    def _note_deadline_skip(self, label: str) -> None:
        self.dispatcher.mark_degraded(label, "(deadline)")
        if not self._deadline_counted:
            self._deadline_counted = True
            self.metrics.deadline_exceeded += 1
            self.context.trace_event(
                "deadline",
                stage="streaming",
                skipped=[label],
                expires_at=self.context.deadline.expires_at,
            )
