"""FedX reimplementation (Schwarte et al., ISWC 2011).

FedX is the index-free baseline the paper compares against.  Its
strategy, reproduced here:

- ASK-based source selection per triple pattern, cached;
- *exclusive groups*: patterns relevant to exactly the same single
  endpoint are shipped together — this is the only schema-driven pushdown
  FedX has, and it never fires when endpoints share a schema (the LUBM
  experiments);
- variable-counting heuristic for the join order;
- left-deep *bound joins*: the current intermediate solutions are sent in
  blocks (default 15 bindings, FedX's default) attached to the next
  pattern, one block after another — the request flood the paper's
  Figures 9 and 11 measure;
- LIMIT short-circuits block processing once enough rows exist (the
  behaviour that lets FedX win C4 in Figure 10).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..endpoint.metrics import ExecutionContext
from ..federation.cache import ProbeCache
from ..federation.federation import Federation
from ..federation.request_handler import ElasticRequestHandler, Request
from ..federation.source_selection import SourceSelector
from ..rdf.term import Variable
from ..rdf.triple import TriplePattern
from ..sparql.ast import (
    GroupPattern,
    OptionalPattern,
    Query,
    SubSelect,
    UnionPattern,
    ValuesBlock,
)
from ..sparql.expressions import Expression
from ..sparql.results import ResultSet
from ..sparql.serializer import serialize_query
from ..core.joins import hash_join, left_outer_join, union_all
from .common import BaseFederatedEngine


class _Step:
    """One execution unit: a pattern or an exclusive group."""

    def __init__(
        self,
        patterns: List[TriplePattern],
        sources: Tuple[str, ...],
        filters: Optional[List[Expression]] = None,
    ):
        self.patterns = patterns
        self.sources = sources
        self.filters = filters or []

    def variables(self) -> frozenset:
        out: Set[Variable] = set()
        for pattern in self.patterns:
            out |= pattern.variables()
        return frozenset(out)

    def free_variable_count(self, bound: frozenset) -> int:
        return len(self.variables() - bound)

    def to_query_text(
        self,
        values: Optional[ValuesBlock] = None,
        projection: Optional[Sequence[Variable]] = None,
    ) -> str:
        elements: List = []
        if values is not None:
            elements.append(values)
        elements.extend(self.patterns)
        group = GroupPattern(elements=elements, filters=list(self.filters))
        header = (
            sorted(self.variables(), key=lambda v: v.name)
            if projection is None
            else list(projection)
        )
        query = Query(form="SELECT", where=group, select_variables=header)
        return serialize_query(query)


class FedXEngine(BaseFederatedEngine):
    """The index-free bound-join baseline."""

    name = "FedX"

    def __init__(
        self,
        federation: Federation,
        pool_size: int = 8,
        bind_join_block_size: int = 15,
        use_cache: bool = True,
    ):
        super().__init__(federation, pool_size)
        self.bind_join_block_size = max(1, bind_join_block_size)
        self.ask_cache: Optional[ProbeCache] = ProbeCache() if use_cache else None

    # ------------------------------------------------------------------

    def _run(self, query: Query, context: ExecutionContext):
        with ElasticRequestHandler(
            self.federation, context, self.pool_size
        ) as handler:
            result = self._evaluate_group(query.where, handler, context, query.limit)
        if query.form == "ASK":
            return None, bool(len(result))
        return self.finalize(query, result), None

    # ------------------------------------------------------------------

    def source_selection(
        self,
        patterns: Sequence[TriplePattern],
        handler: ElasticRequestHandler,
        context: ExecutionContext,
    ) -> Dict[TriplePattern, Tuple[str, ...]]:
        with context.phase("source_selection"):
            selector = SourceSelector(handler, cache=self.ask_cache)
            return selector.select_all(patterns)

    def _build_steps(
        self,
        patterns: Sequence[TriplePattern],
        selection: Dict[TriplePattern, Tuple[str, ...]],
        filters: Sequence[Expression],
    ) -> Tuple[List[_Step], List[Expression]]:
        """Form exclusive groups; returns (steps, unplaced filters)."""
        exclusive: Dict[str, List[TriplePattern]] = {}
        steps: List[_Step] = []
        for pattern in patterns:
            sources = selection.get(pattern, ())
            if len(sources) == 1:
                exclusive.setdefault(sources[0], []).append(pattern)
            else:
                steps.append(_Step([pattern], sources))
        for endpoint_id, group in exclusive.items():
            steps.append(_Step(group, (endpoint_id,)))
        remaining: List[Expression] = []
        for filter_expr in filters:
            if filter_expr.contains_exists():
                remaining.append(filter_expr)
                continue
            target = None
            for step in steps:
                if filter_expr.variables() and filter_expr.variables() <= step.variables():
                    target = step
                    break
            if target is not None:
                target.filters.append(filter_expr)
            else:
                remaining.append(filter_expr)
        return steps, remaining

    # ------------------------------------------------------------------

    def _evaluate_group(
        self,
        group: GroupPattern,
        handler: ElasticRequestHandler,
        context: ExecutionContext,
        limit_hint: Optional[int] = None,
    ) -> ResultSet:
        patterns = group.triple_patterns()
        selection = self.source_selection(patterns, handler, context)
        steps, global_filters = self._build_steps(patterns, selection, group.filters)

        omega: Optional[ResultSet] = None
        values_blocks = [e for e in group.elements if isinstance(e, ValuesBlock)]
        for block in values_blocks:
            values_result = ResultSet(block.variables, block.rows)
            omega = values_result if omega is None else hash_join(
                omega, values_result, context
            )

        with context.phase("execution"):
            pending = list(steps)
            bound_vars: frozenset = (
                frozenset(omega.variables) if omega is not None else frozenset()
            )
            while pending:
                step = self._next_step(pending, bound_vars)
                pending.remove(step)
                omega = self._execute_step(
                    step, omega, handler, context,
                    limit_hint if not pending else None,
                )
                bound_vars = frozenset(omega.variables)
                context.note_intermediate_rows(len(omega))

            if omega is None:
                omega = ResultSet((), [()])

            for element in group.elements:
                if isinstance(element, UnionPattern):
                    branches = [
                        self._evaluate_group(branch, handler, context)
                        for branch in element.branches
                    ]
                    union_result = union_all(branches, context)
                    omega = hash_join(omega, union_result, context)
                elif isinstance(element, SubSelect):
                    inner = self._evaluate_group(
                        element.query.where, handler, context
                    )
                    inner = self.finalize(element.query, inner)
                    omega = hash_join(omega, inner, context)

            for element in group.elements:
                if isinstance(element, OptionalPattern):
                    optional_result = self._evaluate_group(
                        element.group, handler, context
                    )
                    omega = left_outer_join(omega, optional_result, context)

            if global_filters:
                plain = [f for f in global_filters if not f.contains_exists()]
                if len(plain) != len(global_filters):
                    raise NotImplementedError(
                        "FedX does not support cross-source FILTER EXISTS"
                    )
                kept = [
                    row
                    for row, binding in zip(omega.rows, omega.bindings())
                    if all(f.effective_boolean(binding) for f in plain)
                ]
                omega = ResultSet(omega.variables, kept)
        return omega

    @staticmethod
    def _next_step(pending: List[_Step], bound: frozenset) -> _Step:
        """FedX's variable-counting heuristic: prefer the step with the
        fewest free variables, breaking ties toward exclusive groups.

        Once bindings exist, only steps joinable with them qualify —
        FedX's executor has no cross-product operator, so a query whose
        BGP falls apart into disjoint subgraphs (the paper's C5/B5/B6)
        is rejected, exactly as the paper reports for the baselines.
        """
        if bound:
            joinable = [step for step in pending if step.variables() & bound]
            if not joinable:
                raise NotImplementedError(
                    "query requires a cross-product join between disjoint "
                    "subgraphs, which FedX-style executors do not support"
                )
            pending = joinable
        return min(
            pending,
            key=lambda step: (
                step.free_variable_count(bound),
                -len(step.patterns),
                len(step.sources),
            ),
        )

    # ------------------------------------------------------------------

    def _execute_step(
        self,
        step: _Step,
        omega: Optional[ResultSet],
        handler: ElasticRequestHandler,
        context: ExecutionContext,
        limit_hint: Optional[int],
    ) -> ResultSet:
        shared: List[Variable] = []
        if omega is not None:
            shared = [v for v in step.variables() if v in omega.variables]
        if omega is None or not shared or not len(omega):
            fetched = self._fetch_step(step, handler)
            if omega is None:
                return fetched
            return hash_join(omega, fetched, context)
        return self._bound_join(step, omega, shared, handler, context, limit_hint)

    def _fetch_step(
        self, step: _Step, handler: ElasticRequestHandler
    ) -> ResultSet:
        text = step.to_query_text()
        requests = [Request(eid, text, kind="SELECT") for eid in step.sources]
        responses = handler.execute_batch(requests)
        fetched = union_all(
            [r.value for r in responses], handler.context  # type: ignore[misc]
        )
        if not fetched.variables:
            # no relevant source: empty relation, but keep the header so
            # later join steps still see these variables as bound
            return ResultSet(sorted(step.variables(), key=lambda v: v.name))
        return fetched

    def _bound_join(
        self,
        step: _Step,
        omega: ResultSet,
        shared: List[Variable],
        handler: ElasticRequestHandler,
        context: ExecutionContext,
        limit_hint: Optional[int],
    ) -> ResultSet:
        """FedX's block nested-loop bound join.

        Distinct shared-variable tuples are grouped into blocks; each
        block is attached to the step as a VALUES clause and sent to every
        relevant endpoint.  Blocks are processed sequentially — each block
        round trip is paid in full, which is exactly the behaviour that
        blows up on high-latency links."""
        keys = sorted(
            {tuple(row) for row in omega.project(shared).rows},
            key=lambda row: tuple(
                ("",) if cell is None else cell.sort_key() for cell in row
            ),
        )
        block_size = self.bind_join_block_size
        collected: List[ResultSet] = []
        produced = 0
        for start in range(0, len(keys), block_size):
            block_rows = keys[start:start + block_size]
            values = ValuesBlock(list(shared), [tuple(row) for row in block_rows])
            text = step.to_query_text(values=values)
            requests = [Request(eid, text, kind="SELECT") for eid in step.sources]
            responses = handler.execute_batch(requests)
            block_result = union_all(
                [r.value for r in responses], context  # type: ignore[misc]
            )
            collected.append(block_result)
            produced += len(block_result)
            if limit_hint is not None and produced >= limit_hint:
                break
        fetched = union_all(collected, context)
        if not fetched.variables:
            fetched = ResultSet(sorted(step.variables(), key=lambda v: v.name))
        return hash_join(omega, fetched, context)
