"""Query evaluation over a :class:`~repro.store.TripleStore`.

This is the engine that runs *inside* every simulated SPARQL endpoint.
It implements standard bottom-up evaluation, plus OPTIONAL (left join),
UNION, VALUES, FILTER with correlated (NOT) EXISTS, sub-SELECT,
DISTINCT, ORDER BY, LIMIT/OFFSET, and COUNT aggregation.

BGPs run through a **compile-once, batch-at-a-time pipeline**
(:mod:`repro.sparql.plan`): pattern order is planned once per BGP from
static store statistics and cached across requests, then whole vectors
of solutions are pushed through each pattern **ID-native**
(:meth:`BGPPlan.execute_ids` + :meth:`TripleStore.extend_id_rows`):
solutions travel as slot-mapped lists of interned integer IDs and decode
back to terms only at the BGP boundary — or, for pure-BGP SELECTs, not
until the final :class:`ResultSet` cells are materialized.  Evaluation
only ever *looks up* terms in the store's dictionary; a constant or an
outer binding the data never mentions yields no solutions and interns
nothing.  (The seed's per-binding recursive joiner lives on in
``tests/reference.py`` as the differential oracle.)
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from ..rdf.term import Variable
from ..rdf.triple import TriplePattern
from ..store.triplestore import TripleStore
from .ast import (
    BindElement,
    GroupPattern,
    MinusPattern,
    OptionalPattern,
    Query,
    SubSelect,
    UnionPattern,
    ValuesBlock,
)
from .expressions import ExpressionError
from .expressions import Binding, Expression
from .plan import DEFAULT_BATCH_SIZE, BGPPlan, EvaluatorStats, build_plan

_EMPTY_BINDING: Binding = {}

#: cached plans per evaluator (keyed by patterns + initially-bound vars)
_PLAN_CACHE_LIMIT = 4096


class Evaluator:
    """Evaluates parsed queries against one store."""

    def __init__(self, store: TripleStore, batch_size: int = DEFAULT_BATCH_SIZE):
        self.store = store
        self.batch_size = max(1, batch_size)
        self.stats = EvaluatorStats()
        self._timer_depth = 0
        self._plan_cache: Dict[
            Tuple[Tuple[TriplePattern, ...], FrozenSet[Variable]], BGPPlan
        ] = {}

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------

    @contextmanager
    def _timed(self):
        """Charge the outermost entry point's wall time to
        ``stats.exec_seconds`` (sub-SELECTs re-enter :meth:`select`)."""
        self._timer_depth += 1
        started = time.perf_counter()
        try:
            yield
        finally:
            self._timer_depth -= 1
            if not self._timer_depth:
                self.stats.exec_seconds += time.perf_counter() - started

    def ask(self, query: Query) -> bool:
        with self._timed():
            for _ in self._evaluate_group(query.where, _EMPTY_BINDING):
                return True
            return False

    def select(self, query: Query):
        """Evaluate a SELECT query; returns a :class:`ResultSet`."""
        from .results import ResultSet

        with self._timed():
            result = self._select_bgp_fast(query)
            if result is None:
                solutions = list(self._evaluate_group(query.where, _EMPTY_BINDING))
        if result is None:
            if query.aggregates or query.group_by:
                return self._aggregate(query, solutions)
            header = query.projected_variables()
            result = ResultSet.from_bindings(header, solutions)
        if query.distinct:
            result = result.distinct()
        if query.order_by:
            result = _order(result, query.order_by)
        if query.offset or query.limit is not None:
            end = None if query.limit is None else query.offset + query.limit
            result = type(result)(result.variables, result.rows[query.offset:end])
        return result

    def _select_bgp_fast(self, query: Query):
        """Pure-BGP SELECT: skip binding dicts.

        When the WHERE clause is nothing but triple patterns (no filters,
        aggregates, or grouping), ID rows coming off the planned pipeline
        are projected by slot index and decoded straight into the
        :class:`ResultSet` cells — no per-solution dict is ever built.
        Returns ``None`` when the query doesn't qualify (the general path
        takes over); DISTINCT/ORDER/LIMIT still apply in the caller.
        """
        from .results import ResultSet

        if query.aggregates or query.group_by or query.where.filters:
            return None
        patterns = query.where.elements
        if not patterns or not all(
            isinstance(e, TriplePattern) for e in patterns
        ):
            return None
        plan = self.plan_for(list(patterns), frozenset())
        header = query.projected_variables()
        slot_of = {v: i for i, v in enumerate(plan.slot_vars)}
        projection = [slot_of.get(v) for v in header]
        decode = self.store.dictionary.decode
        id_rows = list(
            plan.execute_ids(
                self.store, [[None] * len(plan.slot_vars)], self.stats, self.batch_size
            )
        )
        decode_started = time.perf_counter()
        rows = [
            tuple(
                [
                    None if s is None or row[s] is None else decode(row[s])
                    for s in projection
                ]
            )
            for row in id_rows
        ]
        self.stats.decode_seconds += time.perf_counter() - decode_started
        return ResultSet(tuple(header), rows)

    def evaluate(self, query: Query):
        """Dispatch on the query form; ASK returns bool."""
        if query.form == "ASK":
            return self.ask(query)
        return self.select(query)

    def exists(self, group: GroupPattern, binding: Binding) -> bool:
        """Correlated EXISTS check used by filter expressions."""
        for _ in self._evaluate_group(group, binding):
            return True
        return False

    # ------------------------------------------------------------------
    # Group evaluation
    # ------------------------------------------------------------------

    def _evaluate_group(self, group: GroupPattern, initial: Binding) -> Iterator[Binding]:
        # Evaluate the BGP portion with a planned join order, then fold in
        # the non-BGP elements in their syntactic order.
        patterns = [e for e in group.elements if isinstance(e, TriplePattern)]
        others = [e for e in group.elements if not isinstance(e, TriplePattern)]
        solutions: Iterable[Binding] = (
            self._evaluate_bgp(patterns, initial) if patterns else [dict(initial)]
        )
        for element in others:
            solutions = self._apply_element(element, solutions)
        if group.filters:
            solutions = self._apply_filters(group.filters, solutions)
        return iter(solutions) if not isinstance(solutions, Iterator) else solutions

    def _apply_element(self, element, solutions: Iterable[Binding]) -> Iterator[Binding]:
        if isinstance(element, OptionalPattern):
            return self._left_join(element.group, solutions)
        if isinstance(element, UnionPattern):
            return self._union(element.branches, solutions)
        if isinstance(element, ValuesBlock):
            return self._values_join(element, solutions)
        if isinstance(element, SubSelect):
            return self._subselect_join(element.query, solutions)
        if isinstance(element, BindElement):
            return self._bind(element, solutions)
        if isinstance(element, MinusPattern):
            return self._minus(element.group, solutions)
        raise TypeError(f"unexpected group element {element!r}")

    def _bind(
        self, element: BindElement, solutions: Iterable[Binding]
    ) -> Iterator[Binding]:
        """``BIND(expr AS ?v)``: an evaluation error leaves ?v unbound."""
        for binding in solutions:
            extended = dict(binding)
            try:
                extended[element.variable] = element.expression.evaluate(
                    binding, self
                )
            except ExpressionError:
                pass
            yield extended

    def _minus(
        self, group: GroupPattern, solutions: Iterable[Binding]
    ) -> Iterator[Binding]:
        """SPARQL MINUS: drop solutions compatible with (and sharing at
        least one variable with) a solution of the right-hand group.

        Hash-based: right-hand solutions are grouped by their bound
        variable set (*domain*), and for each (domain, shared-variables)
        combination the right side is indexed once by its projection on
        the shared variables — membership per left solution is then a few
        dictionary probes instead of an O(left × right) scan.
        """
        right = list(self._evaluate_group(group, _EMPTY_BINDING))
        if not right:
            yield from solutions
            return
        by_domain: Dict[FrozenSet[Variable], List[Binding]] = {}
        for other in right:
            by_domain.setdefault(frozenset(other), []).append(other)
        key_sets: Dict[Tuple[FrozenSet[Variable], Tuple[Variable, ...]], set] = {}
        for binding in solutions:
            left_vars = frozenset(binding)
            removed = False
            for domain, rights in by_domain.items():
                shared = domain & left_vars
                if not shared:
                    continue
                shared_key = tuple(sorted(shared, key=lambda v: v.name))
                keys = key_sets.get((domain, shared_key))
                if keys is None:
                    keys = {
                        tuple(other[v] for v in shared_key) for other in rights
                    }
                    key_sets[(domain, shared_key)] = keys
                if tuple(binding[v] for v in shared_key) in keys:
                    removed = True
                    break
            if not removed:
                yield binding

    def _apply_filters(
        self, filters: List[Expression], solutions: Iterable[Binding]
    ) -> Iterator[Binding]:
        for binding in solutions:
            if all(f.effective_boolean(binding, self) for f in filters):
                yield binding

    # ------------------------------------------------------------------
    # Basic graph patterns
    # ------------------------------------------------------------------

    def _evaluate_bgp(
        self, patterns: List[TriplePattern], initial: Binding
    ) -> Iterator[Binding]:
        """Solutions of ``patterns`` compatible with the group's initial
        binding, each as a fresh dict extending it.

        The values ``initial`` gives to variables the patterns mention
        are looked up into the plan's bound slots (a value the store has
        never seen cannot match anything); rows come back ID-native and
        only the slots the BGP itself bound are decoded, overlaid on a
        copy of ``initial`` — so variables merely passing through are
        never encoded at all.  Pure-BGP SELECTs skip even this via
        :meth:`_select_bgp_fast`.
        """
        plan = self.plan_for(patterns, frozenset(initial))
        dictionary = self.store.dictionary
        slot_vars = plan.slot_vars
        row: List[Optional[int]] = [None] * len(slot_vars)
        for slot in range(plan.bound_slots):
            tid = dictionary.lookup(initial[slot_vars[slot]])
            if tid is None:
                return
            row[slot] = tid
        decode = dictionary.decode
        free = list(enumerate(slot_vars))[plan.bound_slots:]
        for ids in plan.execute_ids(self.store, [row], self.stats, self.batch_size):
            binding = dict(initial)
            for slot, variable in free:
                binding[variable] = decode(ids[slot])
            yield binding

    def plan_for(
        self,
        patterns: List[TriplePattern],
        bound: FrozenSet[Variable] = frozenset(),
    ) -> BGPPlan:
        """Fetch (or build and cache) the plan for one BGP.

        Plans depend only on the pattern list, the variables bound on
        entry, and the store's statistics; the store's mutation counter
        invalidates stale cache entries.
        """
        key = (tuple(patterns), bound)
        plan = self._plan_cache.get(key)
        if plan is not None and plan.store_version == self.store.version:
            self.stats.plan_cache_hits += 1
            return plan
        plan = build_plan(self.store, patterns, bound, self.stats)
        if len(self._plan_cache) >= _PLAN_CACHE_LIMIT:
            self._plan_cache.clear()
        self._plan_cache[key] = plan
        return plan

    # ------------------------------------------------------------------
    # Non-BGP operators
    # ------------------------------------------------------------------

    def _left_join(
        self, group: GroupPattern, solutions: Iterable[Binding]
    ) -> Iterator[Binding]:
        for binding in solutions:
            matched = False
            for extended in self._evaluate_group(group, binding):
                matched = True
                yield extended
            if not matched:
                yield binding

    def _union(
        self, branches: List[GroupPattern], solutions: Iterable[Binding]
    ) -> Iterator[Binding]:
        for binding in solutions:
            for branch in branches:
                yield from self._evaluate_group(branch, binding)

    def _values_join(
        self, values: ValuesBlock, solutions: Iterable[Binding]
    ) -> Iterator[Binding]:
        for binding in solutions:
            for row in values.rows:
                extended = dict(binding)
                compatible = True
                for variable, cell in zip(values.variables, row):
                    if cell is None:
                        continue
                    bound = extended.get(variable)
                    if bound is None:
                        extended[variable] = cell
                    elif bound != cell:
                        compatible = False
                        break
                if compatible:
                    yield extended

    def _subselect_join(self, query: Query, solutions: Iterable[Binding]) -> Iterator[Binding]:
        inner = self.select(query)
        inner_rows = list(inner.bindings())
        for binding in solutions:
            for inner_binding in inner_rows:
                extended = dict(binding)
                compatible = True
                for variable, value in inner_binding.items():
                    bound = extended.get(variable)
                    if bound is None:
                        extended[variable] = value
                    elif bound != value:
                        compatible = False
                        break
                if compatible:
                    yield extended

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def _aggregate(self, query: Query, solutions: List[Binding]):
        from .aggregation import aggregate_solutions

        group_by = list(query.group_by)
        extra = set(query.select_variables or []) - set(group_by)
        if extra:
            raise NotImplementedError(
                "non-aggregated SELECT variables require GROUP BY"
            )
        return aggregate_solutions(group_by, query.aggregates, solutions)


def _order(result, order_by: List[Tuple[Variable, bool]]):
    from .results import ResultSet

    indexes = []
    for variable, ascending in order_by:
        try:
            indexes.append((result.variables.index(variable), ascending))
        except ValueError:
            continue

    def key(row):
        parts = []
        for index, ascending in indexes:
            cell = row[index]
            cell_key = ("",) if cell is None else cell.sort_key()
            parts.append(cell_key)
        return tuple(parts)

    rows = list(result.rows)
    # Python's sort is stable: apply keys from the last to the first so
    # descending components can be sorted independently.
    for index, ascending in reversed(indexes):
        rows.sort(
            key=lambda row: ("",) if row[index] is None else row[index].sort_key(),
            reverse=not ascending,
        )
    return ResultSet(result.variables, rows)
