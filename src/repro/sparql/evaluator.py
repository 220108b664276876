"""Query evaluation over a :class:`~repro.store.TripleStore`.

This is the engine that runs *inside* every simulated SPARQL endpoint.
It implements standard bottom-up evaluation, plus OPTIONAL (left join),
UNION, VALUES, FILTER with correlated (NOT) EXISTS, sub-SELECT,
DISTINCT, ORDER BY, LIMIT/OFFSET, and COUNT aggregation.

BGPs run through a **compile-once, batch-at-a-time pipeline**
(:mod:`repro.sparql.plan`): pattern order is planned once per BGP from
static store statistics and cached across requests, then lists of
solutions are pushed through each pattern **ID-native**
(:meth:`BGPPlan.execute_ids` + :meth:`TripleStore.extend_id_rows`) as
slot-mapped lists of interned integer IDs.  Evaluation only ever
*looks up* terms in the store's dictionary; a constant or an outer
binding the data never mentions yields no solutions and interns nothing.

**The ID path** (:meth:`Evaluator._id_batches`) takes every SELECT,
sub-SELECT and ASK whose WHERE is triple patterns under nothing but
top-level ``FILTER (NOT) EXISTS { triple patterns }`` — every Figure-5
check, COUNT probe and ASK a federator sends, and every subquery
without VALUES or an ordinary FILTER.  Each
EXISTS is an ID semi-join (anti-join) stage seeded once per list with
its distinct correlated keys; only projected slots are decoded, and
``COUNT(*)`` counts rows and decodes nothing.  Where an answer cannot
observe how often a solution repeats (ASK, DISTINCT, ``OFFSET 0 LIMIT
≤ 1`` without ORDER BY, every EXISTS body) a variable is **dead** when
the answer does not read it (not projected, not correlated with an
EXISTS body) and no later pattern mentions it; a pattern binding only
dead variables is an existence test, one index lookup per key, and a
pattern binding live and dead variables emits each distinct live
extension once.

**Index levels.**  The probe shapes reduce to reading one index level
(general plan rules; nothing keys on a query's text):

- an existence stage with one bound key and a constant predicate
  (``?x p ?dead``, ``?dead p ?x``, ``?x p c``, ``c p ?x``) is a
  membership test per row against ``_pred_subjects[p]``, ``_pos[p]``,
  ``_pos[p][c]`` or ``_spo[c][p]`` (:meth:`TripleStore.key_level`);
- a (NOT) EXISTS body of one such pattern correlated on one variable
  keeps ``[row for row in batch if (row[s] in level) != negated]``;
- ``COUNT(*)`` over one pattern with no filter or GROUP BY reads
  :meth:`TripleStore.count` and walks nothing.

Every other group is evaluated bottom-up over binding dicts: the BGP
decoded at its boundary, a bound VALUES block pushed into the pipeline
as an ID semi-join, a top-level (NOT) EXISTS one seeded run per batch,
and LIMIT stops pulling.  (``tests/reference.py`` keeps the
row-at-a-time oracles.)
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from itertools import compress, islice
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

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
from .expressions import Binding, ExistsExpr, Expression, ExpressionError
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
            found = self._id_batches(query.where, frozenset())
            if found is not None:
                return any(found[1])  # stops at the first non-empty list
            for _ in self._evaluate_group(query.where, _EMPTY_BINDING):
                return True
            return False

    def select(self, query: Query):
        """Evaluate a SELECT query; returns a :class:`ResultSet`."""
        from .results import ResultSet

        aggregated = query.aggregates or query.group_by
        # With nothing that reorders, dedups or folds the solutions, the
        # answer is a prefix of the lazy group stream: stop pulling there.
        reshaped = query.order_by or query.distinct or aggregated
        stop = None if reshaped or query.limit is None else query.offset + query.limit
        with self._timed():
            found = self._id_batches(query.where, _live(query))
            if found is None:
                solutions = list(islice(self._evaluate_group(query.where, _EMPTY_BINDING), stop))
            elif aggregated:
                solutions = self._decode_solutions(query, *found)
            else:
                result = self._decode_rows(query.projected_variables(), *found, stop)
        if aggregated:
            result = self._aggregate(query, solutions)
        elif found is None:
            result = ResultSet.from_bindings(query.projected_variables(), solutions)
        if query.distinct:
            result = result.distinct()
        if query.order_by:
            result = _order(result, query.order_by)
        if query.offset or query.limit is not None:
            end = None if query.limit is None else query.offset + query.limit
            result = ResultSet(result.variables, result.rows[query.offset:end])
        return result

    def _id_batches(
        self, group: GroupPattern, live: Optional[FrozenSet[Variable]]
    ) -> Optional[Tuple[Tuple[Variable, ...], Iterator[list]]]:
        """The ID path: a group of triple patterns under top-level BGP
        ``(NOT) EXISTS`` filters as ``(slot_vars, lists of ID rows)``;
        ``None`` for any other group (the general path takes it).

        ``live`` (see :func:`_live`) turns patterns binding only dead
        variables into existence stages; the variables each EXISTS body
        correlates on stay live.  Each filter is one ID semi-join (or
        anti-join) stage over the outer lists.
        """
        patterns = group.elements
        if not patterns or not all(isinstance(e, TriplePattern) for e in patterns):
            return None
        if not all(map(_is_bgp_exists, group.filters)):
            return None
        plan = self.plan_for(list(patterns), frozenset())
        outer = frozenset(plan.slot_vars)
        correlated = [
            outer.intersection(set().union(*[p.variables() for p in expr.group.elements]))
            for expr in group.filters
        ]
        if live is not None:
            live = live.union(*correlated)
        batches = plan.execute_ids(
            self.store, [[None] * len(plan.slot_vars)], self.stats, self.batch_size, live=live
        )
        for expr, bound in zip(group.filters, correlated):
            batches = self._exists_stage(expr, bound, plan.slot_vars, batches)
        return plan.slot_vars, batches

    def _exists_stage(
        self,
        expr: ExistsExpr,
        bound: FrozenSet[Variable],
        slot_vars: Tuple[Variable, ...],
        batches: Iterator[list],
    ) -> Iterator[list]:
        """``FILTER (NOT) EXISTS`` over ID-row lists: per list, one body
        run seeded with its distinct correlated keys; survivors leave in
        input order.  A one-pattern body correlated on one variable
        that reads one index level (:meth:`BGPPlan.key_level`) is a
        membership test per row against that level instead."""
        body = self.plan_for(expr.group.elements, bound)
        at = [slot_vars.index(v) for v in body.slot_vars[:body.bound_slots]]
        level = body.key_level(self.store)
        if level is not None:
            (s,) = at
            for batch in batches:
                yield [row for row in batch if (row[s] in level) != expr.negated]
            return
        for batch in batches:
            keys = [tuple([row[s] for s in at]) for row in batch]
            found = self._matched_keys(body, keys)
            yield [row for row, key in zip(batch, keys) if (key in found) != expr.negated]

    def _matched_keys(self, body: BGPPlan, keys: Iterable[tuple]) -> set:
        """The keys (IDs for ``body``'s bound slots) the body has a
        solution for: one run seeded with each distinct key, every body
        variable dead, stopping once every key has matched."""
        seeds = dict.fromkeys(keys)
        free = [None] * (len(body.slot_vars) - body.bound_slots)
        width = body.bound_slots
        found: set = set()
        for batch in body.execute_ids(
            self.store, [[*key, *free] for key in seeds], self.stats, self.batch_size,
            live=frozenset(),
        ):
            found.update([tuple(row[:width]) for row in batch])
            if len(found) == len(seeds):
                break
        return found

    def _decode_rows(
        self, header: List[Variable], slot_vars, batches: Iterator[list], stop: Optional[int]
    ):
        """Projected slots only, decoded straight into result cells."""
        from .results import ResultSet

        slot_of = {v: i for i, v in enumerate(slot_vars)}
        projection = [slot_of.get(v) for v in header]
        decode = self.store.dictionary.decode
        rows: List[tuple] = []
        for batch in batches:
            started = time.perf_counter()
            rows += [
                tuple([None if s is None else decode(row[s]) for s in projection])
                for row in batch
            ]
            self.stats.decode_seconds += time.perf_counter() - started
            if stop is not None and len(rows) >= stop:
                break
        return ResultSet(tuple(header), rows)

    def _decode_solutions(self, query: Query, slot_vars, batches: Iterator[list]) -> List[Binding]:
        """Solutions for aggregation, binding only what the grouping and
        the aggregates read: ``COUNT(*)`` alone counts rows and decodes
        nothing, and over one pattern with no filter it reads
        :meth:`TripleStore.count` and walks nothing."""
        read = set(query.group_by).union(
            a.argument for a in query.aggregates if a.argument is not None
        )
        slots = [(v, slot) for slot, v in enumerate(slot_vars) if v in read]
        if not slots:
            where = query.where
            if len(where.elements) == 1 and not where.filters:
                # DISTINCT changes nothing: distinct triples bind distinct solutions
                return [_EMPTY_BINDING] * self.store.count(where.elements[0])
            return [_EMPTY_BINDING] * sum(map(len, batches))
        decode = self.store.dictionary.decode
        return [
            {v: decode(row[slot]) for v, slot in slots}
            for batch in batches
            for row in batch
        ]

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
        blocks = [e for e in others if isinstance(e, ValuesBlock)] if patterns else ()
        if blocks:
            # A VALUES block over variables that every BGP solution binds
            # (and nothing rebinds) only filters those solutions, and a
            # filter commutes with the per-solution operators below — so
            # it runs inside the pipeline instead of after it.
            free = set().union(*[p.variables() for p in patterns]).difference(
                initial, [e.variable for e in others if isinstance(e, BindElement)]
            )
            blocks = [block for block in blocks if _is_semi_join(block, free)]
            others = [e for e in others if e not in blocks]
        solutions: Iterable[Binding] = (
            self._evaluate_bgp_values(patterns, initial, blocks) if blocks
            else self._evaluate_bgp(patterns, initial) if patterns
            else [dict(initial)]
        )
        for element in others:
            solutions = self._apply_element(element, solutions)
        if group.filters:
            solutions = self._apply_filters(group.filters, solutions)
        return iter(solutions)

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
        """A conjunction, so the order filters run in cannot change the
        answer: ordinary expressions row by row, then each top-level
        ``(NOT) EXISTS`` over a plain BGP as its own batch stage."""
        plain = [f for f in filters if not _is_bgp_exists(f)]
        if plain:
            solutions = (
                binding for binding in solutions
                if all(f.effective_boolean(binding, self) for f in plain)
            )
        for expr in filter(_is_bgp_exists, filters):
            solutions = self._exists_filter(expr, solutions)
        return solutions

    def _exists_filter(self, expr: ExistsExpr, solutions: Iterable[Binding]) -> Iterator[Binding]:
        """``FILTER (NOT) EXISTS { patterns }`` over binding dicts, a
        batch at a time (groups the ID path does not take: OPTIONAL can
        leave some body variables unbound).

        Pulls at most ``batch_size`` solutions, partitions them by which
        body variables they bind, and per partition asks
        :meth:`_matched_keys` about the distinct correlated keys (looked
        up, never interned: an unknown value cannot match).  Survivors
        leave in input order.
        """
        patterns = expr.group.elements
        body_vars = frozenset().union(*[p.variables() for p in patterns])
        lookup = self.store.dictionary.lookup
        solutions = iter(solutions)
        while chunk := list(islice(solutions, self.batch_size)):
            partitions: Dict[FrozenSet[Variable], List[int]] = {}
            for position, binding in enumerate(chunk):
                partitions.setdefault(body_vars.intersection(binding), []).append(position)
            found = [False] * len(chunk)
            for bound, positions in partitions.items():
                plan = self.plan_for(patterns, bound)
                correlated = plan.slot_vars[:plan.bound_slots]
                keys = {}
                for position in positions:
                    key = tuple([lookup(chunk[position][v]) for v in correlated])
                    if None not in key:
                        keys[position] = key
                matched = self._matched_keys(plan, keys.values())
                for position, key in keys.items():
                    found[position] = key in matched
            yield from compress(chunk, [hit != expr.negated for hit in found])

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
        never encoded at all.  Groups the ID path takes skip even this
        (:meth:`_id_batches`).
        """
        return self._evaluate_bgp_values(patterns, initial, ())

    def _evaluate_bgp_values(
        self, patterns: List[TriplePattern], initial: Binding, blocks: Sequence[ValuesBlock]
    ) -> Iterator[Binding]:
        """:meth:`_evaluate_bgp` semi-joined with ``blocks`` (VALUES
        blocks :func:`_is_semi_join` accepted).  Same plan: each block's
        rows are looked up (never interned: a row naming an unknown term
        just drops) into ID tuples over the plan's slots, and the
        pipeline drops a row as soon as it binds a value no block has.
        """
        plan = self.plan_for(patterns, frozenset(initial))
        dictionary = self.store.dictionary
        lookup = dictionary.lookup
        slot_vars = plan.slot_vars
        row: List[Optional[int]] = [None] * len(slot_vars)
        for slot in range(plan.bound_slots):
            tid = lookup(initial[slot_vars[slot]])
            if tid is None:
                return
            row[slot] = tid
        restrict = []
        for block in blocks:
            keys = {tuple(map(lookup, cells)) for cells in block.rows}
            keys = {key for key in keys if None not in key}
            if not keys:
                return
            restrict.append((tuple([slot_vars.index(v) for v in block.variables]), keys))
        decode = dictionary.decode
        free = list(enumerate(slot_vars))[plan.bound_slots:]
        for batch in plan.execute_ids(self.store, [row], self.stats, self.batch_size, restrict):
            for ids in batch:
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
        rows = []
        for cells in values.rows:
            row: Binding = {}
            for variable, cell in zip(values.variables, cells):
                # UNDEF binds nothing; a repeated header variable must agree
                if cell is not None and row.setdefault(variable, cell) != cell:
                    break
            else:
                rows.append(row)
        return _hash_join(solutions, rows)

    def _subselect_join(self, query: Query, solutions: Iterable[Binding]) -> Iterator[Binding]:
        yield from _hash_join(solutions, list(self.select(query).bindings()))

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


def _live(query: Query) -> Optional[FrozenSet[Variable]]:
    """The variables a SELECT answer reads, when the answer cannot
    observe how often a solution repeats (DISTINCT, or at most the first
    row of an unordered answer); ``None`` when it can."""
    if query.order_by or query.aggregates or query.group_by:
        return None
    if query.distinct or (query.offset == 0 and query.limit is not None and query.limit <= 1):
        return frozenset(query.projected_variables())
    return None


def _is_semi_join(block: ValuesBlock, free: set) -> bool:
    """Joining ``block`` can neither bind anything nor multiply a solution:
    the BGP alone binds its variables (``free``), no UNDEF, no repeated row."""
    return (
        bool(block.variables)
        and free.issuperset(block.variables)
        and len(set(map(tuple, block.rows))) == len(block.rows)
        and not any(None in cells for cells in block.rows)
    )


def _is_bgp_exists(expr: Expression) -> bool:
    """A top-level ``(NOT) EXISTS`` whose body is only triple patterns."""
    if not isinstance(expr, ExistsExpr) or expr.group.filters or not expr.group.elements:
        return False
    return all(isinstance(e, TriplePattern) for e in expr.group.elements)


def _hash_join(solutions: Iterable[Binding], rows: List[Binding]) -> Iterator[Binding]:
    """Every compatible merge of a solution with a row, solution-major
    and row-minor.  Rows are hashed on the variables all of them bind
    that the solution binds too (one index per such set, built on first
    use); a hit is then checked on whatever else the two share, so UNDEF
    / unbound cells stay correct.  A solution sharing no such variable
    scans every row."""
    common = sorted(set(rows[0]).intersection(*rows[1:]) if rows else (), key=lambda v: v.name)
    indexes: Dict[Tuple[Variable, ...], Dict[tuple, List[Binding]]] = {}
    for binding in solutions:
        shared = tuple([v for v in common if v in binding])
        index = indexes.get(shared)
        if index is None:
            index = indexes[shared] = {}
            for row in rows:
                index.setdefault(tuple([row[v] for v in shared]), []).append(row)
        for row in index.get(tuple([binding[v] for v in shared]), ()):
            for variable, value in row.items():
                if binding.get(variable, value) != value:
                    break
            else:
                yield {**binding, **row}


def _order(result, order_by: List[Tuple[Variable, bool]]):
    from .results import ResultSet

    indexes = []
    for variable, ascending in order_by:
        try:
            indexes.append((result.variables.index(variable), ascending))
        except ValueError:
            continue

    rows = list(result.rows)
    # Python's sort is stable: apply keys from the last to the first so
    # descending components can be sorted independently.
    for index, ascending in reversed(indexes):
        rows.sort(
            key=lambda row: ("",) if row[index] is None else row[index].sort_key(),
            reverse=not ascending,
        )
    return ResultSet(result.variables, rows)
