"""Reference implementations the differential tests compare ``src/`` to.

``src/`` has one store and one BGP evaluator; what used to be kept there
as alternative *modes* lives here as oracles instead:

- :func:`reference_bgp` — exhaustive nested-loop join over
  ``store.triples()``: no indexes, no join ordering, no shortcuts;
- :class:`RowAtATimeEvaluator` — the planned BGP pipeline with
  everything above it done one solution at a time: VALUES and
  sub-SELECTs joined by a nested loop after the unbound BGP, ``FILTER
  (NOT) EXISTS`` asked once per row, LIMIT applied to the fully
  materialised answer.  This is the **order** oracle: production's
  semi-join / batched-EXISTS / early-LIMIT paths must return its rows in
  its order (except where dead variables let production drop
  multiplicity — ASK, DISTINCT, ``LIMIT 1`` — which promise the set, or
  a member of it), and it opts out of the ID path and overrides group
  evaluation wholesale so it never runs the code it checks;
- :class:`SeedEvaluator` — the same, with the seed's per-binding
  recursive joiner under it, which re-orders the remaining patterns by
  ``store.count`` for every intermediate binding and matches through
  the term-level ``store.match`` surface.  OPTIONAL, UNION, MINUS, BIND
  and aggregation are the production evaluator's code.

- :func:`union_graph_answer` — the federated contract itself: the
  query evaluated by :class:`SeedEvaluator` over the union of every
  endpoint's triples.  What used to be checked scheduler-mode against
  scheduler-mode is checked against this.
- :func:`nested_loop_join` — the federator's result-level joins
  (``repro.core.joins``) as a double loop over rows: no hashing, no
  build / probe sides.

Only :class:`RowAtATimeEvaluator` promises a row *order*; compare the
others as multisets (``rows_multiset``).  Federated order is pinned
separately by the golden test in ``test_public_surface``.
"""

from dataclasses import replace
from typing import Dict, Iterable, Iterator, List, Set

from hypothesis import settings

from repro.rdf import Triple, TriplePattern, Variable
from repro.sparql import Evaluator, parse_query
from repro.sparql.results import ResultSet
from repro.store import TripleStore

Binding = Dict[Variable, object]


def examples(tier1: int):
    """Hypothesis settings for a differential property: ``tier1``
    examples normally; the loaded profile's count when it asks for more
    (``HYPOTHESIS_PROFILE=ci``, see ``conftest.py``)."""
    return settings(
        max_examples=max(tier1, settings().max_examples), deadline=None
    )


def nested_loop_join(
    left: ResultSet, right: ResultSet, outer: bool = False
) -> ResultSet:
    """Every compatible (left row, right row) pair, merged, left-major.

    Two rows are compatible when every shared variable bound on both
    sides holds the same term; a ``None`` cell is a wildcard and takes
    the other side's value.  The header is the left variables, then the
    right-only ones.  ``outer`` keeps an unmatched left row, padded with
    ``None`` (SPARQL OPTIONAL).
    """
    header = list(left.variables) + [
        v for v in right.variables if v not in left.variables
    ]
    #: where each right cell lands in an output row
    slots = [header.index(v) for v in right.variables]
    rows = []
    for left_row in left.rows:
        matched = False
        for right_row in right.rows:
            merged = list(left_row) + [None] * (len(header) - len(left_row))
            for slot, value in zip(slots, right_row):
                mine = merged[slot]
                if mine is None:
                    merged[slot] = value
                elif value is not None and value != mine:
                    break
            else:
                rows.append(tuple(merged))
                matched = True
        if outer and not matched:
            rows.append(tuple(left_row) + (None,) * (len(header) - len(left_row)))
    return ResultSet(tuple(header), rows)


def reference_bgp(store: TripleStore, patterns: List[TriplePattern]) -> List[Binding]:
    """Exhaustive nested-loop join, in syntactic pattern order."""
    solutions: List[Binding] = [{}]
    for pattern in patterns:
        next_solutions = []
        for binding in solutions:
            for triple in store.triples():
                match = pattern.substitute(binding).matches(triple)
                if match is not None:
                    merged = dict(binding)
                    merged.update(match)
                    next_solutions.append(merged)
        solutions = next_solutions
    return solutions


def union_graph_answer(
    endpoint_triples: Iterable[Iterable[Triple]], query_text: str
) -> Set[tuple]:
    """The distinct rows of ``query_text`` over the merged graph."""
    merged = TripleStore()
    for triples in endpoint_triples:
        merged.add_all(triples)
    result = SeedEvaluator(merged).select(parse_query(query_text))
    return {tuple(row) for row in result.rows}


def rows_multiset(result):
    """A SELECT result as a sorted multiset of row tuples.

    OPTIONAL can leave cells unbound (``None``), and ``None`` does not
    order against terms — sort by repr so mixed rows stay sortable.
    """
    return sorted(
        (tuple(row) for row in result.rows),
        key=lambda row: tuple("" if cell is None else repr(cell) for cell in row),
    )


def _merge_compatible(solutions: Iterable[Binding], rows: List[list]) -> Iterator[Binding]:
    """Every compatible (solution, row) merge by nested loop,
    solution-major and row-minor; a row is its ``(variable, value)``
    pairs (a VALUES header may repeat a variable)."""
    for binding in solutions:
        for row in rows:
            extended = dict(binding)
            for variable, value in row:
                if extended.setdefault(variable, value) != value:
                    break
            else:
                yield extended


class RowAtATimeEvaluator(Evaluator):
    """The planned BGP pipeline; everything above it row at a time."""

    def _id_batches(self, group, live):
        # the ID path runs the pipeline and its EXISTS stages itself;
        # without this a BGP group would never reach the code below (or
        # SeedEvaluator's joiner)
        return None

    def select(self, query):
        if query.limit is None or query.aggregates or query.group_by:
            return super().select(query)
        full = super().select(replace(query, limit=None, offset=0))
        end = query.offset + query.limit
        return ResultSet(full.variables, full.rows[query.offset:end])

    def _evaluate_group(self, group, initial: Binding) -> Iterator[Binding]:
        patterns = [e for e in group.elements if isinstance(e, TriplePattern)]
        solutions: Iterable[Binding] = (
            self._evaluate_bgp(patterns, initial) if patterns else [dict(initial)]
        )
        for element in group.elements:
            if not isinstance(element, TriplePattern):
                solutions = self._apply_element(element, solutions)
        if group.filters:
            solutions = self._apply_filters(group.filters, solutions)
        return iter(solutions)

    def _apply_filters(self, filters, solutions) -> Iterator[Binding]:
        for binding in solutions:
            if all(f.effective_boolean(binding, self) for f in filters):
                yield binding

    def _values_join(self, values, solutions) -> Iterator[Binding]:
        rows = [
            [(v, cell) for v, cell in zip(values.variables, row) if cell is not None]
            for row in values.rows
        ]
        return _merge_compatible(solutions, rows)

    def _subselect_join(self, query, solutions) -> Iterator[Binding]:
        rows = [list(b.items()) for b in self.select(query).bindings()]
        return _merge_compatible(solutions, rows)


class SeedEvaluator(RowAtATimeEvaluator):
    """The row-at-a-time evaluator with the seed's BGP joiner swapped in."""

    def _evaluate_bgp(
        self, patterns: List[TriplePattern], initial: Binding
    ) -> Iterator[Binding]:
        return self._join_patterns(patterns, dict(initial))

    def _join_patterns(
        self, patterns: List[TriplePattern], binding: Binding
    ) -> Iterator[Binding]:
        if not patterns:
            yield binding
            return
        remaining = list(patterns)
        pattern = remaining.pop(self._pick_next_pattern(remaining, binding))
        substituted = pattern.substitute(binding)
        for triple in self.store.match(substituted):
            match = substituted.matches(triple)
            if match is None:
                continue
            extended = dict(binding)
            extended.update(match)
            yield from self._join_patterns(remaining, extended)

    def _pick_next_pattern(self, patterns: List[TriplePattern], binding: Binding) -> int:
        """Greedy ordering: choose the pattern with the fewest matches
        once current bindings are substituted in."""
        best_index = 0
        best_cost = None
        for i, pattern in enumerate(patterns):
            cost = self.store.count(pattern.substitute(binding)) if len(patterns) > 1 else 0
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_index = i
            if best_cost == 0:
                break
        return best_index
