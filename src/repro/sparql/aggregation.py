"""GROUP BY / aggregate evaluation over solution sequences.

Shared by the endpoint-side evaluator and the federated engines (which
aggregate at the federator after the global join).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..rdf.term import GroundTerm, Literal, Variable, XSD_INTEGER
from .ast import Aggregate
from .expressions import Binding
from .results import ResultSet


def _group_key(key: tuple):
    return tuple(("",) if cell is None else cell.sort_key() for cell in key)


def compute_aggregate(
    aggregate: Aggregate, bindings: Sequence[Binding]
) -> Optional[GroundTerm]:
    """One aggregate cell for one group.

    Returns ``None`` (unbound) on evaluation errors, matching SPARQL's
    error-as-unbound behaviour for aggregates.
    """
    function = aggregate.function.upper()
    if aggregate.argument is None:  # COUNT(*)
        return Literal(str(len(bindings)), datatype=XSD_INTEGER)
    values = [
        binding[aggregate.argument]
        for binding in bindings
        if aggregate.argument in binding
    ]
    if aggregate.distinct:
        seen: List[GroundTerm] = []
        for value in values:
            if value not in seen:
                seen.append(value)
        values = seen
    if function == "COUNT":
        return Literal(str(len(values)), datatype=XSD_INTEGER)
    if function == "SAMPLE":
        return min(values, key=lambda t: t.sort_key()) if values else None
    if function in ("MIN", "MAX"):
        if not values:
            return None
        chooser = min if function == "MIN" else max
        return chooser(values, key=lambda t: t.sort_key())
    # SUM / AVG need numeric literals
    try:
        numbers = [v.numeric_value() for v in values]  # type: ignore[union-attr]
    except (AttributeError, ValueError):
        return None
    if function == "SUM":
        total = sum(numbers)
        return (
            Literal.integer(total) if isinstance(total, int)
            else Literal.decimal(total)
        )
    if function == "AVG":
        if not numbers:
            return None
        return Literal.decimal(sum(numbers) / len(numbers))
    return None


def aggregate_solutions(
    group_by: Sequence[Variable],
    aggregates: Sequence[Aggregate],
    solutions: Sequence[Binding],
) -> ResultSet:
    """Group solutions and evaluate the aggregates per group.

    Without GROUP BY the whole sequence forms one (possibly empty) group.
    """
    header: List[Variable] = list(group_by) + [a.alias for a in aggregates]
    groups: Dict[tuple, List[Binding]] = {}
    if not group_by:
        groups[()] = list(solutions)
    else:
        for binding in solutions:
            key = tuple(binding.get(v) for v in group_by)
            groups.setdefault(key, []).append(binding)
    rows: List[Tuple[Optional[GroundTerm], ...]] = []
    for key in sorted(groups, key=_group_key):
        cells: List[Optional[GroundTerm]] = list(key)
        for aggregate in aggregates:
            cells.append(compute_aggregate(aggregate, groups[key]))
        rows.append(tuple(cells))
    return ResultSet(header, rows)
