"""Result-level join operators used by SAPE's global join evaluation.

Joins follow SPARQL solution compatibility: two rows join when every
shared variable that is bound in both has equal values.  Unbound cells
(``None``, produced by OPTIONAL) act as wildcards.  All operators charge
the execution context's virtual join clock and intermediate-row budget.

Header analysis (which columns are shared, where right-only columns land)
happens **once per join** in :func:`_merge_headers`; the per-row loops
work from precomputed index pairs — no ``list.index`` scans per row.

Every operator hashes and compares the terms themselves, at every input
size: terms cache their hash, so a key lookup costs what an interned
integer's would, without an encode / decode round trip per cell.  Hash
tables are dicts, which iterate in insertion order, so the output order
is a function of the input order alone.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..endpoint.metrics import ExecutionContext
from ..rdf.term import GroundTerm, Variable
from ..sparql.results import ResultSet

Row = Tuple[Optional[GroundTerm], ...]


def _merge_headers(
    left: ResultSet, right: ResultSet
) -> Tuple[Tuple[Variable, ...], List[int], List[Tuple[int, int]]]:
    """Output header = left vars + right-only vars, with index maps.

    Returns ``(header, right_extra_indexes, shared_pairs)`` where
    ``shared_pairs`` holds one ``(left_index, right_index)`` pair per
    shared variable — the row loops never scan ``variables`` again.
    """
    left_index = {v: i for i, v in enumerate(left.variables)}
    header = list(left.variables)
    right_extra_indexes: List[int] = []
    shared_pairs: List[Tuple[int, int]] = []
    for index, variable in enumerate(right.variables):
        li = left_index.get(variable)
        if li is None:
            header.append(variable)
            right_extra_indexes.append(index)
        else:
            shared_pairs.append((li, index))
    return tuple(header), right_extra_indexes, shared_pairs


def _combine(
    left_row: Row,
    right_row: Row,
    shared_pairs: List[Tuple[int, int]],
    right_extra_indexes: List[int],
) -> Row:
    """Merge two compatible rows; fill unbound left cells from the right."""
    out = list(left_row)
    for li, ri in shared_pairs:
        if out[li] is None:
            out[li] = right_row[ri]
    out.extend([right_row[i] for i in right_extra_indexes])
    return tuple(out)


def _compatible(
    left_row: Row, right_row: Row, shared_pairs: List[Tuple[int, int]]
) -> bool:
    for li, ri in shared_pairs:
        left_value = left_row[li]
        if left_value is None:
            continue
        right_value = right_row[ri]
        if right_value is not None and left_value != right_value:
            return False
    return True


# ----------------------------------------------------------------------
# Operators
# ----------------------------------------------------------------------


def hash_join(
    left: ResultSet,
    right: ResultSet,
    context: Optional[ExecutionContext] = None,
) -> ResultSet:
    """Natural (inner) join; degenerates to a cross product when the
    inputs share no variables."""
    header, right_extra, shared_pairs = _merge_headers(left, right)
    if not shared_pairs:
        rows = [
            _combine(l, r, shared_pairs, right_extra)
            for l in left.rows
            for r in right.rows
        ]
    else:
        build_rows, probe_rows, build_is_left = (
            (left.rows, right.rows, True)
            if len(left.rows) <= len(right.rows)
            else (right.rows, left.rows, False)
        )
        if build_is_left:
            build_key_indexes = [li for li, _ in shared_pairs]
            probe_key_indexes = [ri for _, ri in shared_pairs]
        else:
            build_key_indexes = [ri for _, ri in shared_pairs]
            probe_key_indexes = [li for li, _ in shared_pairs]
        table: Dict[Tuple, List[Row]] = {}
        wildcards: List[Row] = []
        for row in build_rows:
            key = tuple([row[i] for i in build_key_indexes])
            if None in key:
                wildcards.append(row)
            else:
                table.setdefault(key, []).append(row)

        rows = []
        for probe_row in probe_rows:
            key = tuple([probe_row[i] for i in probe_key_indexes])
            if None in key:
                # unbound probe key: must scan everything
                candidates = [r for bucket in table.values() for r in bucket] + wildcards
            else:
                candidates = list(table.get(key, ())) + wildcards
            for build_row in candidates:
                left_row, right_row = (
                    (build_row, probe_row) if build_is_left else (probe_row, build_row)
                )
                if _compatible(left_row, right_row, shared_pairs):
                    rows.append(
                        _combine(left_row, right_row, shared_pairs, right_extra)
                    )
    result = ResultSet(header, rows)
    _account(context, left, right, result)
    return result


class _SymmetricSide:
    """One input of a symmetric hash join: rows seen so far, hashed."""

    __slots__ = ("rows", "table", "wildcards", "key_indexes")

    def __init__(self, key_indexes: List[int]):
        self.key_indexes = key_indexes
        self.rows: List[Row] = []
        #: key tuple -> indexes into ``rows`` (insertion order)
        self.table: Dict[Tuple, List[int]] = {}
        #: indexes of rows whose key has an unbound (wildcard) cell
        self.wildcards: List[int] = []

    def key(self, row: Row) -> Tuple:
        return tuple([row[i] for i in self.key_indexes])

    def insert(self, row: Row, key: Tuple) -> None:
        index = len(self.rows)
        self.rows.append(row)
        if None in key:
            self.wildcards.append(index)
        else:
            self.table.setdefault(key, []).append(index)


class SymmetricHashJoin:
    """A pipelined (symmetric) hash join over binding batches.

    Unlike :func:`hash_join`, which needs both relations materialized,
    this operator accepts batches from *either* input as they arrive:
    each pushed batch is inserted into its own side's hash table and
    immediately probed against everything the opposite side has
    delivered so far.  Every output row is produced exactly once — by
    whichever of its two constituent rows arrived later — so draining
    both inputs through ``push_left``/``push_right`` yields exactly the
    rows ``hash_join(left, right)`` would, in an order determined by
    arrival order (deterministic under the virtual-time scheduler).

    Memory accounting: both sides are retained for the lifetime of the
    operator (that is the price of pipelining), so every push reports
    the operator's total held rows to ``context.note_intermediate_rows``
    — the intermediate-row budget bounds symmetric state exactly like it
    bounds materialized intermediates.  The virtual join clock is
    charged per push for the batch plus its output, which sums over a
    full drain to the same rows :func:`hash_join` charges.
    """

    def __init__(
        self,
        left_variables: Sequence[Variable],
        right_variables: Sequence[Variable],
        context: Optional[ExecutionContext] = None,
    ):
        left_stub = ResultSet(tuple(left_variables))
        right_stub = ResultSet(tuple(right_variables))
        self.header, self._right_extra, self._shared_pairs = _merge_headers(
            left_stub, right_stub
        )
        self._context = context
        self._left = _SymmetricSide([li for li, _ in self._shared_pairs])
        self._right = _SymmetricSide([ri for _, ri in self._shared_pairs])

    @property
    def held_rows(self) -> int:
        return len(self._left.rows) + len(self._right.rows)

    @property
    def left_rows(self) -> Sequence[Row]:
        """The accumulated left input (what :meth:`preload_left` carries
        into a rebuilt stage)."""
        return self._left.rows

    def push_left(self, rows: Sequence[Row]) -> List[Row]:
        """Insert a left-input batch; returns the newly joined rows."""
        return self._push(self._left, self._right, rows, batch_is_left=True)

    def push_right(self, rows: Sequence[Row]) -> List[Row]:
        """Insert a right-input batch; returns the newly joined rows."""
        return self._push(self._right, self._left, rows, batch_is_left=False)

    def preload_left(self, rows: Sequence[Row]) -> None:
        """Re-seed the left side without probing or charging the clock.

        Used by mid-flight replanning to carry a stage's already-charged
        accumulated input into a rebuilt stage; the opposite side must
        still be empty (nothing to probe means nothing is lost).
        """
        if self._right.rows:
            raise ValueError("preload requires an empty right side")
        for row in rows:
            self._left.insert(tuple(row), self._left.key(row))

    def _push(
        self,
        mine: _SymmetricSide,
        other: _SymmetricSide,
        rows: Sequence[Row],
        batch_is_left: bool,
    ) -> List[Row]:
        if not rows:
            return []
        out: List[Row] = []
        for row in rows:
            row = tuple(row)
            key = mine.key(row)
            self._probe(other, row, key, batch_is_left, out)
            mine.insert(row, key)
        if self._context is not None:
            self._context.charge_join(len(rows) + len(out))
            self._context.note_intermediate_rows(self.held_rows + len(out))
        return out

    def _probe(
        self,
        other: _SymmetricSide,
        row: Row,
        key: Tuple,
        batch_is_left: bool,
        out: List[Row],
    ) -> None:
        if None in key:
            candidates = range(len(other.rows))
        else:
            candidates = list(other.table.get(key, ())) + other.wildcards
        for index in candidates:
            other_row = other.rows[index]
            left_row, right_row = (
                (row, other_row) if batch_is_left else (other_row, row)
            )
            if _compatible(left_row, right_row, self._shared_pairs):
                out.append(
                    _combine(
                        left_row, right_row,
                        self._shared_pairs, self._right_extra,
                    )
                )

def left_outer_join(
    left: ResultSet,
    right: ResultSet,
    context: Optional[ExecutionContext] = None,
) -> ResultSet:
    """SPARQL OPTIONAL semantics at the result level."""
    header, right_extra, shared_pairs = _merge_headers(left, right)
    table: Dict[Tuple, List[Row]] = {}
    wildcards: List[Row] = []
    key_indexes = [ri for _, ri in shared_pairs]
    for row in right.rows:
        key = tuple([row[i] for i in key_indexes])
        if None in key:
            wildcards.append(row)
        else:
            table.setdefault(key, []).append(row)
    left_key_indexes = [li for li, _ in shared_pairs]
    padding = tuple([None] * len(right_extra))
    rows: List[Row] = []
    for left_row in left.rows:
        key = tuple([left_row[i] for i in left_key_indexes])
        if shared_pairs and None not in key:
            candidates = list(table.get(key, ())) + wildcards
        else:
            candidates = [r for bucket in table.values() for r in bucket] + wildcards
        matched = False
        for right_row in candidates:
            if _compatible(left_row, right_row, shared_pairs):
                rows.append(
                    _combine(left_row, right_row, shared_pairs, right_extra)
                )
                matched = True
        if not matched:
            rows.append(tuple(left_row) + padding)
    result = ResultSet(header, rows)
    _account(context, left, right, result)
    return result


def union_all(
    results: Sequence[ResultSet],
    context: Optional[ExecutionContext] = None,
) -> ResultSet:
    """Union of result sets, aligning (possibly different) headers."""
    if not results:
        return ResultSet(())
    header: List[Variable] = []
    for result in results:
        for variable in result.variables:
            if variable not in header:
                header.append(variable)
    rows: List[Row] = []
    for result in results:
        indexes = [
            result.variables.index(v) if v in result.variables else None
            for v in header
        ]
        for row in result.rows:
            rows.append(tuple(row[i] if i is not None else None for i in indexes))
    merged = ResultSet(tuple(header), rows)
    if context is not None:
        context.note_intermediate_rows(len(merged))
    return merged


def _account(
    context: Optional[ExecutionContext],
    left: ResultSet,
    right: ResultSet,
    output: ResultSet,
) -> None:
    if context is None:
        return
    context.charge_join(len(left) + len(right) + len(output))
    context.note_intermediate_rows(len(output))
