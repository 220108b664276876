"""Result-level join operators used by SAPE's global join evaluation.

Joins follow SPARQL solution compatibility: two rows join when every
shared variable that is bound in both has equal values.  Unbound cells
(``None``, produced by OPTIONAL) act as wildcards.  All operators charge
the execution context's virtual join clock and intermediate-row budget.

Header analysis (which columns are shared, where right-only columns land)
happens **once per join** in :func:`_merge_headers`; the per-row loops
work from precomputed index pairs — no ``list.index`` scans per row.

**ID kernel.**  Joins above :data:`_ID_KERNEL_MIN_ROWS` total input rows
encode their cells into a :class:`~repro.rdf.dictionary.TermDictionary`
(the context-owned ``join_dictionary``, shared by every join of one
federated query so repeated terms intern once) and build/probe on dense
integer rows — key hashing and compatibility checks become machine-int
comparisons.  Output rows decode back to terms only when the joined
:class:`ResultSet` is materialized.  Cell equality is preserved exactly
by interning, and every dict used by the kernel iterates in insertion
order, so term-mode and ID-mode joins produce bit-identical results
(rows *and* order).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..endpoint.metrics import ExecutionContext
from ..rdf.dictionary import TermDictionary
from ..rdf.term import GroundTerm, Variable
from ..sparql.results import ResultSet

try:  # optional: without numpy the vectorized regime below switches off
    import numpy as _np
except ImportError:  # pragma: no cover - covered by the numpy-absent CI job
    _np = None

Row = Tuple[Optional[GroundTerm], ...]

#: below this many total input rows the encode/decode round trip costs
#: more than integer hashing saves — join directly on terms
_ID_KERNEL_MIN_ROWS = 32


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
# ID kernel: encode/decode boundary
# ----------------------------------------------------------------------


def _kernel_dictionary(
    context: Optional[ExecutionContext], total_rows: int
) -> Optional[TermDictionary]:
    """The intern table to run this join on, or ``None`` for term mode."""
    if total_rows < _ID_KERNEL_MIN_ROWS:
        return None
    if context is None:
        return TermDictionary()
    return context.get_join_dictionary()


def _encode_rows(rows: Sequence[Row], dictionary: TermDictionary) -> List[tuple]:
    """Term rows -> ID rows (``None`` cells stay ``None``)."""
    encode = dictionary.encode
    return [
        tuple([None if cell is None else encode(cell) for cell in row])
        for row in rows
    ]


# ----------------------------------------------------------------------
# Vectorized regime (numpy): both key sides fully bound
# ----------------------------------------------------------------------
#
# When every shared-variable cell is bound on both sides, SPARQL
# compatibility collapses to key equality, so the join becomes a batch
# problem: pack the (<= 2) key columns into one int64 per row, stable-
# sort the build side, range-probe it with one searchsorted pair, and
# materialize the output with gathers.  A ``None`` in any key cell (an
# OPTIONAL-produced wildcard) or > 2 shared variables falls back to the
# per-row kernel, which handles the full wildcard semantics.


def _encode_matrix(rows, width: int, dictionary: TermDictionary, np):
    """Term rows -> an ``(n, width)`` int64 matrix, ``None`` -> -1."""
    encode = dictionary.encode
    flat: List[int] = []
    append = flat.append
    for row in rows:
        for cell in row:
            append(-1 if cell is None else encode(cell))
    return np.array(flat, dtype=np.int64).reshape(len(rows), width)


def _pack_keys(arr, key_indexes, np):
    """One int64 key per row, or ``None`` when a wildcard key appears."""
    keys = arr[:, key_indexes[0]]
    if len(keys) and int(keys.min()) < 0:
        return None
    if len(key_indexes) == 2:
        second = arr[:, key_indexes[1]]
        if len(second) and int(second.min()) < 0:
            return None
        if len(keys) and (
            int(keys.max()) >= (1 << 31) or int(second.max()) >= (1 << 31)
        ):  # pragma: no cover - needs 2^31 interned terms
            return None
        keys = (keys << 31) | second
    return keys


def _decode_columns(cols, n: int, dictionary: TermDictionary, np) -> List[Row]:
    """ID columns -> term rows; each distinct ID decodes exactly once."""
    decode = dictionary.decode
    decoded = []
    for col in cols:
        uniq, inverse = np.unique(col, return_inverse=True)
        lut = [None if tid < 0 else decode(tid) for tid in uniq.tolist()]
        decoded.append([lut[j] for j in inverse.tolist()])
    if not decoded:
        return [()] * n
    return list(zip(*decoded))


def _hash_join_vectorized(
    left: ResultSet,
    right: ResultSet,
    shared_pairs: List[Tuple[int, int]],
    right_extra: List[int],
    dictionary: TermDictionary,
    np,
) -> Optional[List[Row]]:
    """Batched inner join; ``None`` when wildcards force the row kernel.

    Output order matches the per-row kernel exactly: probe-major, and
    build rows within a key bucket in their input (insertion) order.
    """
    left_arr = _encode_matrix(left.rows, len(left.variables), dictionary, np)
    right_arr = _encode_matrix(
        right.rows, len(right.variables), dictionary, np
    )
    build_is_left = len(left.rows) <= len(right.rows)
    if build_is_left:
        build_arr, probe_arr = left_arr, right_arr
        build_keys = [li for li, _ in shared_pairs]
        probe_keys = [ri for _, ri in shared_pairs]
    else:
        build_arr, probe_arr = right_arr, left_arr
        build_keys = [ri for _, ri in shared_pairs]
        probe_keys = [li for li, _ in shared_pairs]
    bk = _pack_keys(build_arr, build_keys, np)
    pk = _pack_keys(probe_arr, probe_keys, np)
    if bk is None or pk is None:
        return None
    order = np.argsort(bk, kind="stable")
    sorted_keys = bk[order]
    lo = np.searchsorted(sorted_keys, pk, side="left")
    hi = np.searchsorted(sorted_keys, pk, side="right")
    counts = hi - lo
    total = int(counts.sum())
    if total:
        offsets = np.cumsum(counts) - counts
        expand = np.repeat(lo, counts) + (
            np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
        )
        build_idx = order[expand]
        probe_idx = np.repeat(
            np.arange(len(pk), dtype=np.int64), counts
        )
    else:
        build_idx = probe_idx = np.empty(0, dtype=np.int64)
    left_idx, right_idx = (
        (build_idx, probe_idx) if build_is_left else (probe_idx, build_idx)
    )
    out_cols = [left_arr[:, j][left_idx] for j in range(left_arr.shape[1])]
    out_cols += [right_arr[:, j][right_idx] for j in right_extra]
    decode_started = time.perf_counter()
    rows = _decode_columns(out_cols, total, dictionary, np)
    return rows, time.perf_counter() - decode_started


def _left_outer_vectorized(
    left: ResultSet,
    right: ResultSet,
    shared_pairs: List[Tuple[int, int]],
    right_extra: List[int],
    dictionary: TermDictionary,
    np,
) -> Optional[List[Row]]:
    """Batched OPTIONAL; unmatched left rows pad right columns with -1."""
    left_arr = _encode_matrix(left.rows, len(left.variables), dictionary, np)
    right_arr = _encode_matrix(
        right.rows, len(right.variables), dictionary, np
    )
    lk = _pack_keys(left_arr, [li for li, _ in shared_pairs], np)
    rk = _pack_keys(right_arr, [ri for _, ri in shared_pairs], np)
    if lk is None or rk is None:
        return None
    order = np.argsort(rk, kind="stable")
    sorted_keys = rk[order]
    lo = np.searchsorted(sorted_keys, lk, side="left")
    hi = np.searchsorted(sorted_keys, lk, side="right")
    counts = hi - lo
    out_counts = np.maximum(counts, 1)  # unmatched rows emit one padding row
    total = int(out_counts.sum())
    offsets = np.cumsum(out_counts) - out_counts
    pos = np.arange(total, dtype=np.int64) - np.repeat(offsets, out_counts)
    matched = np.repeat(counts > 0, out_counts)
    right_sorted = np.repeat(lo, out_counts) + pos
    safe = np.where(matched, right_sorted, 0)
    right_idx = order[safe]
    left_idx = np.repeat(np.arange(len(lk), dtype=np.int64), out_counts)
    out_cols = [left_arr[:, j][left_idx] for j in range(left_arr.shape[1])]
    for j in right_extra:
        gathered = right_arr[:, j][right_idx]
        out_cols.append(np.where(matched, gathered, -1))
    decode_started = time.perf_counter()
    rows = _decode_columns(out_cols, total, dictionary, np)
    return rows, time.perf_counter() - decode_started


def _decode_rows(rows: List[tuple], dictionary: TermDictionary) -> List[Row]:
    """ID rows -> term rows, at result materialization."""
    decode = dictionary.decode
    return [
        tuple([None if cell is None else decode(cell) for cell in row])
        for row in rows
    ]


def _kernel_begin(
    context: Optional[ExecutionContext], dictionary: Optional[TermDictionary]
) -> Tuple[int, int]:
    if context is None or dictionary is None:
        return (0, 0)
    return (dictionary.terms_interned, dictionary.hits)

def _kernel_end(
    context: Optional[ExecutionContext],
    dictionary: Optional[TermDictionary],
    before: Tuple[int, int],
    decode_seconds: float,
) -> None:
    if context is None or dictionary is None:
        return
    metrics = context.metrics
    metrics.join_terms_interned += dictionary.terms_interned - before[0]
    metrics.join_dictionary_hits += dictionary.hits - before[1]
    metrics.join_decode_seconds += decode_seconds


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
    dictionary = _kernel_dictionary(context, len(left.rows) + len(right.rows))
    before = _kernel_begin(context, dictionary)
    if (
        dictionary is not None
        and shared_pairs
        and len(shared_pairs) <= 2
        and left.rows
        and right.rows
        and _np is not None
    ):
        vectorized = _hash_join_vectorized(
            left, right, shared_pairs, right_extra, dictionary, _np
        )
        if vectorized is not None:
            vec_rows, decode_seconds = vectorized
            _kernel_end(context, dictionary, before, decode_seconds)
            if context is not None:
                context.metrics.join_vectorized_batches += 1
            result = ResultSet(header, vec_rows)
            _account(context, left, right, result)
            return result
    if dictionary is None:
        left_rows, right_rows = left.rows, right.rows
    else:
        left_rows = _encode_rows(left.rows, dictionary)
        right_rows = _encode_rows(right.rows, dictionary)
    if not shared_pairs:
        rows = [
            _combine(l, r, shared_pairs, right_extra)
            for l in left_rows
            for r in right_rows
        ]
    else:
        build_rows, probe_rows, build_is_left = (
            (left_rows, right_rows, True)
            if len(left_rows) <= len(right_rows)
            else (right_rows, left_rows, False)
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
    if dictionary is not None:
        decode_started = time.perf_counter()
        rows = _decode_rows(rows, dictionary)
        _kernel_end(
            context, dictionary, before, time.perf_counter() - decode_started
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
        #: encoded key tuple -> indexes into ``rows`` (insertion order)
        self.table: Dict[Tuple, List[int]] = {}
        #: indexes of rows whose key has an unbound (wildcard) cell
        self.wildcards: List[int] = []

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

    Keys are interned through the context's join dictionary (when there
    is a context), so bucket hashing compares machine ints (the PR 4 ID
    kernel); a probe batch of :data:`_ID_KERNEL_MIN_ROWS` or more rows
    against an equally large opposite side with 1–2 fully-bound shared
    variables runs through the PR 6 vectorized batch kernel instead of
    the per-row loop.

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
        self._dictionary = (
            context.get_join_dictionary() if context is not None else None
        )
        self._left = _SymmetricSide([li for li, _ in self._shared_pairs])
        self._right = _SymmetricSide([ri for _, ri in self._shared_pairs])

    @property
    def held_rows(self) -> int:
        return len(self._left.rows) + len(self._right.rows)

    @property
    def left_count(self) -> int:
        return len(self._left.rows)

    @property
    def right_count(self) -> int:
        return len(self._right.rows)

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
            key = self._key(row, self._left.key_indexes)
            self._left.insert(tuple(row), key)

    def _key(self, row: Row, key_indexes: List[int]) -> Tuple:
        if self._dictionary is None:
            return tuple([row[i] for i in key_indexes])
        encode = self._dictionary.encode
        return tuple(
            [None if row[i] is None else encode(row[i]) for i in key_indexes]
        )

    def _push(
        self,
        mine: _SymmetricSide,
        other: _SymmetricSide,
        rows: Sequence[Row],
        batch_is_left: bool,
    ) -> List[Row]:
        if not rows:
            return []
        before = _kernel_begin(self._context, self._dictionary)
        out = self._push_vectorized(other, rows, batch_is_left)
        if out is None:
            out = []
            for row in rows:
                row = tuple(row)
                key = self._key(row, mine.key_indexes)
                self._probe(other, row, key, batch_is_left, out)
                mine.insert(row, key)
        else:
            for row in rows:
                mine.insert(tuple(row), self._key(row, mine.key_indexes))
        _kernel_end(self._context, self._dictionary, before, 0.0)
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

    def _push_vectorized(
        self,
        other: _SymmetricSide,
        rows: Sequence[Row],
        batch_is_left: bool,
    ) -> Optional[List[Row]]:
        """Probe one batch through the PR 6 batched kernel, if eligible."""
        if (
            self._dictionary is None
            or not self._shared_pairs
            or len(self._shared_pairs) > 2
            or len(rows) < _ID_KERNEL_MIN_ROWS
            or len(other.rows) < _ID_KERNEL_MIN_ROWS
            or other.wildcards
            or _np is None
        ):
            return None
        if batch_is_left:
            left_rs = ResultSet(self.header[: self._left_width()], list(rows))
            right_rs = ResultSet(self._right_header(), other.rows)
        else:
            left_rs = ResultSet(self.header[: self._left_width()], other.rows)
            right_rs = ResultSet(self._right_header(), list(rows))
        vectorized = _hash_join_vectorized(
            left_rs, right_rs, self._shared_pairs, self._right_extra,
            self._dictionary, _np,
        )
        if vectorized is None:
            return None
        vec_rows, decode_seconds = vectorized
        if self._context is not None:
            self._context.metrics.join_vectorized_batches += 1
            self._context.metrics.join_decode_seconds += decode_seconds
        return vec_rows

    def _left_width(self) -> int:
        return len(self.header) - len(self._right_extra)

    def _right_header(self) -> Tuple[Variable, ...]:
        right = [None] * (
            len(self._right_extra) + len(self._shared_pairs)
        )
        for li, ri in self._shared_pairs:
            right[ri] = self.header[li]
        extra_base = self._left_width()
        for offset, ri in enumerate(self._right_extra):
            right[ri] = self.header[extra_base + offset]
        return tuple(right)


def left_outer_join(
    left: ResultSet,
    right: ResultSet,
    context: Optional[ExecutionContext] = None,
) -> ResultSet:
    """SPARQL OPTIONAL semantics at the result level."""
    header, right_extra, shared_pairs = _merge_headers(left, right)
    dictionary = _kernel_dictionary(context, len(left.rows) + len(right.rows))
    before = _kernel_begin(context, dictionary)
    if (
        dictionary is not None
        and shared_pairs
        and len(shared_pairs) <= 2
        and left.rows
        and right.rows
        and _np is not None
    ):
        vectorized = _left_outer_vectorized(
            left, right, shared_pairs, right_extra, dictionary, _np
        )
        if vectorized is not None:
            vec_rows, decode_seconds = vectorized
            _kernel_end(context, dictionary, before, decode_seconds)
            if context is not None:
                context.metrics.join_vectorized_batches += 1
            result = ResultSet(header, vec_rows)
            _account(context, left, right, result)
            return result
    if dictionary is None:
        left_rows, right_rows = left.rows, right.rows
    else:
        left_rows = _encode_rows(left.rows, dictionary)
        right_rows = _encode_rows(right.rows, dictionary)
    table: Dict[Tuple, List[Row]] = {}
    wildcards: List[Row] = []
    key_indexes = [ri for _, ri in shared_pairs]
    for row in right_rows:
        key = tuple([row[i] for i in key_indexes])
        if None in key:
            wildcards.append(row)
        else:
            table.setdefault(key, []).append(row)
    left_key_indexes = [li for li, _ in shared_pairs]
    padding = tuple([None] * len(right_extra))
    rows: List[Row] = []
    for left_row in left_rows:
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
    if dictionary is not None:
        decode_started = time.perf_counter()
        rows = _decode_rows(rows, dictionary)
        _kernel_end(
            context, dictionary, before, time.perf_counter() - decode_started
        )
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


def distinct(result: ResultSet) -> ResultSet:
    return result.distinct()


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
