"""Compile-once BGP planning and batch execution.

The seed evaluator joined triple patterns with a per-binding recursive
nested loop whose greedy ordering re-probed ``store.count`` on every
remaining pattern *for every intermediate binding* — O(rows × patterns²)
probe overhead before any matching happened.  This module replaces that
with the classic plan-once / execute-batched split:

- :func:`build_plan` orders the patterns **once per query** from static
  selectivity (bound-term shape + the store's per-predicate and distinct
  subject/object statistics) with a bound-variable-aware connectivity
  tiebreak, so execution never calls ``store.count``;
- :meth:`BGPPlan.execute_ids` is the execution kernel: the plan
  assigns every variable a dense *slot*, resolves the query's ground
  terms to interned IDs once, and pushes vectors of slot-mapped integer
  rows through :meth:`~repro.store.TripleStore.extend_id_rows`, which
  walks the SPO/POS/OSP indexes directly and build/probes when bound
  join values repeat across the batch.  No binding dicts, no term
  hashing, no decode until the caller materializes results;
- :class:`EvaluatorStats` counts what happened (plans built, cache hits,
  batches, intermediate rows, per-phase wall time) so endpoint compute
  can be attributed end to end.

Stages hand on lists of at most ``batch_size`` rows and re-cut their
input into chunks of exactly ``batch_size``, so the kernel groups the
rows a row stream would give it; output is sliced lazily off the
kernel, so ASK / EXISTS / LIMIT still short-circuit after a bounded
amount of work.

Given the set of *live* variables (those the caller reads), a variable
is **dead** at a pattern when it is not live and no later pattern
mentions it.  A pattern whose new variables are all dead compiles to an
*existence stage*: it binds nothing and passes each input row on at
most once — sound wherever the caller cannot observe multiplicity.  One
with a single bound key and a constant predicate is a membership test
against one store index level.  A pattern binding live *and* dead
variables is marked ``distinct``: it binds only the live ones and emits
each distinct live extension once per row, in the walk's
first-occurrence order.  :meth:`BGPPlan.key_level` hands a one-pattern
EXISTS body's index level to the evaluator's anti-join.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..rdf.term import Variable
from ..rdf.triple import Triple, TriplePattern

#: default number of bindings pushed through a pattern per batch
DEFAULT_BATCH_SIZE = 256


@dataclass
class EvaluatorStats:
    """Counters for one evaluator's lifetime (deltas per request are
    taken by the owning endpoint via :meth:`snapshot` / :meth:`delta`)."""

    plans_built: int = 0
    plan_cache_hits: int = 0
    patterns_evaluated: int = 0
    batches: int = 0
    intermediate_rows: int = 0
    plan_seconds: float = 0.0
    #: total BGP evaluation wall time (includes plan_seconds)
    exec_seconds: float = 0.0
    #: time spent decoding interned IDs back to terms at result
    #: materialization (the ID path's ID→term boundary)
    decode_seconds: float = 0.0

    _FIELDS = (
        "plans_built", "plan_cache_hits", "patterns_evaluated", "batches",
        "intermediate_rows", "plan_seconds", "exec_seconds", "decode_seconds",
    )

    def snapshot(self) -> Dict[str, float]:
        return {name: getattr(self, name) for name in self._FIELDS}

    def delta(self, before: Dict[str, float]) -> Dict[str, float]:
        """Non-zero changes since a :meth:`snapshot`."""
        out: Dict[str, float] = {}
        for name in self._FIELDS:
            change = getattr(self, name) - before.get(name, 0)
            if change:
                out[name] = change
        return out

    def reset(self) -> None:
        for name in self._FIELDS:
            setattr(self, name, 0.0 if name.endswith("seconds") else 0)


def _static_estimate(store, pattern: TriplePattern, bound: set) -> float:
    """Estimated matches for ``pattern`` once ``bound`` variables hold
    values, from O(1) store statistics only (never ``store.count``).

    Ground term pairs resolve to *exact* counts with one index lookup
    (e.g. ``?x rdf:type <GradStudent>`` is ``len(pos[type][GradStudent])``);
    variables bound by earlier patterns scale the per-predicate totals by
    the distinct subject/object counts.
    """
    s, p, o = pattern.subject, pattern.predicate, pattern.object
    s_ground = not isinstance(s, Variable)
    p_ground = not isinstance(p, Variable)
    o_ground = not isinstance(o, Variable)
    s_bound = s_ground or s in bound
    p_bound = p_ground or p in bound
    o_bound = o_ground or o in bound
    if p_ground:
        if s_ground and o_ground:
            return 1.0 if Triple(s, p, o) in store else 0.0
        if o_ground:
            n = float(store.predicate_object_count(p, o))
            if s_bound and n:
                n /= max(1, store.distinct_subject_count(p))
            return n
        if s_ground:
            n = float(store.subject_predicate_count(s, p))
            if o_bound and n:
                n /= max(1, store.distinct_object_count(p))
            return n
        n = float(store.predicate_count(p))
        if n == 0.0:
            return 0.0
        if s_bound:
            n /= max(1, store.distinct_subject_count(p))
        if o_bound:
            n /= max(1, store.distinct_object_count(p))
        return n
    n = float(len(store))
    if n == 0.0:
        return 0.0
    if p_bound:
        n /= max(1, store.distinct_predicates_total())
    if s_bound:
        n /= max(1, store.distinct_subjects_total())
    if o_bound:
        n /= max(1, store.distinct_objects_total())
    return n


class BGPPlan:
    """An ordered BGP execution pipeline, built once and reused.

    Beyond the pattern order, the plan owns the query's *slot map*: every
    variable a pattern mentions gets a dense integer slot (externally
    bound variables first, sorted by name; then the rest in plan order of
    first appearance).  Each intermediate solution is a list of interned
    IDs aligned to these slots, so the compiled stage descriptors below
    are pure integers.  Externally bound variables no pattern mentions
    get no slot: the caller carries them past the BGP untouched.
    """

    __slots__ = (
        "order", "store_version", "slot_vars", "bound_slots", "stages", "_variants",
    )

    def __init__(
        self,
        order: Sequence[TriplePattern],
        bound_in: FrozenSet[Variable],
        store,
    ):
        self.order: Tuple[TriplePattern, ...] = tuple(order)
        #: the store mutation counter this plan's statistics reflect
        self.store_version: int = store.version
        mentioned = [
            term
            for pattern in self.order
            for term in pattern.as_tuple()
            if isinstance(term, Variable)
        ]
        #: slot i holds the value of ``slot_vars[i]`` in every ID row
        slot_vars: List[Variable] = sorted(
            bound_in.intersection(mentioned), key=lambda v: v.name
        )
        #: slots ``[0, bound_slots)`` must be filled in every input row
        self.bound_slots: int = len(slot_vars)
        seen = set(slot_vars)
        for variable in mentioned:
            if variable not in seen:
                seen.add(variable)
                slot_vars.append(variable)
        self.slot_vars: Tuple[Variable, ...] = tuple(slot_vars)
        #: per-pattern integer descriptors (see :meth:`_compile`), or
        #: ``None`` when the BGP names a ground term the store has never
        #: seen and therefore has no solutions.  IDs are append-only
        #: stable and a store mutation replaces the plan, so compiling
        #: once is enough.
        self.stages: Optional[Tuple[tuple, ...]] = self._compile(
            store.dictionary.lookup
        )
        #: :meth:`_stages_for` per ``live`` set
        self._variants: Dict[FrozenSet[Variable], Optional[Tuple[tuple, ...]]] = {}

    def __repr__(self) -> str:
        inside = ", ".join(p.n3() for p in self.order)
        return f"BGPPlan([{inside}])"

    def _compile(self, lookup) -> Optional[Tuple[tuple, ...]]:
        """The integer stage descriptors
        ``(consts, bound_positions, key_slots, free, checks, distinct)``
        that :meth:`~repro.store.TripleStore.extend_id_rows` consumes
        (``distinct`` is only set by :meth:`_stages_for`).

        Because the plan's dataflow is static — a slot is bound at stage
        *k* iff it is one of the ``bound_slots`` or its variable appears
        in an earlier pattern — each pattern's shape analysis (which
        positions read group keys, which bind free slots, which
        repeated-variable equality checks apply) happens here, once,
        instead of per group at execution time.  Ground terms resolve
        through ``lookup``, which never interns: query traffic must not
        grow the endpoint's dictionary.
        """
        var_slot = {v: i for i, v in enumerate(self.slot_vars)}
        bound_now = set(range(self.bound_slots))
        compiled = []
        for pattern in self.order:
            consts: List[Optional[int]] = [None, None, None]
            bound_positions: List[Tuple[int, int]] = []
            key_slots: List[int] = []
            key_index: Dict[int, int] = {}
            free: List[Tuple[int, int]] = []
            free_first: Dict[int, int] = {}
            checks: List[Tuple[int, int]] = []
            for pos, term in enumerate(pattern.as_tuple()):
                if not isinstance(term, Variable):
                    tid = lookup(term)
                    if tid is None:
                        return None
                    consts[pos] = tid
                    continue
                slot = var_slot[term]
                if slot in bound_now:
                    ki = key_index.get(slot)
                    if ki is None:
                        ki = len(key_slots)
                        key_index[slot] = ki
                        key_slots.append(slot)
                    bound_positions.append((pos, ki))
                else:
                    first = free_first.get(slot)
                    if first is None:
                        free_first[slot] = pos
                        free.append((pos, slot))
                    else:
                        checks.append((first, pos))
            compiled.append(
                (
                    tuple(consts),
                    tuple(bound_positions),
                    tuple(key_slots),
                    tuple(free),
                    tuple(checks),
                    False,
                )
            )
            bound_now.update(var_slot[v] for v in pattern.variables())
        return tuple(compiled)

    def _stages_for(self, live: Optional[FrozenSet[Variable]]) -> Optional[Tuple[tuple, ...]]:
        """:attr:`stages` with the dead variables each pattern binds
        left unbound.  A variable is dead when it is not in ``live`` and
        no later pattern mentions it.

        - A pattern whose new variables are all dead becomes an
          existence stage (no ``free`` slot; the ``checks`` of a
          repeated dead variable stay).
        - A pattern binding live and dead variables keeps only its live
          ``free`` slots and is marked ``distinct``: each distinct live
          extension is emitted once per row, in first-occurrence order.
        """
        if live is None or self.stages is None:
            return self.stages
        stages = self._variants.get(live)
        if stages is None:
            #: the index of the last pattern mentioning each variable
            last = {v: k for k, pattern in enumerate(self.order) for v in pattern.variables()}

            stages = []
            for k, (consts, bound_positions, key_slots, free, checks, _) in enumerate(self.stages):
                alive = tuple(
                    (pos, slot) for pos, slot in free
                    if self.slot_vars[slot] in live or last[self.slot_vars[slot]] != k
                )
                stages.append(
                    (consts, bound_positions, key_slots, alive, checks, alive != free)
                )
            self._variants[live] = stages = tuple(stages)
        return stages

    def key_level(self, store) -> Optional[dict]:
        """For a one-pattern plan with one bound slot and every other
        variable dead (a one-pattern EXISTS body correlated on one
        variable): the store index level whose keys are exactly the
        bound values with a match (:meth:`TripleStore.key_level`);
        ``None`` for any other plan."""
        if len(self.order) != 1 or self.bound_slots != 1:
            return None
        stages = self._stages_for(frozenset())
        if stages is None:
            return {}  # names a term the store has never seen
        return store.key_level(stages[0])

    def execute_ids(
        self,
        store,
        rows: Iterable[List[Optional[int]]],
        stats: EvaluatorStats = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        restrict: Sequence[Tuple[Tuple[int, ...], set]] = (),
        live: Optional[FrozenSet[Variable]] = None,
    ) -> Iterator[List[List[Optional[int]]]]:
        """Push slot-mapped ID rows through every pattern; yields lists
        of at most ``batch_size`` output rows.

        ``rows`` are lists of interned IDs (or ``None``) aligned to
        :attr:`slot_vars`; output rows are fully extended copies in the
        same layout.  The entire pipeline hashes machine integers.

        ``live`` names the variables the caller reads (``None``: all of
        them).  Given it, a pattern that binds only dead variables is an
        existence test: it binds nothing and passes each row on at most
        once, so the caller must not observe multiplicity (ASK, DISTINCT,
        one row, an EXISTS body).  Slots ``restrict`` names must be live.

        Each ``(slots, keys)`` in ``restrict`` is a semi-join: only rows
        whose IDs at the (free) ``slots`` form a tuple in ``keys``
        survive.  A row is dropped right after the stage that first
        binds a restricted slot (per slot against that column of
        ``keys``, then against the whole tuples) so later stages never
        extend it.  Pattern order is untouched and a filter keeps stream
        order: while every stage's input fits one chunk the output is
        the unrestricted pipeline's, filtered, in its order.  Past that
        the filter moves chunk boundaries (stages regroup per chunk):
        the same rows, ordered as they might be at another batch size.
        """
        if stats is not None:
            stats.patterns_evaluated += len(self.order)
        stages = self._stages_for(live)
        if stages is None:
            return iter(())
        filters = self._semi_join_filters(restrict) if restrict else {}
        stream: Iterator[list] = iter([list(rows)])
        for index, stage in enumerate(stages):
            stream = _id_stage(store, stage, stream, stats, batch_size)
            for keep in filters.get(index, ()):
                stream = _kept(stream, keep)
        if stats is None:
            return stream
        return _count_rows(stream, stats)

    def _semi_join_filters(self, restrict) -> Dict[int, list]:
        """``restrict`` as row predicates per stage index (each applies
        to that stage's output)."""
        bound_at = {slot: i for i, stage in enumerate(self.stages) for _, slot in stage[3]}
        filters: Dict[int, list] = {}
        for slots, keys in restrict:
            parts = [((s,), {key[i] for key in keys}) for i, s in enumerate(slots)]
            if len(slots) > 1:
                parts.append((slots, keys))
            for part, allowed in parts:
                # itemgetter: the bare ID for one slot, a tuple for several
                filters.setdefault(max(bound_at[s] for s in part), []).append(
                    lambda row, at=itemgetter(*part), allowed=allowed: at(row) in allowed
                )
        return filters


def _count_rows(stream: Iterator[list], stats: EvaluatorStats) -> Iterator[list]:
    """Count the pipeline's final output rows (inner stages count their
    input chunks, which are the upstream stages' outputs)."""
    for batch in stream:
        stats.intermediate_rows += len(batch)
        yield batch


def _kept(stream: Iterator[list], keep) -> Iterator[list]:
    """Each list of ``stream`` cut to the rows ``keep`` accepts."""
    for batch in stream:
        yield [row for row in batch if keep(row)]


def _chunks(batches: Iterator[list], size: int) -> Iterator[list]:
    """The rows of ``batches`` re-cut into lists of exactly ``size`` (the
    last one shorter), pulling no list before it is needed."""
    pending: list = []
    for batch in batches:
        if not pending and len(batch) == size:
            yield batch
            continue
        pending += batch
        while len(pending) >= size:
            yield pending[:size]
            del pending[:size]
    if pending:
        yield pending


def _id_stage(
    store,
    stage: tuple,
    upstream: Iterator[list],
    stats: EvaluatorStats,
    batch_size: int,
) -> Iterator[list]:
    """One ID pipeline stage: extend integer rows against one pattern.

    Each chunk is exactly ``batch_size`` upstream rows, so the kernel
    groups what a row stream would give it; its output leaves in lists
    of at most ``batch_size``, sliced lazily, so a consumer that stops
    also stops the index walk."""
    for chunk in _chunks(upstream, batch_size):
        if stats is not None:
            stats.batches += 1
            stats.intermediate_rows += len(chunk)
        extended = store.extend_id_rows(stage, chunk)
        while batch := list(islice(extended, batch_size)):
            yield batch


def build_plan(
    store,
    patterns: Sequence[TriplePattern],
    bound: FrozenSet[Variable] = frozenset(),
    stats: EvaluatorStats = None,
) -> BGPPlan:
    """Order ``patterns`` by static selectivity, once.

    Greedy: repeatedly take the cheapest remaining pattern, where cost is
    the static estimate given the variables bound so far, and patterns
    sharing no variable with the bound set are pushed back (they would be
    Cartesian products).  Ties break on syntactic position, so plans are
    deterministic.
    """
    started = time.perf_counter()
    remaining: List[Tuple[int, TriplePattern]] = list(enumerate(patterns))
    bound_now = set(bound)
    order: List[TriplePattern] = []
    while remaining:
        best = None
        best_key = None
        for index, pattern in remaining:
            variables = pattern.variables()
            disconnected = bool(
                bound_now and variables and not (variables & bound_now)
            )
            key = (disconnected, _static_estimate(store, pattern, bound_now), index)
            if best_key is None or key < best_key:
                best_key = key
                best = (index, pattern)
        remaining.remove(best)
        order.append(best[1])
        bound_now |= best[1].variables()
    plan = BGPPlan(order, frozenset(bound), store)
    if stats is not None:
        stats.plans_built += 1
        stats.plan_seconds += time.perf_counter() - started
    return plan
