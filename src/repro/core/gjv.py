"""Global join variable detection (Section 3.1, Algorithm 1, Figure 5).

A *global join variable* (GJV) joins triple patterns that cannot be fully
answered inside any single endpoint.  Detection is instance-based: for
each candidate pair of patterns, a lightweight SPARQL check query
computes the relative complement of the variable's bindings at every
relevant endpoint —

    SELECT ?v WHERE { [type triple] TP_i .
                      FILTER NOT EXISTS { TP_j } } LIMIT 1

A non-empty answer at any endpoint makes the variable global for that
pair, and (per the paper) the pair may never share a subquery again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..rdf.namespace import RDF_TYPE
from ..rdf.term import Variable
from ..rdf.triple import TriplePattern
from ..sparql.ast import GroupPattern, Query
from ..sparql.expressions import ExistsExpr
from ..sparql.serializer import serialize_query
from ..federation.cache import ProbeCache, check_signature
from ..federation.request_handler import (
    ElasticRequestHandler,
    Request,
    ResponseFuture,
)

PatternPair = FrozenSet[TriplePattern]


@dataclass
class GJVReport:
    """Outcome of Algorithm 1."""

    #: variable -> pattern pairs that made it global
    global_variables: Dict[Variable, List[Tuple[TriplePattern, TriplePattern]]] = field(
        default_factory=dict
    )
    #: unordered pattern pairs forbidden from sharing a subquery
    forbidden_pairs: set = field(default_factory=set)
    check_queries_sent: int = 0

    def is_global(self, variable: Variable) -> bool:
        return variable in self.global_variables

    def pair_forbidden(self, a: TriplePattern, b: TriplePattern) -> bool:
        return frozenset((a, b)) in self.forbidden_pairs

    def add(self, variable: Variable, a: TriplePattern, b: TriplePattern) -> None:
        self.global_variables.setdefault(variable, []).append((a, b))
        self.forbidden_pairs.add(frozenset((a, b)))


@dataclass(frozen=True)
class _CheckQuery:
    """One locality check: outer pattern minus inner pattern on ``variable``."""

    variable: Variable
    outer: TriplePattern
    inner: TriplePattern
    type_constraint: Optional[TriplePattern]
    sources: Tuple[str, ...]

    def to_sparql(self) -> str:
        inner_renamed = _rename_other_variables(self.inner, self.variable, "chk")
        elements: List = []
        if self.type_constraint is not None:
            elements.append(self.type_constraint)
        elements.append(self.outer)
        group = GroupPattern(
            elements=elements,
            filters=[
                ExistsExpr(GroupPattern(elements=[inner_renamed]), negated=True)
            ],
        )
        query = Query(
            form="SELECT",
            where=group,
            select_variables=[self.variable],
            limit=1,
        )
        return serialize_query(query)

    def cache_signature(self) -> str:
        return check_signature(self.outer, self.inner, self.type_constraint)


def _rename_other_variables(
    pattern: TriplePattern, keep: Variable, prefix: str
) -> TriplePattern:
    """Rename every variable except ``keep`` so the FILTER NOT EXISTS body
    does not capture outer variables accidentally."""
    mapping = {}
    for term in pattern.as_tuple():
        if isinstance(term, Variable) and term != keep and term not in mapping:
            mapping[term] = Variable(f"{prefix}_{term.name}")
    return pattern.substitute(mapping)


def _role(pattern: TriplePattern, variable: Variable) -> str:
    """'subject', 'object', 'predicate', or combinations if repeated."""
    roles = []
    if pattern.subject == variable:
        roles.append("subject")
    if pattern.predicate == variable:
        roles.append("predicate")
    if pattern.object == variable:
        roles.append("object")
    return "+".join(roles)


class GJVDetector:
    """Runs Algorithm 1 against a federation."""

    def __init__(
        self,
        handler: ElasticRequestHandler,
        source_selection: Dict[TriplePattern, Tuple[str, ...]],
        check_cache: Optional[ProbeCache] = None,
        strict_checks: bool = False,
    ):
        self.handler = handler
        self.selection = source_selection
        self.check_cache = check_cache
        #: also check the reverse direction in the subject/object case
        #: (see DESIGN.md: the paper's Figure 5 checks one direction only)
        self.strict_checks = strict_checks

    def _version(self, endpoint_id: str) -> int:
        """Store version for check-cache keys (stale-read invalidation)."""
        return self.handler.federation.endpoint_version(endpoint_id)

    # ------------------------------------------------------------------

    def begin(self, patterns: Sequence[TriplePattern]) -> "CheckWave":
        """Apply the request-free rules and dispatch the check queries.

        Returns a :class:`CheckWave` whose requests are in flight but not
        yet awaited — the caller may submit more work (e.g. the cost
        model's COUNT probes) into the same scheduler window before
        calling :meth:`collect`.
        """
        report = GJVReport()
        join_entities = self._join_entities(patterns)
        type_constraints = self._type_constraints(patterns)
        check_queries: List[_CheckQuery] = []

        for variable, var_patterns in join_entities.items():
            pairs = [
                (var_patterns[i], var_patterns[j])
                for i in range(len(var_patterns))
                for j in range(i + 1, len(var_patterns))
            ]
            # Predicate-position joins are conservatively global (safe by
            # Lemma 2; the paper defers variable predicates to [3]).
            if any("predicate" in _role(p, variable) for p in var_patterns):
                for a, b in pairs:
                    report.add(variable, a, b)
                continue
            # Lines 8-11: a pair with different relevant sources is global
            # without a check.  The paper's pseudocode then skips the
            # remaining pairs of the variable entirely ("continue" on line
            # 12); we still check the same-source pairs — a pair is only
            # allowed to share a subquery when its locality has actually
            # been verified, otherwise results can be missed (DESIGN.md).
            for a, b in pairs:
                if self.selection.get(a) != self.selection.get(b):
                    report.add(variable, a, b)
                else:
                    check_queries.extend(
                        self._formulate_checks(
                            variable, a, b, type_constraints.get(variable)
                        )
                    )

        return self._submit_checks(check_queries, report)

    def collect(self, wave: "CheckWave") -> GJVReport:
        """Await the check wave and fold the answers into the report.

        With an analysis deadline, checks whose answers have not been
        consumed by the time the slice runs dry are skipped: the
        variable is conservatively assumed global (always sound — it
        only forbids the pair from sharing a subquery) and the in-flight
        futures are left for the handler's close() drain.
        """
        report = wave.report
        if not wave.pending:
            return report
        report.check_queries_sent += len(wave.futures)
        context = self.handler.context
        budget = context.analysis_deadline
        skipped = 0
        for (check, endpoint_id), future in zip(wave.pending, wave.futures):
            if budget is not None and budget.expired(
                context.metrics.virtual_seconds
            ):
                report.add(check.variable, check.outer, check.inner)
                skipped += 1
                continue
            response, error = self.handler.settle(future)
            if error is not None:
                # Partial mode: without an answer, locality cannot be
                # proven — conservatively treat the variable as global,
                # which is always sound (it only forbids the pair from
                # sharing a subquery).  The non-answer is never cached.
                report.add(check.variable, check.outer, check.inner)
                continue
            has_witness = bool(len(response.value))  # type: ignore[arg-type]
            if self.check_cache is not None:
                self.check_cache.put(
                    endpoint_id, check.cache_signature(), has_witness,
                    self._version(endpoint_id),
                )
            if has_witness:
                report.add(check.variable, check.outer, check.inner)
        if skipped:
            context.metrics.deadline_exceeded += 1
            context.trace_event(
                "deadline",
                stage="gjv_checks",
                skipped=skipped,
                expires_at=budget.expires_at,
            )
        return report

    # ------------------------------------------------------------------

    @staticmethod
    def _join_entities(
        patterns: Sequence[TriplePattern],
    ) -> Dict[Variable, List[TriplePattern]]:
        """Variables appearing in more than one triple pattern."""
        by_variable: Dict[Variable, List[TriplePattern]] = {}
        for pattern in patterns:
            for variable in pattern.variables():
                by_variable.setdefault(variable, []).append(pattern)
        return {v: ps for v, ps in by_variable.items() if len(ps) > 1}

    @staticmethod
    def _type_constraints(
        patterns: Sequence[TriplePattern],
    ) -> Dict[Variable, TriplePattern]:
        """``(?v, rdf:type, <T>)`` patterns usable to narrow the checks."""
        constraints: Dict[Variable, TriplePattern] = {}
        for pattern in patterns:
            if (
                pattern.predicate == RDF_TYPE
                and isinstance(pattern.subject, Variable)
                and not isinstance(pattern.object, Variable)
            ):
                constraints.setdefault(pattern.subject, pattern)
        return constraints

    def _formulate_checks(
        self,
        variable: Variable,
        a: TriplePattern,
        b: TriplePattern,
        type_constraint: Optional[TriplePattern],
    ) -> List[_CheckQuery]:
        sources = self.selection.get(a, ())
        if not sources:
            return []
        role_a = _role(a, variable)
        role_b = _role(b, variable)
        checks: List[_CheckQuery] = []

        def add(outer: TriplePattern, inner: TriplePattern) -> None:
            # Figure 5: a (?v rdf:type T) pattern always narrows the check
            # to the locally relevant values of v.  Two consequences:
            # when the constraint IS the inner pattern the difference is
            # empty by construction (no request needed); when it is the
            # outer pattern it would merely duplicate it.
            if type_constraint is not None and type_constraint == inner:
                return
            constraint = type_constraint if type_constraint != outer else None
            checks.append(
                _CheckQuery(variable, outer, inner, constraint, sources)
            )

        if role_a == role_b:  # subject-only or object-only: both directions
            add(a, b)
            add(b, a)
        else:
            # Object and subject (Figure 5): outer is the pattern where the
            # variable is the *object*, inner where it is the *subject*.
            outer, inner = (a, b) if "object" in role_a else (b, a)
            add(outer, inner)
            if self.strict_checks:
                add(inner, outer)
        return checks

    def _submit_checks(
        self, checks: List[_CheckQuery], report: GJVReport
    ) -> "CheckWave":
        """Dispatch the uncached check queries at their relevant endpoints."""
        pending: List[Tuple[_CheckQuery, str]] = []
        for check in checks:
            if report.pair_forbidden(check.outer, check.inner):
                continue
            signature = check.cache_signature()
            for endpoint_id in check.sources:
                cached = (
                    self.check_cache.get(
                        endpoint_id, signature, self._version(endpoint_id)
                    )
                    if self.check_cache
                    else None
                )
                if cached is None:
                    pending.append((check, endpoint_id))
                else:
                    self.handler.context.metrics.cache_hits += 1
                    if cached:
                        report.add(check.variable, check.outer, check.inner)
        futures = [
            self.handler.submit(
                Request(endpoint_id, check.to_sparql(), kind="SELECT")
            )
            for check, endpoint_id in pending
        ]
        return CheckWave(report=report, pending=pending, futures=futures)


@dataclass
class CheckWave:
    """Algorithm 1's in-flight check queries, between begin() and collect()."""

    report: GJVReport
    pending: List[Tuple[_CheckQuery, str]]
    futures: List[ResponseFuture]
