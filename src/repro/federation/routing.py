"""Declared replicated fragments: load routing and failover.

Montoya et al. (*Replicated Fragments*) observed that a federation
aware of which endpoints replicate the same data fragment can prune all
but one copy from source selection.  A :class:`FragmentDescriptor` is
that one declaration: either a full dataset replica
(``predicates=None``) or a predicate-set fragment, with a *policy* that
says which member serves a covered pattern:

- ``"balanced"`` — the :class:`ReplicaRouter` picks the copy by a
  load/latency score, ``score(ep) = lane backlog(ep) + tracked p50
  latency(ep)``, from the request handler's virtual per-endpoint lane
  occupancy and the engine's
  :class:`~repro.federation.deadline.LatencyTracker` (infinite for a
  copy the tracker marks down until it answers again).  Ties — the
  common cold-start case — rotate round-robin per fragment, so a
  repeated read workload splits across the replicas;
- ``"failover"`` — the first member serves; the others are standbys.
  The later members of a full-replica failover fragment are not even
  active endpoints (:attr:`Federation.endpoint_ids` leaves them out).

Either way, a member that fails past its retry budget is replaced by
its siblings through :func:`fail_over`, the one failover site of both
source selection and subquery dispatch.

The router lives on the engine (one per engine, like the latency
tracker) so its rotation state persists across queries; within a single
query each fragment routes once and every covered pattern goes to the
same copy, keeping per-pattern source lists equal and therefore leaving
the LADE decomposition itself untouched.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from ..rdf.term import Variable
from ..rdf.triple import TriplePattern


@dataclass(frozen=True)
class FragmentDescriptor:
    """One replicated fragment: which endpoints hold identical copies.

    ``predicates=None`` declares a full replica (every triple pattern is
    covered); a predicate set restricts coverage to patterns whose
    predicate is ground and in the set.  ``policy`` is ``"balanced"``
    (the router picks a member) or ``"failover"`` (the first one serves).
    """

    name: str
    endpoints: Tuple[str, ...]
    predicates: Optional[FrozenSet] = None
    policy: str = "balanced"

    def covers(self, pattern: TriplePattern) -> bool:
        if self.predicates is None:
            return True
        predicate = pattern.predicate
        if isinstance(predicate, Variable):
            # An unbound predicate may match triples outside the
            # fragment, where the copies are not interchangeable.
            return False
        return predicate in self.predicates


class ReplicaRouter:
    """Chooses which copy of a replicated fragment serves a query."""

    def __init__(self, latency_tracker=None):
        #: per-endpoint latency quantiles (PR 5); None = backlog only
        self.latency_tracker = latency_tracker
        #: fragment name -> round-robin turn among tied candidates
        self._rotation: Dict[str, int] = {}
        #: endpoint id -> routing decisions that landed on it (the
        #: load-split counter the routing tests assert on)
        self.routed: Dict[str, int] = {}
        #: engine-lifetime state, shared by concurrent queries: the
        #: rotation and routed counters are read-modify-write
        self._lock = threading.Lock()

    def score(self, endpoint_id: str, handler=None) -> float:
        """Lower is better: current lane backlog plus median latency.  A
        copy that failed past its retries on this engine scores worse
        than any live one until it answers again (its failures add no
        latency sample, so it would otherwise score as an idle copy)."""
        tracker = self.latency_tracker
        if tracker is not None and tracker.is_down(endpoint_id):
            return math.inf
        backlog = 0.0
        if handler is not None:
            backlog = handler.lane_backlog(endpoint_id)
        median = None
        if tracker is not None:
            median = tracker.quantile(endpoint_id, 0.5)
        return backlog + (median or 0.0)

    def choose(
        self, fragment: FragmentDescriptor, candidates: Sequence[str], handler=None
    ) -> str:
        """Pick one of ``candidates`` (all replicas of ``fragment``)."""
        if len(candidates) == 1:
            chosen = candidates[0]
        elif fragment.policy == "failover":
            chosen = next(e for e in fragment.endpoints if e in candidates)
        else:
            scores = {eid: self.score(eid, handler) for eid in candidates}
            best = min(scores.values())
            tied = [eid for eid in candidates if scores[eid] <= best + 1e-12]
            with self._lock:
                turn = self._rotation.get(fragment.name, 0)
                self._rotation[fragment.name] = turn + 1
            chosen = tied[turn % len(tied)]
        with self._lock:
            self.routed[chosen] = self.routed.get(chosen, 0) + 1
        return chosen


def fail_over(handler, request, patterns: Sequence[TriplePattern]):
    """Resend a request whose endpoint failed past its retry budget.

    The same text goes to the failed member's siblings — the other
    members of every fragment that holds it and covers all of
    ``patterns`` — in declared order, starting after the failed member
    and wrapping around.  The first sibling that answers is noted as the
    reroute of the failed member and of every sibling that failed before
    it; its settled future is returned (None when none did).
    """
    failed = request.endpoint_id
    tried = {failed}
    lost = [failed]
    for fragment in handler.federation.fragments:
        if failed not in fragment.endpoints or not all(
            fragment.covers(pattern) for pattern in patterns
        ):
            continue
        at = fragment.endpoints.index(failed)
        for sibling in fragment.endpoints[at + 1:] + fragment.endpoints[:at]:
            if sibling in tried:
                continue
            tried.add(sibling)
            future = handler.submit(replace(request, endpoint_id=sibling))
            if handler.settle(future)[1] is None:
                for endpoint_id in lost:
                    handler.context.completeness.note_reroute(endpoint_id, sibling)
                return future
            lost.append(sibling)
    return None
