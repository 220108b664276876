"""ASK-based source selection.

Like FedX and Lusail (both index-free), relevance of an endpoint to a
triple pattern is established by sending ``ASK { pattern }`` to every
endpoint, with answers cached across queries (Section 2).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..rdf.term import Variable
from ..rdf.triple import TriplePattern
from ..sparql.ast import GroupPattern, Query
from ..sparql.serializer import serialize_query
from .cache import ProbeCache, canonical_pattern_key
from .request_handler import ElasticRequestHandler, Request
from .routing import fail_over


def ask_query_text(pattern: TriplePattern) -> str:
    """``ASK { <pattern> }`` as SPARQL text."""
    query = Query(form="ASK", where=GroupPattern(elements=[pattern]))
    return serialize_query(query)


class SourceSelector:
    """Finds the relevant endpoints per triple pattern.

    With a ``router``, declared replicated fragments collapse to one
    copy before any ASK goes out: for every fragment covering the
    pattern, the router picks one member (by the fragment's policy) and
    the others are skipped entirely — neither asked nor eligible for
    downstream checks, probes, or SELECTs.  The choice is memoized per selector (i.e. per
    analyzed group), so every pattern of one query routes to the same
    copy and per-pattern source lists stay equal — the LADE
    decomposition is unaffected by which replica happened to win.
    """

    def __init__(
        self,
        handler: ElasticRequestHandler,
        cache: Optional[ProbeCache] = None,
        router=None,
    ):
        self.handler = handler
        self.cache = cache
        self.router = router
        #: fragment name -> member chosen for this query
        self._fragment_choice: Dict[str, str] = {}

    def _version(self, endpoint_id: str) -> int:
        return self.handler.federation.endpoint_version(endpoint_id)

    def _route_fragments(self, pattern: TriplePattern) -> List[str]:
        """Active endpoints with replica groups collapsed to one copy."""
        federation = self.handler.federation
        endpoint_ids = federation.endpoint_ids
        if self.router is None:
            return endpoint_ids
        metrics = self.handler.context.metrics
        claimed: set = set()
        for fragment in federation.fragments:
            if not fragment.covers(pattern):
                continue
            members = [
                eid for eid in endpoint_ids
                if eid in fragment.endpoints and eid not in claimed
            ]
            if len(members) < 2:
                continue
            chosen = self._fragment_choice.get(fragment.name)
            if chosen is None or chosen not in members:
                chosen = self.router.choose(fragment, members, self.handler)
                self._fragment_choice[fragment.name] = chosen
                metrics.replica_routes += 1
            pruned = [eid for eid in members if eid != chosen]
            endpoint_ids = [eid for eid in endpoint_ids if eid not in pruned]
            claimed.update(members)
            metrics.fragment_pruned += len(pruned)
            self.handler.context.trace_event(
                "fragment_route",
                fragment=fragment.name,
                pattern=pattern.n3(),
                chosen=chosen,
                pruned=pruned,
            )
        return endpoint_ids

    def relevant_sources(self, pattern: TriplePattern) -> Tuple[str, ...]:
        """Endpoint ids (federation order) that can answer ``pattern``."""
        endpoint_ids = self._route_fragments(pattern)
        key = canonical_pattern_key(pattern)
        answers: Dict[str, bool] = {}
        missing: List[str] = []
        for endpoint_id in endpoint_ids:
            cached = (
                self.cache.get(endpoint_id, key, self._version(endpoint_id))
                if self.cache
                else None
            )
            if cached is None:
                missing.append(endpoint_id)
            else:
                answers[endpoint_id] = cached
                self.handler.context.metrics.cache_hits += 1
        rerouted: List[str] = []
        if missing:
            text = ask_query_text(pattern)
            requests = [Request(eid, text, kind="ASK") for eid in missing]
            for future in self.handler.submit_all(requests):
                endpoint_id = future.request.endpoint_id
                response, error = self.handler.settle(future)
                if error is not None:
                    # Partial mode: a dead endpoint drops out of
                    # selection (downstream requests never target it),
                    # unless a fragment sibling answers in its place —
                    # recorded under the sibling's own id, so every
                    # downstream request targets the sibling.  The
                    # failure is never cached: the endpoint may be back
                    # for the next query.
                    answers[endpoint_id] = False
                    future = fail_over(self.handler, future.request, (pattern,))
                    if future is None:
                        continue
                    endpoint_id = future.request.endpoint_id
                    response = future.result()
                    rerouted.append(endpoint_id)
                answer = bool(response.value)
                answers[endpoint_id] = answer
                if self.cache is not None:
                    self.cache.put(
                        endpoint_id, key, answer, self._version(endpoint_id)
                    )
        relevant = [eid for eid in endpoint_ids if answers.get(eid)]
        relevant.extend(
            eid for eid in rerouted if answers.get(eid) and eid not in relevant
        )
        return tuple(relevant)

    def select_all(
        self, patterns: Sequence[TriplePattern]
    ) -> Dict[TriplePattern, Tuple[str, ...]]:
        """Source selection for a whole query's patterns.

        A pattern with an unbound predicate and no bound subject/object is
        relevant to every endpoint without asking (``?s ?p ?o`` matches
        anything non-empty).
        """
        selection: Dict[TriplePattern, Tuple[str, ...]] = {}
        for pattern in patterns:
            if pattern in selection:
                continue
            if all(isinstance(t, Variable) for t in pattern.as_tuple()):
                # Full-replica fragments still collapse here (their copies
                # are interchangeable for any pattern); predicate-set
                # fragments do not cover an unbound predicate.
                selection[pattern] = tuple(self._route_fragments(pattern))
            else:
                selection[pattern] = self.relevant_sources(pattern)
        return selection
