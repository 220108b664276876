"""The federation: a registry of endpoints plus the network they live on."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from ..endpoint.local import LocalEndpoint
from ..endpoint.metrics import ExecutionContext
from ..endpoint.network import LOCAL_CLUSTER, NetworkModel, Region
from .routing import FragmentDescriptor

DEFAULT_CLIENT_REGION = Region("federator")


class Federation:
    """A set of independent SPARQL endpoints reachable over one network."""

    def __init__(
        self,
        endpoints: Sequence[LocalEndpoint],
        network: NetworkModel = LOCAL_CLUSTER,
        client_region: Region = DEFAULT_CLIENT_REGION,
    ):
        if not endpoints:
            raise ValueError("a federation needs at least one endpoint")
        self._endpoints: Dict[str, LocalEndpoint] = {}
        for endpoint in endpoints:
            if endpoint.endpoint_id in self._endpoints:
                raise ValueError(f"duplicate endpoint id {endpoint.endpoint_id!r}")
            self._endpoints[endpoint.endpoint_id] = endpoint
        self.network = network
        self.client_region = client_region
        #: declared replicated fragments: name -> descriptor,
        #: insertion-ordered
        self._fragments: Dict[str, FragmentDescriptor] = {}

    # -- registry --------------------------------------------------------

    def endpoint(self, endpoint_id: str) -> LocalEndpoint:
        try:
            return self._endpoints[endpoint_id]
        except KeyError:
            raise KeyError(f"unknown endpoint {endpoint_id!r}") from None

    @property
    def endpoint_ids(self) -> List[str]:
        """Active endpoint ids: all but the standbys — the later members
        of a full-replica failover fragment, which serve only when the
        member before them fails."""
        standby = {
            eid
            for fragment in self._fragments.values()
            if fragment.policy == "failover" and fragment.predicates is None
            for eid in fragment.endpoints[1:]
        }
        return [eid for eid in self._endpoints if eid not in standby]

    def endpoints(self) -> Iterable[LocalEndpoint]:
        return self._endpoints.values()

    def endpoint_version(self, endpoint_id: str) -> int:
        """The endpoint store's mutation counter (0 when unavailable).

        Every cache that holds per-endpoint answers (ASK, COUNT, check,
        subquery results) folds this into its key, so mutating a store
        invalidates its cached answers the same way the endpoint's plan
        cache invalidates compiled plans.
        """
        endpoint = self._endpoints.get(endpoint_id)
        store = getattr(endpoint, "store", None)
        return getattr(store, "version", 0)

    def cache_identity(self, endpoint_id: str) -> tuple:
        """``(scope, version token)`` for result-cache keying.

        Endpoints declared byte-identical — members of a *full-replica*
        fragment (``predicates=None``), whatever its policy — share one
        cache scope: the replica router or a failover may legitimately
        send the same subquery to a different copy on the next pass, and
        keying by the answering endpoint's id would then silently miss
        the warm entry (and make ``cache_warm`` cost modeling lie).  The
        version token is the tuple of *all* member store versions, so
        mutating any copy invalidates the shared entries.  Predicate-set
        fragments keep per-endpoint identity: their members are only
        interchangeable for covered patterns, not whole subqueries.
        """
        for fragment in self._fragments.values():
            if fragment.predicates is None and endpoint_id in fragment.endpoints:
                return (
                    f"fragment:{fragment.name}",
                    tuple(self.endpoint_version(e) for e in fragment.endpoints),
                )
        return endpoint_id, self.endpoint_version(endpoint_id)

    # -- replicated fragments ----------------------------------------------

    def declare_fragment(
        self,
        name: str,
        endpoint_ids: Sequence[str],
        predicates: Optional[Iterable] = None,
        policy: str = "balanced",
    ) -> FragmentDescriptor:
        """Declare that ``endpoint_ids`` hold identical copies of a
        fragment: the whole dataset (``predicates=None``) or the triples
        whose predicate is in ``predicates``.  The source selector then
        sends each covered pattern to exactly one member per query — the
        least-loaded one (``policy="balanced"``) or the first one
        (``policy="failover"``; the later members are standbys).  Under
        ``partial_results``, a member that fails past its retry budget is
        replaced by the next member that answers, in declared order.
        """
        ids = tuple(endpoint_ids)
        if len(ids) < 2:
            raise ValueError(
                f"fragment {name!r} needs at least two endpoints to route over"
            )
        if len(set(ids)) != len(ids):
            raise ValueError(f"fragment {name!r} lists a duplicate endpoint")
        for endpoint_id in ids:
            if endpoint_id not in self._endpoints:
                known = ", ".join(sorted(self._endpoints))
                raise KeyError(
                    f"unknown fragment endpoint {endpoint_id!r}: "
                    f"registered endpoints are {known}"
                )
        if name in self._fragments:
            raise ValueError(f"fragment {name!r} is already declared")
        if policy not in ("balanced", "failover"):
            raise ValueError(
                f"fragment {name!r}: policy must be 'balanced' or 'failover'"
            )
        fragment = FragmentDescriptor(
            name=name,
            endpoints=ids,
            predicates=None if predicates is None else frozenset(predicates),
            policy=policy,
        )
        self._fragments[name] = fragment
        return fragment

    @property
    def fragments(self) -> List[FragmentDescriptor]:
        return list(self._fragments.values())

    def __len__(self) -> int:
        return len(self._endpoints)

    def __contains__(self, endpoint_id: str) -> bool:
        return endpoint_id in self._endpoints

    # -- execution support -------------------------------------------------

    def make_context(
        self,
        timeout_seconds: float = 3600.0,
        max_intermediate_rows: int = 5_000_000,
        join_threads: int = 4,
        real_time_limit: float = None,
        partial_results: bool = False,
        deadline=None,
        reset_windows: bool = True,
    ) -> ExecutionContext:
        """Fresh virtual clock and budgets for one query execution.

        ``deadline`` is an optional
        :class:`~repro.federation.deadline.Deadline` — the query's hard
        virtual-time budget, threaded through the context to the
        request handler and every phase that checks it.

        ``reset_windows=False`` skips the per-query endpoint rate-limit
        window reset: under the serving layer many queries run at once,
        and one query's setup must not clear the windows other in-flight
        queries are being measured against.
        """
        if reset_windows:
            self.reset_request_windows()
        return ExecutionContext(
            network=self.network,
            client_region=self.client_region,
            timeout_seconds=timeout_seconds,
            max_intermediate_rows=max_intermediate_rows,
            join_threads=join_threads,
            real_time_limit=real_time_limit,
            partial_results=partial_results,
            deadline=deadline,
        )

    def reset_request_windows(self) -> None:
        for endpoint in self._endpoints.values():
            endpoint.reset_request_window()

    def total_triples(self) -> int:
        return sum(e.triple_count() for e in self._endpoints.values())

    def __repr__(self) -> str:
        return f"Federation({len(self)} endpoints, {self.total_triples()} triples)"
