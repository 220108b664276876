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
        replicas: Optional[Dict[str, str]] = None,
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
        #: primary endpoint id -> standby replica id (fault tolerance:
        #: requests reroute here when the primary stays down)
        self._replicas: Dict[str, str] = {}
        #: replica ids excluded from normal source selection
        self._standby: set = set()
        #: declared replicated fragments (routing-mode replication):
        #: fragment name -> descriptor, insertion-ordered
        self._fragments: Dict[str, FragmentDescriptor] = {}
        for primary, replica in (replicas or {}).items():
            self.register_replica(primary, replica)

    # -- registry --------------------------------------------------------

    def endpoint(self, endpoint_id: str) -> LocalEndpoint:
        try:
            return self._endpoints[endpoint_id]
        except KeyError:
            raise KeyError(f"unknown endpoint {endpoint_id!r}") from None

    @property
    def endpoint_ids(self) -> List[str]:
        """Active endpoint ids (standby replicas excluded)."""
        return [
            eid for eid in self._endpoints if eid not in self._standby
        ]

    @property
    def all_endpoint_ids(self) -> List[str]:
        """Every registered endpoint id, standby replicas included."""
        return list(self._endpoints)

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
        fragment (``predicates=None``) or a primary/standby replica pair
        — share one cache scope: the replica router may legitimately
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
        for primary, replica in self._replicas.items():
            if endpoint_id in (primary, replica):
                return (
                    f"replica-pair:{primary}",
                    (
                        self.endpoint_version(primary),
                        self.endpoint_version(replica),
                    ),
                )
        return endpoint_id, self.endpoint_version(endpoint_id)

    # -- replicas ----------------------------------------------------------

    def _require_endpoint(self, endpoint_id: str, role: str) -> None:
        if endpoint_id not in self._endpoints:
            known = ", ".join(sorted(self._endpoints))
            raise KeyError(
                f"unknown {role} endpoint {endpoint_id!r}: "
                f"registered endpoints are {known}"
            )

    def register_replica(
        self, primary_id: str, replica_id: str, standby: bool = True
    ) -> None:
        """Declare ``replica_id`` a full replica of ``primary_id``.

        With ``standby=True`` (the default, the PR-3 behavior) the
        replica is excluded from normal source selection; it only
        receives traffic when the primary fails past its retry budget
        and the engine is running in partial-results mode (the rerouting
        of Montoya et al.'s replicated-fragment federations).

        With ``standby=False`` both copies stay active and the pair is
        declared as a full-replica fragment: source selection queries
        exactly one copy per query, chosen by the engine's
        :class:`~repro.federation.routing.ReplicaRouter` load/latency
        score — replication as *routing*, not just failover.  The
        replica link is still recorded, so failure rerouting keeps
        working.
        """
        self._require_endpoint(primary_id, "primary")
        self._require_endpoint(replica_id, "replica")
        if primary_id == replica_id:
            raise ValueError("an endpoint cannot be its own replica")
        self._replicas[primary_id] = replica_id
        if standby:
            self._standby.add(replica_id)
        else:
            self.declare_fragment(
                f"replica:{primary_id}", (primary_id, replica_id)
            )

    def replica_of(self, endpoint_id: str) -> Optional[str]:
        return self._replicas.get(endpoint_id)

    # -- replicated fragments ----------------------------------------------

    def declare_fragment(
        self,
        name: str,
        endpoint_ids: Sequence[str],
        predicates: Optional[Iterable] = None,
    ) -> FragmentDescriptor:
        """Declare that ``endpoint_ids`` hold identical copies of a
        fragment: the whole dataset (``predicates=None``) or the triples
        whose predicate is in ``predicates``.  The source selector then
        sends each covered pattern to exactly one member per query.
        """
        ids = tuple(endpoint_ids)
        if len(ids) < 2:
            raise ValueError(
                f"fragment {name!r} needs at least two endpoints to route over"
            )
        if len(set(ids)) != len(ids):
            raise ValueError(f"fragment {name!r} lists a duplicate endpoint")
        for endpoint_id in ids:
            self._require_endpoint(endpoint_id, "fragment")
        if name in self._fragments:
            raise ValueError(f"fragment {name!r} is already declared")
        fragment = FragmentDescriptor(
            name=name,
            endpoints=ids,
            predicates=None if predicates is None else frozenset(predicates),
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
