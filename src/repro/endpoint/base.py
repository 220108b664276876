"""The SPARQL endpoint abstraction.

Endpoints expose exactly the protocol surface a remote SPARQL service
would: they accept *query text* and return booleans (ASK) or result sets
(SELECT).  Federated engines never reach into an endpoint's store —
everything flows through :meth:`SPARQLEndpoint.execute`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Protocol, Union

from ..sparql.results import ResultSet
from .network import Region


@dataclass
class EndpointResponse:
    """What comes back from one request."""

    value: Union[bool, ResultSet]
    #: number of solution rows produced while answering (drives the
    #: deterministic endpoint-compute model)
    rows_touched: int
    #: serialized response size in bytes
    bytes_received: int
    #: evaluator-side compute counters for this request (plans built,
    #: batches, intermediate rows, wall time — see
    #: :class:`repro.sparql.plan.EvaluatorStats`); ``None`` when the
    #: endpoint does not instrument its evaluator
    compute: Optional[Dict[str, float]] = None
    #: extra virtual seconds the endpoint took beyond the network model's
    #: prediction (injected latency spikes — see
    #: :class:`repro.endpoint.faults.FaultProfile`)
    latency_penalty_seconds: float = 0.0
    #: the endpoint itself reported its answer as incomplete (a remote
    #: server returned ``X-Lusail-Status: PARTIAL`` or a truncated-tail
    #: document) — folded into the query's CompletenessReport.
    partial: bool = False


class SPARQLEndpoint(Protocol):
    """Anything that can stand in for a remote SPARQL endpoint."""

    endpoint_id: str
    region: Region

    def execute(
        self, query_text: str, timeout_seconds: Optional[float] = None
    ) -> EndpointResponse:
        """Run SPARQL text; ASK yields bool, SELECT yields a ResultSet.

        ``timeout_seconds`` is the caller's wall budget for this attempt.
        Endpoints whose class sets ``wall_clock = True`` are *measured*
        by the request handler and enforce it at their sockets;
        simulated ones are costed by the network model, censored on the
        virtual timeline, and ignore it."""
        ...

    def triple_count(self) -> int:
        """Dataset size (for Table 1 reporting only)."""
        ...
