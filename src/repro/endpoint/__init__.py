"""Simulated SPARQL endpoints, network model, and execution metrics."""

from .base import EndpointResponse, SPARQLEndpoint
from .errors import (
    CircuitBreakerOpenError,
    EndpointConnectionError,
    EndpointProtocolError,
    EndpointRateLimitError,
    EndpointThrottledError,
    EndpointUnavailableError,
    FederationError,
    MemoryLimitError,
    QueryRejectedError,
    QueryTimeoutError,
    RequestTimeoutError,
)
from .faults import FaultInjector, FaultProfile, OutageWindow
from .local import LocalEndpoint
from .metrics import CompletenessReport, ExecutionContext, Metrics
from .network import (
    AZURE_GEO,
    AZURE_REGIONS,
    FAST_CLUSTER,
    LOCAL_CLUSTER,
    LinkProfile,
    NetworkModel,
    Region,
    WIDE_AREA,
)
from .remote import RemoteEndpoint, federate_remotes

__all__ = [
    "AZURE_GEO",
    "AZURE_REGIONS",
    "CircuitBreakerOpenError",
    "CompletenessReport",
    "EndpointConnectionError",
    "EndpointProtocolError",
    "EndpointRateLimitError",
    "EndpointThrottledError",
    "EndpointUnavailableError",
    "EndpointResponse",
    "ExecutionContext",
    "RemoteEndpoint",
    "federate_remotes",
    "FaultInjector",
    "FaultProfile",
    "OutageWindow",
    "FAST_CLUSTER",
    "FederationError",
    "LOCAL_CLUSTER",
    "LinkProfile",
    "LocalEndpoint",
    "MemoryLimitError",
    "Metrics",
    "NetworkModel",
    "QueryRejectedError",
    "QueryTimeoutError",
    "Region",
    "RequestTimeoutError",
    "SPARQLEndpoint",
    "WIDE_AREA",
]
