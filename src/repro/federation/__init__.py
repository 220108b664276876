"""Federation plumbing: endpoint registry, ERH, source selection, caches."""

from .cache import ProbeCache, canonical_pattern_key, check_signature
from .deadline import AdmissionController, Deadline, LatencyTracker
from .federation import DEFAULT_CLIENT_REGION, Federation
from .request_handler import (
    ElasticRequestHandler,
    Request,
    Response,
    ResponseFuture,
)
from .result_cache import (
    ResultCache,
    canonical_subquery_key,
    subquery_cache_key,
)
from .routing import FragmentDescriptor, ReplicaRouter
from .source_selection import SourceSelector, ask_query_text

__all__ = [
    "AdmissionController",
    "DEFAULT_CLIENT_REGION",
    "Deadline",
    "ElasticRequestHandler",
    "FragmentDescriptor",
    "LatencyTracker",
    "Federation",
    "ProbeCache",
    "ReplicaRouter",
    "Request",
    "Response",
    "ResponseFuture",
    "ResultCache",
    "SourceSelector",
    "ask_query_text",
    "canonical_pattern_key",
    "canonical_subquery_key",
    "check_signature",
    "subquery_cache_key",
]
