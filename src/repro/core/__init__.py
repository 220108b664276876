"""Lusail core: LADE (GJV detection + decomposition) and SAPE execution."""

from .cost import (
    CardinalityEstimator,
    DELAY_THRESHOLDS,
    chauvenet_keep_mask,
    classify_delayed,
    decomposition_cost,
    robust_mean_std,
)
from .decomposer import Decomposer, QueryGraph, compute_projections
from .engine import LusailEngine, QueryResult, UnsupportedQueryError
from .gjv import GJVDetector, GJVReport
from .joins import hash_join, left_outer_join, union_all
from .keyword import KeywordHit, keyword_search
from .optimizer import JoinPlan, Relation, plan_join_order, refine_with_bindings
from .sape import SubqueryEvaluator
from .subquery import Subquery, assign_filters, shared_variables
from .trace import QueryTrace, TraceEvent, render_trace

__all__ = [
    "CardinalityEstimator",
    "DELAY_THRESHOLDS",
    "Decomposer",
    "GJVDetector",
    "GJVReport",
    "JoinPlan",
    "KeywordHit",
    "LusailEngine",
    "QueryGraph",
    "QueryResult",
    "Relation",
    "QueryTrace",
    "Subquery",
    "SubqueryEvaluator",
    "TraceEvent",
    "UnsupportedQueryError",
    "assign_filters",
    "chauvenet_keep_mask",
    "classify_delayed",
    "compute_projections",
    "decomposition_cost",
    "hash_join",
    "keyword_search",
    "left_outer_join",
    "plan_join_order",
    "refine_with_bindings",
    "render_trace",
    "robust_mean_std",
    "shared_variables",
    "union_all",
]
