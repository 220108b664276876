"""The paper's experiments: one function per table / figure.

Every function returns plain data (lists of dicts or QueryRun lists) so
the pytest benchmarks, the CLI, and EXPERIMENTS.md generation all share
the same implementations.  Scale parameters default to laptop-size runs;
the *shape* of each result (who wins, by roughly what factor, where the
crossovers fall) is what reproduces the paper, not absolute numbers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core import LusailEngine
from ..baselines import FedXEngine, HibiscusEngine, SplendidEngine
from ..datasets import (
    BIO2RDF_QUERIES,
    Bio2RdfGenerator,
    LRB_QUERIES,
    LUBM_QUERIES,
    LargeRdfBenchGenerator,
    LubmGenerator,
    QFED_QUERIES,
    QFedGenerator,
    QUERY_CATEGORY,
)
from ..endpoint.network import (
    AZURE_GEO,
    AZURE_REGIONS,
    LOCAL_CLUSTER,
    FAST_CLUSTER,
    Region,
    WIDE_AREA,
)
from .harness import QueryRun, SYSTEMS, run_query, run_suite

#: default virtual-time budget: the paper uses one hour
DEFAULT_TIMEOUT = 3600.0


def _geo_regions(endpoint_ids: Sequence[str]) -> Dict[str, Region]:
    """Spread endpoints over the Azure regions, none in the federator's
    central-us (Section 5.3)."""
    remote = [r for r in AZURE_REGIONS if r.name != "central-us"]
    return {
        endpoint_id: remote[index % len(remote)]
        for index, endpoint_id in enumerate(endpoint_ids)
    }


# ----------------------------------------------------------------------
# Table 1 — dataset statistics
# ----------------------------------------------------------------------

def table1_datasets(
    lrb_scale: float = 1.0,
    lubm_universities: int = 4,
) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    qfed = QFedGenerator().build_federation()
    for endpoint in qfed.endpoints():
        rows.append({
            "benchmark": "QFed",
            "endpoint": endpoint.endpoint_id,
            "triples": endpoint.triple_count(),
        })
    rows.append({
        "benchmark": "QFed", "endpoint": "Total", "triples": qfed.total_triples(),
    })
    lrb = LargeRdfBenchGenerator(scale=lrb_scale).build_federation()
    for endpoint in lrb.endpoints():
        rows.append({
            "benchmark": "LargeRDFBench",
            "endpoint": endpoint.endpoint_id,
            "triples": endpoint.triple_count(),
        })
    rows.append({
        "benchmark": "LargeRDFBench",
        "endpoint": "Total",
        "triples": lrb.total_triples(),
    })
    lubm = LubmGenerator(universities=lubm_universities).build_federation()
    rows.append({
        "benchmark": "LUBM",
        "endpoint": f"{lubm_universities} universities",
        "triples": lubm.total_triples(),
    })
    return rows


# ----------------------------------------------------------------------
# Section 5.1 — preprocessing cost (index-based vs index-free)
# ----------------------------------------------------------------------

def preprocessing_costs(lrb_scale: float = 1.0) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for benchmark, federation in (
        ("QFed", QFedGenerator().build_federation()),
        ("LargeRDFBench", LargeRdfBenchGenerator(scale=lrb_scale).build_federation()),
    ):
        splendid = SplendidEngine(federation)
        hibiscus = HibiscusEngine(federation)
        rows.append({
            "benchmark": benchmark,
            "system": "SPLENDID",
            "preprocessing_s": round(splendid.preprocess(), 4),
        })
        rows.append({
            "benchmark": benchmark,
            "system": "HiBISCuS",
            "preprocessing_s": round(hibiscus.preprocess(), 4),
        })
        for system in ("Lusail", "FedX"):
            rows.append({
                "benchmark": benchmark, "system": system, "preprocessing_s": 0.0,
            })
    return rows


# ----------------------------------------------------------------------
# Figure 8 — QFed on the local cluster
# ----------------------------------------------------------------------

def fig8_qfed(
    drugs: int = 600,
    diseases: int = 300,
    side_effects: int = 80,
    timeout_seconds: float = DEFAULT_TIMEOUT,
    systems: Sequence[str] = SYSTEMS,
) -> List[QueryRun]:
    federation = QFedGenerator(
        drugs=drugs, diseases=diseases, side_effects=side_effects
    ).build_federation(network=LOCAL_CLUSTER)
    return run_suite(
        federation, QFED_QUERIES, "QFed", systems, timeout_seconds
    )


# ----------------------------------------------------------------------
# Figure 9 — LUBM on 2 and 4 endpoints
# ----------------------------------------------------------------------

def fig9_lubm(
    endpoint_counts: Tuple[int, ...] = (2, 4),
    timeout_seconds: float = DEFAULT_TIMEOUT,
    systems: Sequence[str] = ("Lusail", "FedX", "HiBISCuS"),
) -> List[QueryRun]:
    runs: List[QueryRun] = []
    for count in endpoint_counts:
        federation = LubmGenerator(universities=count).build_federation()
        for run in run_suite(
            federation, LUBM_QUERIES, f"LUBM-{count}ep", systems, timeout_seconds
        ):
            runs.append(run)
    return runs


# ----------------------------------------------------------------------
# Figure 10 — LargeRDFBench on the local cluster
# ----------------------------------------------------------------------

def fig10_largerdfbench(
    scale: float = 1.0,
    timeout_seconds: float = DEFAULT_TIMEOUT,
    systems: Sequence[str] = SYSTEMS,
    queries: Optional[Dict[str, str]] = None,
    real_time_limit: Optional[float] = None,
) -> List[QueryRun]:
    federation = LargeRdfBenchGenerator(scale=scale).build_federation(
        network=LOCAL_CLUSTER
    )
    return run_suite(
        federation,
        queries or LRB_QUERIES,
        "LargeRDFBench",
        systems,
        timeout_seconds,
        real_time_limit=real_time_limit,
    )


# ----------------------------------------------------------------------
# Figure 11 — geo-distributed federation (Azure profile)
# ----------------------------------------------------------------------

def fig11_geo(
    scale: float = 1.0,
    timeout_seconds: float = DEFAULT_TIMEOUT,
    systems: Sequence[str] = SYSTEMS,
    categories: Tuple[str, ...] = ("complex", "big"),
    real_time_limit: Optional[float] = None,
) -> List[QueryRun]:
    """Complex and large LRB queries with wide-area latency (11a, 11b)."""
    generator = LargeRdfBenchGenerator(scale=scale)
    from ..datasets.largerdfbench import ENDPOINT_IDS

    federation = generator.build_federation(
        network=AZURE_GEO, regions=_geo_regions(ENDPOINT_IDS)
    )
    queries = {
        name: text
        for name, text in LRB_QUERIES.items()
        if QUERY_CATEGORY[name] in categories
    }
    return run_suite(
        federation, queries, "LargeRDFBench-geo", systems, timeout_seconds,
        real_time_limit=real_time_limit,
    )


def fig11c_lubm_geo(
    universities: int = 2,
    timeout_seconds: float = DEFAULT_TIMEOUT,
    systems: Sequence[str] = ("Lusail", "FedX", "HiBISCuS"),
    real_time_limit: Optional[float] = None,
) -> List[QueryRun]:
    generator = LubmGenerator(universities=universities)
    regions = _geo_regions([f"university{i}" for i in range(universities)])
    federation = generator.build_federation(
        network=AZURE_GEO,
        regions={int(k.replace("university", "")): v for k, v in regions.items()},
    )
    return run_suite(
        federation, LUBM_QUERIES, f"LUBM-geo-{universities}ep",
        systems, timeout_seconds, real_time_limit=real_time_limit,
    )


# ----------------------------------------------------------------------
# Table 2 — real (public) endpoints
# ----------------------------------------------------------------------

def table2_real_endpoints(
    timeout_seconds: float = DEFAULT_TIMEOUT,
) -> List[QueryRun]:
    """Bio2RDF + a LargeRDFBench subset over wide-area links with public
    request limits; Lusail vs FedX only (as in the paper)."""
    runs: List[QueryRun] = []
    bio = Bio2RdfGenerator().build_federation()
    runs.extend(run_suite(
        bio, BIO2RDF_QUERIES, "Bio2RDF", ("Lusail", "FedX"), timeout_seconds
    ))
    lrb_subset = {
        name: LRB_QUERIES[name] for name in ("S3", "S4", "S7", "S10", "S14", "C9")
    }
    from ..datasets.largerdfbench import ENDPOINT_IDS

    lrb = LargeRdfBenchGenerator(scale=1.0).build_federation(
        network=WIDE_AREA, regions=_geo_regions(ENDPOINT_IDS)
    )
    for endpoint in lrb.endpoints():
        endpoint.max_requests_per_query = 2000
    runs.extend(run_suite(
        lrb, lrb_subset, "LargeRDFBench-real", ("Lusail", "FedX"), timeout_seconds
    ))
    return runs


# ----------------------------------------------------------------------
# Figure 12 — profiling Lusail
# ----------------------------------------------------------------------

def fig12a_profiling(
    scale: float = 1.0,
    queries: Tuple[str, ...] = ("S10", "C4", "B1"),
) -> List[Dict[str, object]]:
    """Phase breakdown (source selection / analysis / execution)."""
    federation = LargeRdfBenchGenerator(scale=scale).build_federation()
    engine = LusailEngine(federation)
    rows: List[Dict[str, object]] = []
    for name in queries:
        run = run_query(engine, "LargeRDFBench", name, LRB_QUERIES[name], warm=False)
        rows.append({
            "query": name,
            "source_selection_s": round(run.phase_seconds.get("source_selection", 0.0), 6),
            "analysis_s": round(run.phase_seconds.get("analysis", 0.0), 6),
            "execution_s": round(run.phase_seconds.get("execution", 0.0), 6),
            "total_s": round(run.runtime_seconds, 6),
        })
    return rows


def fig12bc_scaling(
    endpoint_counts: Tuple[int, ...] = (4, 16, 64, 256),
    queries: Tuple[str, ...] = ("Q3", "Q4"),
) -> List[Dict[str, object]]:
    """LUBM endpoint sweep with and without the ASK/check caches."""
    rows: List[Dict[str, object]] = []
    for count in endpoint_counts:
        federation = LubmGenerator(
            universities=count,
            departments_per_university=1,
            graduate_students_per_department=8,
            undergraduate_students_per_department=8,
        ).build_federation(network=FAST_CLUSTER)
        for name in queries:
            text = LUBM_QUERIES[name]
            cached_engine = LusailEngine(federation, use_cache=True)
            cold = run_query(
                cached_engine, "LUBM", name, text, warm=False
            )
            warm = run_query(
                cached_engine, "LUBM", name, text, warm=False
            )
            uncached_engine = LusailEngine(federation, use_cache=False)
            uncached = run_query(uncached_engine, "LUBM", name, text, warm=False)
            rows.append({
                "query": name,
                "endpoints": count,
                "source_selection_s": round(
                    cold.phase_seconds.get("source_selection", 0.0), 6
                ),
                "analysis_s": round(cold.phase_seconds.get("analysis", 0.0), 6),
                "execution_s": round(cold.phase_seconds.get("execution", 0.0), 6),
                "total_no_cache_s": round(uncached.runtime_seconds, 6),
                "total_with_cache_s": round(warm.runtime_seconds, 6),
            })
    return rows


# ----------------------------------------------------------------------
# Figure 13 — delayed-subquery threshold sensitivity
# ----------------------------------------------------------------------

def fig13_thresholds(
    scale: float = 1.0,
    timeout_seconds: float = DEFAULT_TIMEOUT,
    thresholds: Tuple[str, ...] = ("mu", "mu+sigma", "mu+2sigma", "outliers"),
) -> List[Dict[str, object]]:
    """Total per-category runtime for each delay threshold, on the Azure
    geo profile (as the paper does)."""
    from ..datasets.largerdfbench import ENDPOINT_IDS

    rows: List[Dict[str, object]] = []
    for threshold in thresholds:
        federation = LargeRdfBenchGenerator(scale=scale).build_federation(
            network=AZURE_GEO, regions=_geo_regions(ENDPOINT_IDS)
        )
        engine = LusailEngine(federation, delay_threshold=threshold)
        totals: Dict[str, float] = {"simple": 0.0, "complex": 0.0, "big": 0.0}
        for name, text in LRB_QUERIES.items():
            run = run_query(
                engine, "LargeRDFBench", name, text,
                timeout_seconds=timeout_seconds,
            )
            totals[QUERY_CATEGORY[name]] += run.runtime_seconds
        for category, total in totals.items():
            rows.append({
                "threshold": threshold,
                "category": category,
                "total_runtime_s": round(total, 4),
            })
    return rows


# ----------------------------------------------------------------------
# Figure 14 — LADE / SAPE ablation
# ----------------------------------------------------------------------

def fig14_ablation(
    timeout_seconds: float = DEFAULT_TIMEOUT,
    lrb_scale: float = 2.0,
) -> List[Dict[str, object]]:
    """FedX vs Lusail-LADE-only vs Lusail-LADE+SAPE, two queries per
    benchmark (as in the paper's Figure 14: queries of medium and high
    complexity where both optimizations have room to act)."""
    cases = []
    qfed = QFedGenerator(
        drugs=900, diseases=80, description_words=1500
    ).build_federation()
    cases.append(("QFed", qfed, "C2P2", QFED_QUERIES["C2P2"]))
    cases.append(("QFed", qfed, "C2P2OF", QFED_QUERIES["C2P2OF"]))
    lubm = LubmGenerator(
        universities=8, graduate_students_per_department=30
    ).build_federation()
    cases.append(("LUBM", lubm, "Q3", LUBM_QUERIES["Q3"]))
    cases.append(("LUBM", lubm, "Q4", LUBM_QUERIES["Q4"]))
    lrb = LargeRdfBenchGenerator(scale=lrb_scale).build_federation()
    cases.append(("LargeRDFBench", lrb, "B2", LRB_QUERIES["B2"]))
    cases.append(("LargeRDFBench", lrb, "B3", LRB_QUERIES["B3"]))

    rows: List[Dict[str, object]] = []
    for benchmark, federation, name, text in cases:
        fedx = run_query(
            FedXEngine(federation), benchmark, name, text,
            timeout_seconds=timeout_seconds,
        )
        lade_only = run_query(
            LusailEngine(federation, enable_sape=False), benchmark, name, text,
            timeout_seconds=timeout_seconds,
        )
        lade_sape = run_query(
            LusailEngine(federation, enable_sape=True), benchmark, name, text,
            timeout_seconds=timeout_seconds,
        )
        rows.append({
            "benchmark": benchmark,
            "query": name,
            "FedX": fedx.runtime_display,
            "LADE": lade_only.runtime_display,
            "LADE+SAPE": lade_sape.runtime_display,
        })
    return rows


# ----------------------------------------------------------------------
# Section 4.1 — cardinality estimation quality (q-error)
# ----------------------------------------------------------------------

def qerror_study(scale: float = 1.0) -> Dict[str, object]:
    """Median q-error of subquery cardinality estimates (paper: 1.09)."""
    federation = LargeRdfBenchGenerator(scale=scale).build_federation()
    engine = LusailEngine(federation)
    qerrors: List[float] = []
    for name, text in LRB_QUERIES.items():
        outcome = engine.execute(text)
        if outcome.status != "OK":
            continue
        for subquery in outcome.decomposition:
            if len(subquery.patterns) < 2:
                continue
            if subquery.delayed:
                continue  # bound evaluation changes the observed size
            estimated = float(subquery.estimated_cardinality or 0.0)
            actual = float(subquery.actual_cardinality or 0)
            if estimated <= 0 or actual <= 0:
                continue
            qerrors.append(max(estimated / actual, actual / estimated))
    qerrors.sort()
    median = qerrors[len(qerrors) // 2] if qerrors else float("nan")
    return {
        "subqueries_measured": len(qerrors),
        "median_qerror": round(median, 4) if qerrors else None,
        "max_qerror": round(qerrors[-1], 4) if qerrors else None,
    }
