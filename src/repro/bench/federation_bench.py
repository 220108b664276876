"""Benchmark for the pipelined Elastic Request Handler (futures-based
scheduling across the analysis and SAPE phases).

Two workloads:

- **lubm** — the paper's LUBM figure queries Q1–Q4 on geo-distributed
  same-schema universities.  Every wave of those queries loads every
  endpoint lane uniformly; this workload records the baseline request
  and clock accounting.
- **directory** — a linked-data demo federation in the spirit of the
  paper's demonstration scenario: universities hold students, two
  sharded *address* registries hold places (mostly irrelevant noise,
  the classic bound-join motivation), two sharded *email* registries
  hold mailboxes.  The directory query joins all four; both registry
  subqueries are delayed (bound VALUES evaluation) and bind on
  *different* variables over *different* endpoints, so the scheduler
  runs them in one overlapped wave and the COUNT probes overlap the GJV
  checks.  This is where request overlap shows.

The payload in ``BENCH_federation.json`` records virtual runtimes,
request counts, and the scheduler counters (in-flight high water, waves,
lane utilization).  The barrier scheduler these were once compared
against is gone (recoverable from ``052c3fa``, where it was never
faster); ``check()`` holds the counters to absolute floors instead.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.engine import LusailEngine
from ..datasets.lubm import LUBM_QUERIES, LubmGenerator
from ..endpoint.local import LocalEndpoint
from ..endpoint.network import AZURE_GEO, AZURE_REGIONS, Region
from ..federation.federation import Federation
from ..rdf.namespace import RDF_TYPE, UB
from ..rdf.term import IRI, Literal
from ..rdf.triple import Triple

DEFAULT_OUTPUT = "BENCH_federation.json"

#: the directory workload's delayed subqueries must overlap: at least
#: this many requests in flight at once (per-block barriers reached 16)
MIN_DIRECTORY_INFLIGHT_HIGH_WATER = 24
#: ... submitted in at most this many waves (per-block barriers: 18+)
MAX_DIRECTORY_SCHEDULER_WAVES = 8
#: pass 2 of the repeated workload must use at most 1/10 of the requests
MIN_REPEAT_REQUEST_DROP = 10
#: streaming must reach first results this much sooner than the
#: materialized path finishes, on the delayed-subquery workload
MIN_STREAMING_TTFB_SPEEDUP = 2.0
#: and may never stretch any query's makespan beyond this factor
MAX_STREAMING_MAKESPAN_RATIO = 1.1
#: students per university in the streaming directory scenario — scaled
#: so delayed-block execution (not analysis probes) dominates the
#: makespan, which is where time-to-first-result matters
STREAMING_STUDENTS_PER_UNIVERSITY = 4

_UNIVERSITY_REGIONS = [
    Region("east-us"), Region("west-us"), Region("south-central-us"),
]
_ADDRESS_REGIONS = [Region("north-europe"), Region("west-europe")]
_EMAIL_REGIONS = [Region("uk-south"), Region("north-europe")]


def _university_iri(index: int) -> IRI:
    return IRI(f"http://www.university{index}.edu/University{index}")


def _student_iri(university: int, index: int) -> IRI:
    return IRI(
        f"http://www.university{university}.edu/GraduateStudent{index}"
    )


def build_directory_federation(
    universities: int = 12,
    students_per_university: int = 1,
    noise_addresses: int = 4000,
    noise_emails: int = 7000,
) -> Federation:
    """Universities (near regions) + sharded address/email registries
    (far regions), GeoNames-style: registries are big, but only the rows
    matching the universities' bindings matter."""
    endpoints: List[LocalEndpoint] = []
    students: List[IRI] = []
    for index in range(universities):
        triples: List[Triple] = []
        for s in range(students_per_university):
            student = _student_iri(index, s)
            students.append(student)
            triples.append(Triple(student, RDF_TYPE, UB.GraduateStudent))
            triples.append(Triple(
                student,
                UB.undergraduateDegreeFrom,
                _university_iri((index + 1 + s) % universities),
            ))
        endpoints.append(LocalEndpoint.from_triples(
            f"university{index}",
            triples,
            region=_UNIVERSITY_REGIONS[index % len(_UNIVERSITY_REGIONS)],
        ))
    for shard, region in enumerate(_ADDRESS_REGIONS):
        triples = [
            Triple(
                _university_iri(index), UB.address,
                Literal(f"{100 + index} College Road, City{index}"),
            )
            for index in range(universities)
            if index % len(_ADDRESS_REGIONS) == shard
        ]
        triples.extend(
            Triple(
                IRI(f"http://places.example.org/s{shard}/Place{n}"),
                UB.address,
                Literal(f"{n} Nowhere Lane"),
            )
            for n in range(noise_addresses // len(_ADDRESS_REGIONS))
        )
        endpoints.append(LocalEndpoint.from_triples(
            f"addresses{shard}", triples, region=region,
        ))
    for shard, region in enumerate(_EMAIL_REGIONS):
        triples = [
            Triple(student, UB.emailAddress,
                   Literal(f"student{i}@example.edu"))
            for i, student in enumerate(students)
            if i % len(_EMAIL_REGIONS) == shard
        ]
        triples.extend(
            Triple(
                IRI(f"http://people.example.org/s{shard}/Person{n}"),
                UB.emailAddress,
                Literal(f"noise{n}@example.org"),
            )
            for n in range(noise_emails // len(_EMAIL_REGIONS))
        )
        endpoints.append(LocalEndpoint.from_triples(
            f"emails{shard}", triples, region=region,
        ))
    return Federation(endpoints, network=AZURE_GEO)


#: the directory query: student + alma mater address + mailbox.  The
#: address subquery binds on ?u, the email subquery on ?x — disjoint
#: variables over disjoint endpoints, so the scheduler evaluates both
#: delayed subqueries in one wave.
DIRECTORY_QUERY = f"""
SELECT ?x ?u ?a ?e WHERE {{
  ?x <{RDF_TYPE.value}> <{UB.base}GraduateStudent> .
  ?x <{UB.base}undergraduateDegreeFrom> ?u .
  ?u <{UB.base}address> ?a .
  ?x <{UB.base}emailAddress> ?e .
}}
"""


def _lubm_regions(universities: int) -> Dict[int, Region]:
    remote = [r for r in AZURE_REGIONS if r.name != "central-us"]
    return {i: remote[i % len(remote)] for i in range(universities)}


def _measure(
    name: str,
    build_federation,
    query_text: str,
    **engine_kwargs,
) -> Dict[str, object]:
    outcome = LusailEngine(build_federation(), **engine_kwargs).execute(
        query_text
    )
    if not outcome.ok:
        raise AssertionError(f"{name}: query failed: {outcome.error}")
    metrics = outcome.metrics
    return {
        "query": name,
        "rows": len(outcome.result.rows),
        "delayed_subqueries": sum(
            1 for sq in outcome.decomposition if sq.delayed
        ),
        "pipelined": {
            "virtual_seconds": round(metrics.virtual_seconds, 4),
            "requests": metrics.requests,
            "inflight_high_water": metrics.inflight_high_water,
            "scheduler_waves": metrics.scheduler_waves,
            "lane_utilization": round(metrics.lane_utilization(), 4),
            "phase_seconds": {
                k: round(v, 4) for k, v in metrics.phase_seconds.items()
            },
        },
    }


def _repeated_workload(
    lubm_universities: int,
    directory_universities: int,
    lubm_queries: Sequence[str],
) -> Dict[str, object]:
    """Two passes over the whole workload on warm engines (ISSUE 7).

    Pass 1 runs every query cold; pass 2 repeats the identical workload
    on the same engines, so the federation-wide result cache answers the
    subqueries without touching the endpoints.  A ``result_cache=False``
    ablation replays both passes and must return bit-identical (sorted)
    rows — the cache may only remove requests, never change answers.
    """
    regions = _lubm_regions(lubm_universities)
    generator = LubmGenerator(universities=lubm_universities)

    def build_workload(result_cache: bool):
        lubm_engine = LusailEngine(
            generator.build_federation(network=AZURE_GEO, regions=regions),
            pool_size=8,
            delay_threshold="mu+sigma",
            values_block_size=16,
            result_cache=result_cache,
        )
        directory_engine = LusailEngine(
            build_directory_federation(
                universities=directory_universities
            ),
            pool_size=32,
            delay_threshold="mu",
            values_block_size=2,
            result_cache=result_cache,
        )
        workload = [
            (lubm_engine, f"LUBM-{name}", LUBM_QUERIES[name])
            for name in lubm_queries
        ]
        workload.append((directory_engine, "directory", DIRECTORY_QUERY))
        return workload

    def run_pass(workload) -> Dict[str, object]:
        requests = 0
        makespan = 0.0
        cache_hits = 0
        rows: Dict[str, List[Tuple[str, ...]]] = {}
        for engine, name, text in workload:
            outcome = engine.execute(text)
            if not outcome.ok:
                raise AssertionError(
                    f"repeated_workload: {name} failed: {outcome.error}"
                )
            requests += outcome.metrics.requests
            makespan += outcome.metrics.virtual_seconds
            cache_hits += outcome.metrics.result_cache_hits
            rows[name] = sorted(
                tuple("" if cell is None else cell.n3() for cell in row)
                for row in outcome.result.rows
            )
        return {
            "requests": requests,
            "virtual_seconds": round(makespan, 4),
            "result_cache_hits": cache_hits,
            "rows": rows,
        }

    cached = build_workload(True)
    pass1 = run_pass(cached)
    pass2 = run_pass(cached)
    ablation_pass2 = run_pass(build_workload(False))
    for name, expected in pass1["rows"].items():
        if not (expected == pass2["rows"][name]
                == ablation_pass2["rows"][name]):
            raise AssertionError(
                f"repeated_workload: {name} rows differ between passes "
                "or against the result_cache=False ablation"
            )
    summary = {
        "queries": [name for _, name, _ in cached],
        "request_drop": round(
            pass1["requests"] / max(pass2["requests"], 1), 1
        ),
        "ablation_bit_identical": True,
        "ablation_pass2_requests": ablation_pass2["requests"],
    }
    for label, payload in (("pass1", pass1), ("pass2", pass2)):
        summary[label] = {
            "requests": payload["requests"],
            "virtual_seconds": payload["virtual_seconds"],
            "result_cache_hits": payload["result_cache_hits"],
        }
    return summary


def _streaming_comparison(
    lubm_universities: int,
    directory_universities: int,
    lubm_queries: Sequence[str],
) -> List[Dict[str, object]]:
    """Streaming vs materialized: TTFB alongside makespan (ISSUE 9).

    Every workload runs both ways on fresh engines: the ``execute()``
    baseline and ``execute_streaming()`` (same result set, first batch
    emitted at ``ttfb_seconds``).
    """
    regions = _lubm_regions(lubm_universities)
    generator = LubmGenerator(universities=lubm_universities)
    workloads = [
        (
            f"LUBM-{name}",
            lambda: generator.build_federation(
                network=AZURE_GEO, regions=regions
            ),
            LUBM_QUERIES[name],
            dict(pool_size=8, delay_threshold="mu+sigma",
                 values_block_size=16),
        )
        for name in lubm_queries
    ]
    workloads.append((
        "directory",
        lambda: build_directory_federation(
            universities=directory_universities,
            students_per_university=STREAMING_STUDENTS_PER_UNIVERSITY,
        ),
        DIRECTORY_QUERY,
        dict(pool_size=32, delay_threshold="mu", values_block_size=2),
    ))
    rows: List[Dict[str, object]] = []
    for name, build_federation, query_text, kwargs in workloads:
        baseline = LusailEngine(build_federation(), **kwargs).execute(
            query_text
        )
        if not baseline.ok:
            raise AssertionError(
                f"streaming comparison: {name} baseline failed: "
                f"{baseline.error}"
            )
        handle = LusailEngine(
            build_federation(), **kwargs
        ).execute_streaming(query_text)
        batches = sum(1 for _ in handle.batches())
        streamed = handle.result
        if not streamed.status == "OK":
            raise AssertionError(
                f"streaming comparison: {name} streaming run failed: "
                f"{streamed.error}"
            )
        if sorted(streamed.result.rows, key=repr) != sorted(
            baseline.result.rows, key=repr
        ):
            raise AssertionError(
                f"streaming comparison: {name} streaming rows differ "
                f"({len(streamed.result.rows)} vs "
                f"{len(baseline.result.rows)})"
            )
        metrics = streamed.metrics
        makespan = baseline.metrics.virtual_seconds
        rows.append({
            "query": name,
            "rows": len(baseline.result.rows),
            "materialized": {
                "virtual_seconds": round(makespan, 4),
                "ttfb_seconds": round(makespan, 4),
                "requests": baseline.metrics.requests,
            },
            "streaming": {
                "virtual_seconds": round(metrics.virtual_seconds, 4),
                "ttfb_seconds": round(metrics.ttfb_seconds, 4),
                "requests": metrics.requests,
                "result_batches": batches,
                "batches_routed": metrics.batches_routed,
                "values_dispatches_partial":
                    metrics.values_dispatches_partial,
                "replans": metrics.replans,
            },
            "ttfb_speedup": round(
                makespan / max(metrics.ttfb_seconds, 1e-9), 3
            ),
            "makespan_ratio": round(
                metrics.virtual_seconds / max(makespan, 1e-9), 4
            ),
        })
    return rows


def run_federation(
    lubm_universities: int = 6,
    directory_universities: int = 12,
    lubm_queries: Sequence[str] = ("Q1", "Q2", "Q3", "Q4"),
) -> Dict[str, object]:
    """Run every workload; returns the payload."""
    rows: List[Dict[str, object]] = []
    regions = _lubm_regions(lubm_universities)
    generator = LubmGenerator(universities=lubm_universities)
    for name in lubm_queries:
        rows.append(_measure(
            f"LUBM-{name}",
            lambda: generator.build_federation(
                network=AZURE_GEO, regions=regions
            ),
            LUBM_QUERIES[name],
            values_block_size=16,
            delay_threshold="mu+sigma",
            pool_size=8,
        ))
    rows.append(_measure(
        "directory",
        lambda: build_directory_federation(
            universities=directory_universities
        ),
        DIRECTORY_QUERY,
        values_block_size=2,
        delay_threshold="mu",
        pool_size=32,
    ))
    return {
        "benchmark": "federation-pipeline",
        "lubm_universities": lubm_universities,
        "directory_universities": directory_universities,
        "queries": rows,
        "repeated_workload": _repeated_workload(
            lubm_universities, directory_universities, lubm_queries
        ),
        "streaming": _streaming_comparison(
            lubm_universities, directory_universities, lubm_queries
        ),
    }


def check(
    lubm_universities: int = 2,
    directory_universities: int = 8,
) -> Dict[str, object]:
    """Fast smoke mode (<30 s) asserting shape stability:

    - the directory workload keeps ≥ 2 delayed subqueries, and their
      overlap stays visible in the scheduler counters: in-flight high
      water and submission waves against absolute floors;
    - pass 2 of the repeated workload is served from the result cache;
    - streaming reaches first results ≥ ``MIN_STREAMING_TTFB_SPEEDUP``
      sooner on the directory workload without stretching any makespan.
    """
    payload = run_federation(
        lubm_universities=lubm_universities,
        directory_universities=directory_universities,
        lubm_queries=("Q3", "Q4"),
    )
    directory = next(
        row for row in payload["queries"] if row["query"] == "directory"
    )
    if directory["delayed_subqueries"] < 2:
        raise AssertionError(
            "directory workload lost its delayed subqueries "
            f"({directory['delayed_subqueries']})"
        )
    counters = directory["pipelined"]
    if counters["inflight_high_water"] < MIN_DIRECTORY_INFLIGHT_HIGH_WATER:
        raise AssertionError(
            "directory run lost its request overlap (high water "
            f"{counters['inflight_high_water']} < "
            f"{MIN_DIRECTORY_INFLIGHT_HIGH_WATER})"
        )
    if counters["scheduler_waves"] > MAX_DIRECTORY_SCHEDULER_WAVES:
        raise AssertionError(
            "directory run no longer merges submission waves "
            f"({counters['scheduler_waves']} > "
            f"{MAX_DIRECTORY_SCHEDULER_WAVES})"
        )
    repeated = payload["repeated_workload"]
    if (repeated["pass2"]["requests"] * MIN_REPEAT_REQUEST_DROP
            > repeated["pass1"]["requests"]):
        raise AssertionError(
            "repeated workload pass 2 used "
            f"{repeated['pass2']['requests']} requests, more than "
            f"1/{MIN_REPEAT_REQUEST_DROP} of pass 1's "
            f"{repeated['pass1']['requests']}"
        )
    if repeated["pass2"]["result_cache_hits"] < 1:
        raise AssertionError(
            "repeated workload pass 2 never hit the result cache"
        )
    if (repeated["pass2"]["requests"]
            >= repeated["ablation_pass2_requests"]):
        raise AssertionError(
            "result cache did not reduce pass-2 requests versus the "
            f"result_cache=False ablation ({repeated['pass2']['requests']}"
            f" vs {repeated['ablation_pass2_requests']})"
        )
    for row in payload["streaming"]:
        if row["makespan_ratio"] > MAX_STREAMING_MAKESPAN_RATIO:
            raise AssertionError(
                f"{row['query']}: streaming stretched the makespan "
                f"{row['makespan_ratio']}x, above the "
                f"{MAX_STREAMING_MAKESPAN_RATIO}x ceiling"
            )
    streaming_directory = next(
        row for row in payload["streaming"] if row["query"] == "directory"
    )
    if streaming_directory["ttfb_speedup"] < MIN_STREAMING_TTFB_SPEEDUP:
        raise AssertionError(
            "directory streaming TTFB speedup "
            f"{streaming_directory['ttfb_speedup']}x below the "
            f"{MIN_STREAMING_TTFB_SPEEDUP}x floor"
        )
    if streaming_directory["streaming"]["values_dispatches_partial"] < 1:
        raise AssertionError(
            "directory streaming run never dispatched a VALUES block "
            "from partial bindings"
        )
    payload["check"] = "ok"
    return payload


def write_results(payload: Dict[str, object], path: Optional[str] = None) -> Path:
    target = Path(path) if path else Path.cwd() / DEFAULT_OUTPUT
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return target


def format_report(payload: Dict[str, object]) -> str:
    lines = [
        "Federation scheduling: pipelined futures",
        f"LUBM x{payload['lubm_universities']} universities, "
        f"directory x{payload['directory_universities']} universities",
    ]
    for row in payload["queries"]:
        pipelined = row["pipelined"]
        lines.append(
            f"  {row['query']}: {row['rows']} rows, "
            f"{row['delayed_subqueries']} delayed"
            f" | {pipelined['virtual_seconds']:.3f}s"
            f" ({pipelined['requests']} req, hw "
            f"{pipelined['inflight_high_water']},"
            f" {pipelined['scheduler_waves']} waves)"
        )
    for row in payload.get("streaming", []):
        streaming = row["streaming"]
        lines.append(
            f"  {row['query']}: streaming ttfb "
            f"{streaming['ttfb_seconds']:.3f}s vs materialized "
            f"{row['materialized']['virtual_seconds']:.3f}s "
            f"({row['ttfb_speedup']:.2f}x to first result, makespan "
            f"{row['makespan_ratio']:.2f}x, "
            f"{streaming['result_batches']} batches, "
            f"{streaming['values_dispatches_partial']} partial VALUES "
            "dispatches)"
        )
    repeated = payload.get("repeated_workload")
    if repeated:
        lines.append(
            "  repeated workload: "
            f"pass1 {repeated['pass1']['requests']} req "
            f"({repeated['pass1']['virtual_seconds']:.3f}s) | "
            f"pass2 {repeated['pass2']['requests']} req "
            f"({repeated['pass2']['virtual_seconds']:.3f}s, "
            f"{repeated['pass2']['result_cache_hits']} cache hits) | "
            f"{repeated['request_drop']:.0f}x fewer requests, "
            "ablation bit-identical"
        )
    return "\n".join(lines)
