"""The knob budget, the counter names a ``/stats`` scraper reads, the
row-order contract, the accounting contract of the one store / one
evaluator / one scheduler, and the one benchmark system.

``src/`` used to keep every superseded storage, evaluation and
scheduling path behind an ablation knob (``use_columnar``, ``shards``,
``use_dictionary``, ``use_planner``, ``vectorized_joins``, ``pipeline``,
``streaming``), and the engine mirrored seven request-handler settings
nobody set (``join_threads``, ``breaker_threshold``,
``breaker_cooldown_seconds``, ``request_timeout_seconds``,
``max_inflight``, ``admission``, ``hedge_requests``), plus a
``result_cache`` switch only a deleted harness flipped.  The simulated
replica race (``hedge_threshold_seconds``, on the engine and the
handler) and four handler settings only tests ever set
(``breaker_cooldown_seconds``, ``adaptive_timeout_multiplier``,
``timeout_floor_seconds``, ``timeout_warmup`` — now module constants
in ``federation/request_handler.py``) went the same way, and so did
the second replica model (``register_replica(standby=)``,
``replica_of``, ``Federation(replicas=)``): every copy is a declared
fragment with a ``policy``.  They are
gone; the signatures below are pinned so one cannot come back without
a diff to this file, and so are the fixed ``Metrics.snapshot()`` keys,
so a deleted ``/stats`` counter is a diff here too.

Row *order* used to be pinned only by mode-vs-mode identity tests.  With
one mode left, it is pinned by digests of LUBM Q1–Q4 taken at the commit
that still had the other modes (``b0fdb09``).  Request, byte, clock and
scheduler *accounting* is pinned the same way, by counters taken at the
last commit with two dispatch paths (``052c3fa``); retry, breaker,
refusal and timeout accounting under injected faults by counters
taken at the last commit with two ERH retry loops (``7048a24``); the
straggler rows, at the last commit with the simulated replica race
(``833b21b``).

Wall-clock claims have one home, ``python3 ledger/run.py``; behavioural
gates have one home, this suite.  The ``BENCH_*.json`` snapshot
harnesses that used to be a second measuring system are pinned gone.
"""

import ast
import hashlib
import inspect
import sys
from pathlib import Path

import pytest

from repro.core import LusailEngine
from repro.datasets.directory import (
    DIRECTORY_QUERY,
    build_directory_federation,
)
from repro.datasets.lubm import LUBM_QUERIES, LubmGenerator
from repro.endpoint import FaultProfile, LocalEndpoint
from repro.federation import ElasticRequestHandler, Federation, SourceSelector
from repro.sparql import Evaluator, parse_query
from repro.store import TripleStore

from .faulted import (
    DOWN_ENDPOINT,
    STRAGGLER_SPIKE_SECONDS,
    build_faulted_federation,
)


def _parameters(function):
    return [
        name
        for name in inspect.signature(function).parameters
        if name not in ("self", "cls")
    ]


@pytest.mark.parametrize("function,expected", [
    (TripleStore.__init__, ["triples"]),
    (Evaluator.__init__, ["store", "batch_size"]),
    (LocalEndpoint.from_triples, ["endpoint_id", "triples", "region", "kwargs"]),
    # from_triples forwards **kwargs here
    (LocalEndpoint.__init__, [
        "endpoint_id", "store", "region", "max_requests_per_query",
        "failure_rate", "failure_seed", "faults",
    ]),
    (LubmGenerator.build_federation, ["network", "regions"]),
    (Federation.make_context, [
        "timeout_seconds", "max_intermediate_rows", "join_threads",
        "real_time_limit", "partial_results", "deadline", "reset_windows",
    ]),
    (LusailEngine.__init__, [
        "federation", "pool_size", "delay_threshold", "enable_sape",
        "use_cache", "strict_checks", "values_block_size", "use_threads",
        "max_retries", "partial_results", "breaker", "reset_request_windows",
    ]),
    # what the engine passes the handler; breaker cooldown and the
    # adaptive-timeout multiplier, floor and warm-up are module constants
    (ElasticRequestHandler.__init__, [
        "federation", "context", "pool_size", "use_threads", "max_retries",
        "retry_backoff_seconds", "breaker_threshold", "latency_tracker",
        "request_timeout_seconds",
    ]),
    # one replica model: every copy is a declared fragment
    (Federation.__init__, ["endpoints", "network", "client_region"]),
    (Federation.declare_fragment, [
        "name", "endpoint_ids", "predicates", "policy",
    ]),
])
def test_exact_parameter_names(function, expected):
    assert _parameters(function) == expected


def test_one_replica_declaration():
    """``register_replica`` / ``replica_of`` (a second, standby-only
    replica model) are gone; ``SourceSelector.select_all`` stays, as
    ``ledger/trace.py`` wraps it."""
    for name in ("register_replica", "replica_of", "all_endpoint_ids"):
        assert not hasattr(Federation, name), name
    assert callable(SourceSelector.select_all)


#: ``Metrics.snapshot()``'s fixed keys, in order — what ``/stats``
#: exports per query; the ``phase:``, ``evaluator:`` and ``latency:``
#: families are keyed by phase, counter and endpoint
_SNAPSHOT_KEYS = [
    "requests", "ask_requests", "select_requests", "bytes_sent",
    "bytes_received", "virtual_seconds", "peak_intermediate_rows",
    "cache_hits", "inflight_high_water", "scheduler_waves",
    "lane_utilization", "requests_failed", "retries", "breaker_opens",
    "breaker_fast_fails", "subqueries_degraded", "timeouts",
    "deadline_exceeded", "sheds", "requests_cancelled",
    "result_cache_hits", "result_cache_misses", "requests_avoided",
    "fragment_pruned", "replica_routes", "batches_routed", "replans",
    "ttfb_seconds", "values_dispatches_partial",
]


def test_snapshot_counter_names():
    federation = LubmGenerator(universities=1).build_federation()
    snapshot = LusailEngine(federation).execute(
        LUBM_QUERIES["Q1"]
    ).metrics.snapshot()
    dynamic = ("phase:", "evaluator:", "latency:")
    assert {key.split(":")[0] + ":" for key in snapshot if ":" in key} == set(
        dynamic
    )
    assert [
        key for key in snapshot if not key.startswith(dynamic)
    ] == _SNAPSHOT_KEYS


def test_src_imports_only_stdlib():
    """``pyproject.toml`` declares ``dependencies = []``: every import in
    ``src/repro`` is the package itself or the standard library, so no
    optional dependency can switch a second code path on."""
    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    foreign = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "repro" and top not in sys.stdlib_module_names:
                    foreign.append(f"{path.relative_to(src)}:{node.lineno} {name}")
    assert foreign == []


def _digest(result):
    h = hashlib.sha256(" ".join(v.name for v in result.variables).encode())
    for row in result.rows:
        h.update(b"\n")
        h.update("\t".join("" if c is None else c.n3() for c in row).encode())
    return h.hexdigest()[:16], len(result.rows)


#: query -> (digest, rows) of the federated answer, then of each
#: endpoint's own evaluation, all in emitted order
_GOLDEN = {
    "Q1": [("e3ee632ddbdb91ca", 30), ("eca940c21a3124f3", 16), ("46be51354b0ed2db", 14)],
    "Q2": [("007114d4da3fac4e", 16), ("6d05e493a492f18b", 8), ("61b98e583dd91573", 8)],
    "Q3": [("84a34ddfa5c10c32", 26), ("421f0b43085e1630", 16), ("c62319ac22ac501c", 10)],
    "Q4": [("e8fe3ed0a5cec21d", 48), ("c89f752dd6ab7deb", 16), ("1467ca0f89f38dcc", 16)],
}


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_lubm_rows_in_golden_order(name):
    federation = LubmGenerator(universities=2).build_federation()
    outcome = LusailEngine(federation).execute(LUBM_QUERIES[name])
    assert outcome.status == "OK"
    query = parse_query(LUBM_QUERIES[name])
    observed = [_digest(outcome.result)] + [
        _digest(Evaluator(federation.endpoint(endpoint_id).store).select(query))
        for endpoint_id in federation.endpoint_ids
    ]
    assert observed == _GOLDEN[name]


def _lubm_engine():
    return LusailEngine(LubmGenerator(universities=2).build_federation())


def _directory_engine():
    return LusailEngine(
        build_directory_federation(
            universities=4, students_per_university=2,
            noise_addresses=120, noise_emails=150,
        ),
        pool_size=32, delay_threshold="mu", values_block_size=2,
    )


_ACCOUNTING_WORKLOADS = {
    "Q1": (_lubm_engine, LUBM_QUERIES["Q1"]),
    "Q2": (_lubm_engine, LUBM_QUERIES["Q2"]),
    "Q3": (_lubm_engine, LUBM_QUERIES["Q3"]),
    "Q4": (_lubm_engine, LUBM_QUERIES["Q4"]),
    "directory": (_directory_engine, DIRECTORY_QUERY),
}

#: (workload, entry point) -> [cold run, repeat on the same engine], each
#: (requests, bytes sent + received, virtual seconds, scheduler waves,
#: in-flight high water, result-cache hits)
_GOLDEN_ACCOUNTING = {
    ("Q1", "execute"): [(30, 12758, 0.00756716, 8, 16, 0), (0, 0, 0.0, 0, 0, 2)],
    ("Q1", "execute_streaming"): [(30, 12758, 0.00756716, 8, 16, 0), (0, 0, 0.0, 0, 0, 2)],
    ("Q2", "execute"): [(30, 10878, 0.007554512, 8, 16, 0), (0, 0, 0.0, 0, 0, 2)],
    ("Q2", "execute_streaming"): [(30, 10878, 0.007554512, 8, 16, 0), (0, 0, 0.0, 0, 0, 2)],
    ("Q3", "execute"): [(14, 9534, 0.003564295, 7, 2, 0), (0, 0, 4.875e-06, 0, 0, 4)],
    ("Q3", "execute_streaming"): [(14, 9534, 0.00356267, 8, 2, 0), (0, 0, 4.875e-06, 0, 0, 4)],
    ("Q4", "execute"): [(50, 22188, 0.012620377, 14, 22, 0), (0, 0, 6.625e-06, 0, 0, 4)],
    ("Q4", "execute_streaming"): [(50, 22188, 0.012620377, 14, 22, 0), (0, 0, 6.625e-06, 0, 0, 4)],
    ("directory", "execute"): [(64, 13726, 1.201730083, 7, 16, 0), (0, 0, 2.75e-06, 0, 0, 16)],
    ("directory", "execute_streaming"): [(64, 13726, 1.201729583, 18, 16, 0), (0, 0, 2.75e-06, 0, 0, 16)],
}


@pytest.mark.parametrize("name,entry_point", sorted(_GOLDEN_ACCOUNTING))
def test_accounting_matches_the_two_path_commit(name, entry_point):
    build, query_text = _ACCOUNTING_WORKLOADS[name]
    engine = build()
    observed = []
    for _ in range(2):
        if entry_point == "execute":
            outcome = engine.execute(query_text)
        else:
            outcome = engine.execute_streaming(query_text).drain()
        assert outcome.status == "OK", outcome.error
        metrics = outcome.metrics
        observed.append((
            metrics.requests,
            metrics.bytes_sent + metrics.bytes_received,
            round(metrics.virtual_seconds, 9),
            metrics.scheduler_waves,
            metrics.inflight_high_water,
            metrics.result_cache_hits,
        ))
    assert observed == _GOLDEN_ACCOUNTING[(name, entry_point)]


def _faulted(profile, everywhere=False, with_replica=False):
    generator = LubmGenerator(universities=2)
    targets = (
        [f"university{i}" for i in range(2)] if everywhere else [DOWN_ENDPOINT]
    )
    return build_faulted_federation(
        generator, {target: profile for target in targets}, with_replica
    )


#: name -> (engine factory, execute() keyword arguments)
_FAULTED_WORKLOADS = {
    # transient failures on every member, all absorbed by retries
    "flaky": (lambda: LusailEngine(
        _faulted(FaultProfile(failure_rate=0.15), everywhere=True)
    ), {}),
    # one member hard down: retries exhaust, its breaker opens
    "outage": (lambda: LusailEngine(
        _faulted(FaultProfile.always_down()), partial_results=True
    ), {}),
    # one member refuses its fifth request of every query
    "rate-limit": (lambda: LusailEngine(
        _faulted(FaultProfile(requests_per_query=4)), partial_results=True
    ), {}),
    # one member ~10x slow, with a standby replica: a spike is not a
    # failure, so nothing reroutes and the query waits on the slow lane
    "straggler": (lambda: LusailEngine(
        _faulted(
            FaultProfile(
                latency_spike_rate=1.0,
                latency_spike_seconds=STRAGGLER_SPIKE_SECONDS,
            ),
            with_replica=True,
        ),
    ), {}),
    # one member hard down under a budget: exhausted retries outlast
    # the per-request timeout the deadline implies
    "deadline-outage": (lambda: LusailEngine(
        _faulted(FaultProfile.always_down()), max_retries=4
    ), {"deadline_seconds": 2.0}),
}

#: (workload, query, entry point) -> [cold run, repeat on the same
#: engine], each (status, requests, requests_failed, retries, bytes_sent,
#: virtual seconds, timeouts, breaker_opens)
_GOLDEN_FAULTED = {
    ("flaky", "Q2", "execute"): [("OK", 30, 7, 7, 8366, 1.349005485, 0, 0), ("OK", 0, 0, 0, 0, 0.0, 0, 0)],
    ("flaky", "Q2", "execute_streaming"): [("OK", 30, 7, 7, 8366, 1.349005485, 0, 0), ("OK", 0, 0, 0, 0, 0.0, 0, 0)],
    ("flaky", "Q4", "execute"): [("OK", 50, 11, 11, 10096, 2.640129315, 0, 0), ("OK", 0, 0, 0, 0, 6.625e-06, 0, 0)],
    ("flaky", "Q4", "execute_streaming"): [("OK", 50, 11, 11, 10096, 2.640129315, 0, 0), ("OK", 0, 0, 0, 0, 6.625e-06, 0, 0)],
    ("outage", "Q2", "execute"): [("PARTIAL", 15, 9, 6, 4683, 5.653065972, 0, 1), ("PARTIAL", 0, 9, 6, 1188, 5.647016512, 0, 1)],
    ("outage", "Q2", "execute_streaming"): [("PARTIAL", 15, 9, 6, 4683, 5.653065972, 0, 1), ("PARTIAL", 0, 9, 6, 1188, 5.647016512, 0, 1)],
    ("outage", "Q4", "execute"): [("PARTIAL", 25, 9, 6, 5107, 5.562886305, 0, 1), ("PARTIAL", 0, 9, 6, 873, 5.551805297, 0, 1)],
    ("outage", "Q4", "execute_streaming"): [("PARTIAL", 25, 9, 6, 5107, 5.562886243, 0, 1), ("PARTIAL", 0, 9, 6, 873, 5.551805297, 0, 1)],
    ("rate-limit", "Q2", "execute"): [("PARTIAL", 23, 7, 0, 4633, 0.009678435, 0, 1), ("PARTIAL", 12, 6, 0, 4487, 0.006639893, 0, 1)],
    ("rate-limit", "Q2", "execute_streaming"): [("PARTIAL", 23, 7, 0, 4633, 0.00967431, 0, 1), ("PARTIAL", 12, 6, 0, 4487, 0.006640143, 0, 1)],
    ("rate-limit", "Q4", "execute"): [("PARTIAL", 30, 13, 0, 8927, 0.013281573, 0, 1), ("PARTIAL", 8, 15, 0, 4073, 0.010085974, 0, 1)],
    ("rate-limit", "Q4", "execute_streaming"): [("PARTIAL", 30, 13, 0, 7467, 0.013261956, 0, 1), ("PARTIAL", 8, 15, 0, 4073, 0.010085975, 0, 1)],
    ("straggler", "Q2", "execute"): [("OK", 30, 0, 0, 6990, 3.757554512, 0, 0), ("OK", 0, 0, 0, 0, 0.0, 0, 0)],
    ("straggler", "Q2", "execute_streaming"): [("OK", 30, 0, 0, 6990, 3.757554512, 0, 0), ("OK", 0, 0, 0, 0, 0.0, 0, 0)],
    ("straggler", "Q4", "execute"): [("OK", 50, 0, 0, 8356, 6.262620377, 0, 0), ("OK", 0, 0, 0, 0, 6.625e-06, 0, 0)],
    ("straggler", "Q4", "execute_streaming"): [("OK", 50, 0, 0, 8356, 6.262620377, 0, 0), ("OK", 0, 0, 0, 0, 6.625e-06, 0, 0)],
    ("deadline-outage", "Q2", "execute"): [("PARTIAL", 18, 15, 12, 5562, 1.507671121, 3, 1), ("PARTIAL", 8, 15, 12, 4247, 1.500010125, 3, 1)],
    ("deadline-outage", "Q2", "execute_streaming"): [("PARTIAL", 18, 15, 12, 5562, 1.507671121, 3, 1), ("PARTIAL", 8, 15, 12, 4247, 1.500010125, 3, 1)],
    ("deadline-outage", "Q4", "execute"): [("PARTIAL", 23, 15, 12, 5069, 1.510253011, 3, 1), ("PARTIAL", 11, 15, 12, 3894, 1.500018062, 3, 1)],
    ("deadline-outage", "Q4", "execute_streaming"): [("PARTIAL", 23, 15, 12, 5069, 1.510260261, 3, 1), ("PARTIAL", 11, 15, 12, 3894, 1.500025312, 3, 1)],
}


@pytest.mark.parametrize("name,query,entry_point", sorted(_GOLDEN_FAULTED))
def test_faulted_accounting_matches_the_two_loop_commit(
    name, query, entry_point
):
    build, limits = _FAULTED_WORKLOADS[name]
    engine = build()
    observed = []
    for _ in range(2):
        if entry_point == "execute":
            outcome = engine.execute(LUBM_QUERIES[query], **limits)
        else:
            outcome = engine.execute_streaming(
                LUBM_QUERIES[query], **limits
            ).drain()
        metrics = outcome.metrics
        observed.append((
            outcome.status,
            metrics.requests,
            metrics.requests_failed,
            metrics.retries,
            metrics.bytes_sent,
            round(metrics.virtual_seconds, 9),
            metrics.timeouts,
            metrics.breaker_opens,
        ))
    assert observed == _GOLDEN_FAULTED[(name, query, entry_point)]


#: ``python -m repro.bench --list``: the paper's own tables and figures
#: on the virtual clock, and nothing else
_PAPER_EXPERIMENTS = [
    "table1", "preprocessing", "fig8", "fig9", "fig10", "fig11", "table2",
    "fig12a", "fig12bc", "fig13", "fig14", "qerror",
]


def test_no_snapshot_harness(capsys):
    from repro.bench.__main__ import main as bench_main

    root = Path(__file__).resolve().parent.parent
    assert sorted(path.name for path in root.glob("BENCH_*.json")) == []
    assert bench_main(["--list"]) == 0
    listed = capsys.readouterr().out.split()
    assert listed == ["available", "experiments:"] + _PAPER_EXPERIMENTS
