"""Resilience benchmark: fault injection × breaker × partial results.

Sweeps the LUBM federation through the failure modes a public-endpoint
federation actually sees (the paper's Table 2 shows FedX erroring out
against Bio2RDF) and records what each mitigation buys:

- **flaky** — i.i.d. transient failures (``failure_rate``) on every
  endpoint.  The retry budget must absorb them: answers stay exactly
  equal to the fault-free run, while the honest accounting shows up in
  ``requests_failed``, ``retries`` and the extra ``virtual_seconds``
  the backoffs cost.
- **outage** — one endpoint hard-down (``FaultProfile.always_down``).
  Without partial results the query aborts with ``RE`` (a FedX-style
  engine with no retries aborts even faster); with
  ``partial_results=True`` the remaining endpoints' answers come back
  as a ``PARTIAL`` result with a completeness report.  The circuit
  breaker turns the dead endpoint's repeated retry storms into fast
  fails, cutting the virtual time burned on it.
- **replica** — the down endpoint has a registered standby replica;
  rerouting recovers the *full* answer and the run reports complete.
- **straggler** — one endpoint answers but 10x slower
  (``latency_spike_rate=1.0``).  Without hedging the whole query waits
  on the slow lane; with hedged requests every call that exceeds the
  hedge threshold races a speculative copy on the standby replica and
  the virtual makespan drops by >= 2x, with ``hedges_won`` recording
  the races the replica won.
- **deadline** — one endpoint stalled effectively forever, under a
  hard per-query deadline.  Without a replica the engine returns
  whatever it has as ``PARTIAL`` *within* the budget (plus at most one
  request timeout); with a replica and hedging it recovers the full
  answer, still inside the budget.

``BENCH_resilience.json`` records every scenario row; ``--check``
asserts the invariants above.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..core.engine import LusailEngine
from ..datasets.lubm import LUBM_QUERIES, LubmGenerator
from ..endpoint.faults import FaultProfile
from ..endpoint.local import LocalEndpoint
from ..federation.federation import Federation

DEFAULT_OUTPUT = "BENCH_resilience.json"

#: the endpoint taken down in the outage / replica scenarios
DOWN_ENDPOINT = "university1"
REPLICA_ENDPOINT = "university1-replica"

#: transient-failure rates for the flaky sweep
FLAKY_RATES = (0.05, 0.15)

#: added latency of the straggler endpoint (roughly 10x a healthy call)
STRAGGLER_SPIKE_SECONDS = 0.25
#: hedge as soon as a request runs this far past the usual latency
HEDGE_THRESHOLD_SECONDS = 0.02
#: "stalled forever" relative to any reasonable query budget
STALL_SECONDS = 1e6
#: per-query budget for the deadline scenarios
DEADLINE_SECONDS = 2.0


def _build_federation(
    generator: LubmGenerator,
    fault_profiles: Optional[Dict[str, FaultProfile]] = None,
    with_replica: bool = False,
) -> Federation:
    """LUBM federation with per-endpoint fault profiles, optionally
    with a fault-free standby replica of :data:`DOWN_ENDPOINT`."""
    profiles = fault_profiles or {}
    endpoints: List[LocalEndpoint] = []
    for index in range(generator.universities):
        endpoint_id = f"university{index}"
        endpoints.append(LocalEndpoint.from_triples(
            endpoint_id,
            generator.generate_university(index),
            faults=profiles.get(endpoint_id),
        ))
    if with_replica:
        down_index = int(DOWN_ENDPOINT.removeprefix("university"))
        endpoints.append(LocalEndpoint.from_triples(
            REPLICA_ENDPOINT, generator.generate_university(down_index),
        ))
    federation = Federation(endpoints)
    if with_replica:
        federation.register_replica(DOWN_ENDPOINT, REPLICA_ENDPOINT)
    return federation


def _run_one(
    federation: Federation,
    query_text: str,
    *,
    partial_results: bool,
    breaker: bool,
    max_retries: int = 2,
    deadline_seconds: Optional[float] = None,
    **engine_kwargs,
) -> Dict[str, object]:
    engine = LusailEngine(
        federation,
        partial_results=partial_results,
        breaker=breaker,
        max_retries=max_retries,
        **engine_kwargs,
    )
    outcome = engine.execute(query_text, deadline_seconds=deadline_seconds)
    metrics = outcome.metrics
    row: Dict[str, object] = {
        "status": outcome.status,
        "rows": sorted(
            tuple("" if cell is None else cell.n3() for cell in r)
            for r in outcome.result.rows
        ) if outcome.result is not None else None,
        "virtual_seconds": round(metrics.virtual_seconds, 4),
        "requests": metrics.requests,
        "requests_failed": metrics.requests_failed,
        "retries": metrics.retries,
        "breaker_opens": metrics.breaker_opens,
        "breaker_fast_fails": metrics.breaker_fast_fails,
        "subqueries_degraded": metrics.subqueries_degraded,
        "timeouts": metrics.timeouts,
        "deadline_exceeded": metrics.deadline_exceeded,
        "hedges_launched": metrics.hedges_launched,
        "hedges_won": metrics.hedges_won,
    }
    if outcome.completeness is not None:
        row["completeness"] = outcome.completeness.to_dict()
    if outcome.error is not None:
        row["error"] = outcome.error
    return row


def run_resilience(
    universities: int = 2,
    queries: Sequence[str] = ("Q1", "Q2"),
    flaky_rates: Sequence[float] = FLAKY_RATES,
) -> Dict[str, object]:
    """Run the full scenario grid; returns the payload."""
    generator = LubmGenerator(universities=universities)
    scenarios: List[Dict[str, object]] = []
    for name in queries:
        query_text = LUBM_QUERIES[name]
        baseline = _run_one(
            _build_federation(generator), query_text,
            partial_results=False, breaker=True,
        )
        scenarios.append({
            "query": name, "scenario": "fault-free",
            "failure_rate": 0.0, "breaker": True, "partial": False,
            **baseline,
        })
        # Flaky sweep: rate x breaker, retries must absorb everything.
        for rate in flaky_rates:
            profiles = {
                f"university{i}": FaultProfile(failure_rate=rate)
                for i in range(universities)
            }
            for breaker in (True, False):
                scenarios.append({
                    "query": name, "scenario": "flaky",
                    "failure_rate": rate, "breaker": breaker,
                    "partial": False,
                    **_run_one(
                        _build_federation(generator, profiles), query_text,
                        partial_results=False, breaker=breaker,
                    ),
                })
        # Hard outage on one endpoint.
        outage = {DOWN_ENDPOINT: FaultProfile.always_down()}
        scenarios.append({
            "query": name, "scenario": "outage-fedx-style",
            "failure_rate": None, "breaker": False, "partial": False,
            **_run_one(
                _build_federation(generator, outage), query_text,
                partial_results=False, breaker=False, max_retries=0,
            ),
        })
        scenarios.append({
            "query": name, "scenario": "outage-abort",
            "failure_rate": None, "breaker": True, "partial": False,
            **_run_one(
                _build_federation(generator, outage), query_text,
                partial_results=False, breaker=True,
            ),
        })
        for breaker in (True, False):
            scenarios.append({
                "query": name, "scenario": "outage-partial",
                "failure_rate": None, "breaker": breaker, "partial": True,
                **_run_one(
                    _build_federation(generator, outage), query_text,
                    partial_results=True, breaker=breaker,
                ),
            })
        scenarios.append({
            "query": name, "scenario": "outage-replica",
            "failure_rate": None, "breaker": True, "partial": True,
            **_run_one(
                _build_federation(generator, outage, with_replica=True),
                query_text, partial_results=True, breaker=True,
            ),
        })
        # Straggler: one endpoint ~10x slower; hedging races the replica.
        # (Replica present in both runs so the federations are identical;
        # the spike is not a failure, so it never triggers a reroute.)
        straggler = {
            DOWN_ENDPOINT: FaultProfile(
                latency_spike_rate=1.0,
                latency_spike_seconds=STRAGGLER_SPIKE_SECONDS,
            )
        }
        scenarios.append({
            "query": name, "scenario": "straggler-nohedge",
            "failure_rate": None, "breaker": True, "partial": False,
            **_run_one(
                _build_federation(generator, straggler, with_replica=True),
                query_text, partial_results=False, breaker=True,
            ),
        })
        scenarios.append({
            "query": name, "scenario": "straggler-hedge",
            "failure_rate": None, "breaker": True, "partial": False,
            **_run_one(
                _build_federation(generator, straggler, with_replica=True),
                query_text, partial_results=False, breaker=True,
                hedge_threshold_seconds=HEDGE_THRESHOLD_SECONDS,
            ),
        })
        # Deadline: one endpoint stalled forever under a hard budget.
        stall = {
            DOWN_ENDPOINT: FaultProfile(
                latency_spike_rate=1.0, latency_spike_seconds=STALL_SECONDS,
            )
        }
        scenarios.append({
            "query": name, "scenario": "deadline-partial",
            "failure_rate": None, "breaker": True, "partial": True,
            **_run_one(
                _build_federation(generator, stall), query_text,
                partial_results=True, breaker=True,
                deadline_seconds=DEADLINE_SECONDS,
            ),
        })
        scenarios.append({
            "query": name, "scenario": "deadline-hedge",
            "failure_rate": None, "breaker": True, "partial": True,
            **_run_one(
                _build_federation(generator, stall, with_replica=True),
                query_text, partial_results=True, breaker=True,
                deadline_seconds=DEADLINE_SECONDS,
                hedge_threshold_seconds=HEDGE_THRESHOLD_SECONDS,
            ),
        })
    return {
        "benchmark": "resilience",
        "universities": universities,
        "flaky_rates": list(flaky_rates),
        "scenarios": scenarios,
    }


def _rows_of(scenarios, query, scenario, **filters):
    for row in scenarios:
        if row["query"] != query or row["scenario"] != scenario:
            continue
        if all(row.get(k) == v for k, v in filters.items()):
            yield row


def check(
    universities: int = 2,
    queries: Sequence[str] = ("Q2",),
) -> Dict[str, object]:
    """Fast smoke mode asserting the resilience invariants:

    - flaky runs (any rate, breaker on or off) return *exactly* the
      fault-free rows, with the absorbed failures visible in
      ``requests_failed``/``retries`` and extra virtual time;
    - a hard outage without partial results aborts with ``RE`` (with or
      without retries/breaker);
    - the same outage with ``partial_results=True`` returns a subset of
      the fault-free rows as ``PARTIAL`` with an honest completeness
      report naming the dead endpoint;
    - the breaker converts retry storms into fast fails without
      changing the answer, and never makes the run slower;
    - a standby replica recovers the full answer (``OK``, complete);
    - against a 10x straggler, hedged requests recover the exact
      fault-free answer at least 2x faster in virtual time, with
      ``hedges_won >= 1``;
    - a stalled endpoint under a deadline comes back ``PARTIAL`` with a
      subset of the fault-free rows *within* ``deadline + one request
      timeout``; with a replica and hedging, the full answer comes back
      inside the same bound.
    """
    payload = run_resilience(universities=universities, queries=queries)
    scenarios = payload["scenarios"]
    for query in queries:
        baseline = next(_rows_of(scenarios, query, "fault-free"))
        for row in _rows_of(scenarios, query, "flaky"):
            if row["status"] != "OK" or row["rows"] != baseline["rows"]:
                raise AssertionError(
                    f"{query} flaky rate={row['failure_rate']} "
                    f"breaker={row['breaker']}: answers diverged "
                    f"({row['status']})"
                )
            if row["requests_failed"] == 0 or row["retries"] == 0:
                raise AssertionError(
                    f"{query} flaky rate={row['failure_rate']}: no "
                    "failures recorded — injection inactive?"
                )
            if row["virtual_seconds"] <= baseline["virtual_seconds"]:
                raise AssertionError(
                    f"{query} flaky: retries and backoffs cost no "
                    "virtual time — failure accounting broken"
                )
        for scenario in ("outage-fedx-style", "outage-abort"):
            row = next(_rows_of(scenarios, query, scenario))
            if row["status"] != "RE":
                raise AssertionError(
                    f"{query} {scenario}: expected RE, got {row['status']}"
                )
        partial_on = next(
            _rows_of(scenarios, query, "outage-partial", breaker=True)
        )
        partial_off = next(
            _rows_of(scenarios, query, "outage-partial", breaker=False)
        )
        for row in (partial_on, partial_off):
            if row["status"] != "PARTIAL":
                raise AssertionError(
                    f"{query} outage-partial: expected PARTIAL, got "
                    f"{row['status']}"
                )
            if not set(map(tuple, row["rows"])) <= set(
                map(tuple, baseline["rows"])
            ):
                raise AssertionError(
                    f"{query} outage-partial: produced rows outside the "
                    "fault-free answer"
                )
            report = row["completeness"]
            if report["complete"] or DOWN_ENDPOINT not in report[
                "endpoints_failed"
            ]:
                raise AssertionError(
                    f"{query} outage-partial: completeness report does "
                    f"not name {DOWN_ENDPOINT}: {report}"
                )
        if partial_on["rows"] != partial_off["rows"]:
            raise AssertionError(
                f"{query}: the breaker changed the partial answer"
            )
        if partial_on["breaker_fast_fails"] == 0:
            raise AssertionError(
                f"{query}: breaker never fast-failed under a hard outage"
            )
        if partial_on["virtual_seconds"] > partial_off["virtual_seconds"]:
            raise AssertionError(
                f"{query}: breaker made the outage run slower "
                f"({partial_on['virtual_seconds']}s vs "
                f"{partial_off['virtual_seconds']}s)"
            )
        replica = next(_rows_of(scenarios, query, "outage-replica"))
        if replica["status"] != "OK" or replica["rows"] != baseline["rows"]:
            raise AssertionError(
                f"{query} outage-replica: reroute did not recover the "
                f"full answer ({replica['status']})"
            )
        if replica["completeness"]["rerouted"] != {
            DOWN_ENDPOINT: REPLICA_ENDPOINT
        }:
            raise AssertionError(
                f"{query} outage-replica: reroute not reported "
                f"({replica['completeness']})"
            )
        nohedge = next(_rows_of(scenarios, query, "straggler-nohedge"))
        hedged = next(_rows_of(scenarios, query, "straggler-hedge"))
        if hedged["status"] != "OK" or hedged["rows"] != baseline["rows"]:
            raise AssertionError(
                f"{query} straggler-hedge: hedging changed the answer "
                f"({hedged['status']})"
            )
        if hedged["hedges_won"] < 1:
            raise AssertionError(
                f"{query} straggler-hedge: the replica never won a race "
                f"({hedged['hedges_launched']} launched)"
            )
        speedup = nohedge["virtual_seconds"] / hedged["virtual_seconds"]
        if speedup < 2.0:
            raise AssertionError(
                f"{query} straggler: hedging cut the makespan only "
                f"{speedup:.2f}x ({nohedge['virtual_seconds']}s -> "
                f"{hedged['virtual_seconds']}s), expected >= 2x"
            )
        # One lane-start-clamped request may legitimately finish past the
        # deadline; engine-side compute (joins, decoding) adds a little
        # more on top, hence the small slack.
        budget_bound = DEADLINE_SECONDS * 1.25 + 0.25
        partial = next(_rows_of(scenarios, query, "deadline-partial"))
        if partial["status"] != "PARTIAL":
            raise AssertionError(
                f"{query} deadline-partial: expected PARTIAL, got "
                f"{partial['status']}"
            )
        if not set(map(tuple, partial["rows"])) <= set(
            map(tuple, baseline["rows"])
        ):
            raise AssertionError(
                f"{query} deadline-partial: produced rows outside the "
                "fault-free answer"
            )
        if partial["virtual_seconds"] > budget_bound:
            raise AssertionError(
                f"{query} deadline-partial: a stalled endpoint blew the "
                f"budget ({partial['virtual_seconds']}s > "
                f"{budget_bound}s)"
            )
        rescued = next(_rows_of(scenarios, query, "deadline-hedge"))
        if rescued["status"] != "OK" or rescued["rows"] != baseline["rows"]:
            raise AssertionError(
                f"{query} deadline-hedge: hedging did not recover the "
                f"full answer within the deadline ({rescued['status']})"
            )
        if rescued["hedges_won"] < 1:
            raise AssertionError(
                f"{query} deadline-hedge: no hedge won against the "
                "stalled primary"
            )
        if rescued["virtual_seconds"] > budget_bound:
            raise AssertionError(
                f"{query} deadline-hedge: blew the budget "
                f"({rescued['virtual_seconds']}s > {budget_bound}s)"
            )
    payload["check"] = "ok"
    return payload


# -- wire chaos: the same invariants over real sockets ----------------------

#: wall-clock ceiling for any single chaos scenario (seconds); a hang
#: past this is itself a failed invariant
WIRE_CHAOS_BOUND_SECONDS = 90.0

#: per-endpoint seeded fault profiles for the chaos sweep (seeds chosen
#: so connection 0 passes — the pool bootstraps — and later connections
#: fault; see ChaosProfile.fault_for_connection)
WIRE_CHAOS_PROFILES = {
    "resets": dict(reset_rate=0.3, reset_after_bytes=256),
    "truncations": dict(truncate_rate=0.3, truncate_after_bytes=256),
    "throttle-storm": dict(storm_rate=0.4, storm_retry_after=0.02),
    "mixed": dict(
        reset_rate=0.2, truncate_rate=0.1, garbage_rate=0.1,
        storm_rate=0.1, storm_retry_after=0.02,
    ),
}


def _wire_members(universities: int):
    """One served engine per university, fronted by nothing yet."""
    from ..core.engine import LusailEngine as Engine
    from ..serving import QuerySessionManager, start_server

    generator = LubmGenerator(universities=universities)
    servers = []
    for index in range(universities):
        member = Federation([LocalEndpoint.from_triples(
            f"university{index}", generator.generate_university(index),
        )])
        engine = Engine(
            member, use_threads=True, reset_request_windows=False
        )
        manager = QuerySessionManager(
            engine, tenants=(), max_concurrent=8
        )
        servers.append(start_server(manager)[0])
    return generator, servers


def _wire_rows(outcome) -> Optional[List[tuple]]:
    if outcome.result is None:
        return None
    return sorted(
        tuple("" if cell is None else cell.n3() for cell in row)
        for row in outcome.result.rows
    )


def run_wire_chaos(
    universities: int = 2,
    query: str = "Q2",
    seed: int = 8,
) -> Dict[str, object]:
    """Chaos over real sockets: servers behind fault-injecting proxies.

    The control run federates over loopback HTTP with quiet proxies and
    must be bit-identical to the same federation evaluated in-process
    (:class:`~repro.endpoint.engine_backed.EngineEndpoint` members).
    Each chaos scenario then reruns the query under a seeded fault
    profile and records the typed outcome.
    """
    import time as _time

    from ..core.engine import LusailEngine as Engine
    from ..endpoint import (
        ChaosProfile,
        ChaosProxy,
        EngineEndpoint,
        RemoteEndpoint,
    )

    query_text = LUBM_QUERIES[query]
    generator = LubmGenerator(universities=universities)

    # In-process comparator: the same member engines, no sockets.
    in_process = Federation([
        EngineEndpoint(
            Engine(
                Federation([LocalEndpoint.from_triples(
                    f"university{index}",
                    generator.generate_university(index),
                )]),
                use_threads=True, reset_request_windows=False,
            ),
            f"university{index}",
        )
        for index in range(universities)
    ])
    baseline = Engine(in_process, use_threads=True).execute(query_text)

    scenarios: List[Dict[str, object]] = []
    profiles: Dict[str, Optional[Dict[str, object]]] = {
        "control": None, **WIRE_CHAOS_PROFILES,
    }
    for name, rates in profiles.items():
        _generator, servers = _wire_members(universities)
        proxies = []
        remotes = []
        try:
            for index, server in enumerate(servers):
                profile = (
                    ChaosProfile.quiet() if rates is None
                    else ChaosProfile(seed=seed + index, **rates)
                )
                proxy = ChaosProxy(*server.server_address[:2], profile)
                proxies.append(proxy)
                remotes.append(RemoteEndpoint(
                    proxy.url, endpoint_id=f"university{index}",
                    connect_timeout=1.0, request_timeout=5.0,
                ))
            engine = Engine(
                Federation(remotes), use_threads=True, max_retries=4,
            )
            started = _time.monotonic()
            outcome = engine.execute(query_text)
            elapsed = _time.monotonic() - started
            row: Dict[str, object] = {
                "scenario": name,
                "status": outcome.status,
                "rows": _wire_rows(outcome),
                "wall_seconds": round(elapsed, 3),
                "requests_failed": outcome.metrics.requests_failed,
                "retries": outcome.metrics.retries,
                "faults_injected": {
                    kind: sum(p.stats()[kind] for p in proxies)
                    for kind in ("reset", "truncate", "garbage", "storm")
                },
            }
            if outcome.completeness is not None:
                row["completeness"] = outcome.completeness.to_dict()
            if outcome.error is not None:
                row["error"] = outcome.error
            scenarios.append(row)
        finally:
            for remote in remotes:
                remote.close()
            for proxy in proxies:
                proxy.close()
            for server in servers:
                server.shutdown()
                server.server_close()
    return {
        "benchmark": "wire-chaos",
        "universities": universities,
        "query": query,
        "seed": seed,
        "baseline_rows": _wire_rows(baseline),
        "scenarios": scenarios,
    }


def check_wire_chaos(
    universities: int = 2, query: str = "Q2", seed: int = 8
) -> Dict[str, object]:
    """Assert the typed-outcome invariant over real sockets:

    - the fault-free control run is **bit-identical** to the in-process
      comparator;
    - every chaos scenario lands in exactly one of the three legal
      states: ``OK`` with the exact answer, ``PARTIAL`` with a subset
      and an honest completeness report, or a typed error — and always
      within the wall-clock bound (no hangs, no silent empties).
    """
    payload = run_wire_chaos(
        universities=universities, query=query, seed=seed
    )
    baseline_rows = payload["baseline_rows"]
    for row in payload["scenarios"]:
        name = row["scenario"]
        if row["wall_seconds"] > WIRE_CHAOS_BOUND_SECONDS:
            raise AssertionError(
                f"wire-chaos {name}: blew the wall bound "
                f"({row['wall_seconds']}s > {WIRE_CHAOS_BOUND_SECONDS}s)"
            )
        if name == "control":
            if row["status"] != "OK" or row["rows"] != baseline_rows:
                raise AssertionError(
                    f"wire-chaos control: loopback HTTP diverged from "
                    f"in-process ({row['status']})"
                )
            continue
        if row["status"] == "OK":
            report = row.get("completeness", {})
            if report and not report.get("complete", True):
                if not set(map(tuple, row["rows"])) <= set(
                    map(tuple, baseline_rows)
                ):
                    raise AssertionError(
                        f"wire-chaos {name}: partial rows outside the "
                        "true answer"
                    )
            elif row["rows"] != baseline_rows:
                raise AssertionError(
                    f"wire-chaos {name}: OK but the answer is wrong — "
                    "silent corruption"
                )
        elif row["status"] == "PARTIAL":
            if not set(map(tuple, row["rows"])) <= set(
                map(tuple, baseline_rows)
            ):
                raise AssertionError(
                    f"wire-chaos {name}: partial rows outside the true "
                    "answer"
                )
            if row.get("completeness", {}).get("complete", True):
                raise AssertionError(
                    f"wire-chaos {name}: PARTIAL without an honest "
                    "completeness report"
                )
        else:
            if not row.get("error"):
                raise AssertionError(
                    f"wire-chaos {name}: failed without a typed error"
                )
            if row["rows"] is not None:
                raise AssertionError(
                    f"wire-chaos {name}: error state still carried rows"
                )
    payload["check"] = "ok"
    return payload


def format_wire_chaos_report(payload: Dict[str, object]) -> str:
    lines = [
        "Wire chaos: loopback federation through fault-injecting proxies",
        f"LUBM x{payload['universities']}, query {payload['query']}, "
        f"seed {payload['seed']}",
    ]
    for row in payload["scenarios"]:
        rows = "-" if row["rows"] is None else len(row["rows"])
        faults = ", ".join(
            f"{kind}={count}"
            for kind, count in row["faults_injected"].items() if count
        ) or "none"
        lines.append(
            f"  {row['scenario']}: {row['status']}, {rows} rows, "
            f"{row['wall_seconds']:.2f}s wall, faults [{faults}], "
            f"{row['requests_failed']} failed / {row['retries']} retries"
        )
    return "\n".join(lines)


def write_results(payload: Dict[str, object], path: Optional[str] = None) -> Path:
    target = Path(path) if path else Path.cwd() / DEFAULT_OUTPUT
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return target


def format_report(payload: Dict[str, object]) -> str:
    lines = [
        "Resilience: fault injection x circuit breaker x partial results",
        f"LUBM x{payload['universities']} universities, "
        f"flaky rates {payload['flaky_rates']}",
    ]
    for row in payload["scenarios"]:
        knobs = (
            f"breaker={'on' if row['breaker'] else 'off'}, "
            f"partial={'on' if row['partial'] else 'off'}"
        )
        rate = (
            f", rate={row['failure_rate']}"
            if row["failure_rate"] not in (None, 0.0) else ""
        )
        rows = "-" if row["rows"] is None else len(row["rows"])
        extras = ""
        if row.get("hedges_launched"):
            extras += (f", {row['hedges_won']}/{row['hedges_launched']} "
                       "hedges won")
        if row.get("timeouts"):
            extras += f", {row['timeouts']} timeouts"
        if row.get("deadline_exceeded"):
            extras += f", {row['deadline_exceeded']} deadline events"
        lines.append(
            f"  {row['query']} {row['scenario']}{rate} ({knobs}): "
            f"{row['status']}, {rows} rows, "
            f"{row['virtual_seconds']:.3f}s virtual, "
            f"{row['requests']} req "
            f"({row['requests_failed']} failed, {row['retries']} retries, "
            f"{row['breaker_fast_fails']} fast-fails{extras})"
        )
    return "\n".join(lines)
