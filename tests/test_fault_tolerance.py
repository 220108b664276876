"""Fault-tolerant federation: injection, breaker, honest accounting,
partial results, and replica rerouting.

The invariants under test:

- fault injection is deterministic and structured (outage windows,
  latency spikes, rate limits), not just i.i.d. coin flips;
- the circuit breaker opens after N consecutive exhausted failures,
  fast-fails while open, lets one half-open probe through after the
  (virtual-time) cooldown, and closes on a successful probe;
- failures are never free: exhausted retries charge their round trips
  and backoffs to the virtual clock, the endpoint lane, and the
  ``requests_failed`` / ``retries`` counters — including requests
  drained by ``close()``;
- ``partial_results=True`` degrades instead of aborting: the answer is
  a subset of the fault-free answer, the status is ``PARTIAL``, and the
  completeness report names what was lost;
- the breaker turns a dead endpoint's retry storms into fast fails
  without changing the partial answer or slowing the run;
- a declared failover standby recovers the full answer;
- threaded execution stays bit-identical to the simulator under
  injected transient faults.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from .conftest import (
    EP1_TRIPLES,
    EP2_TRIPLES,
    QA_EXPECTED,
    QUERY_QA,
    build_paper_federation,
    result_values,
)
from repro.core import LusailEngine
from repro.core.trace import QueryTrace, render_trace
from repro.datasets.lubm import LUBM_QUERIES
from repro.endpoint import (
    CircuitBreakerOpenError,
    EndpointRateLimitError,
    EndpointUnavailableError,
    FaultProfile,
    LOCAL_CLUSTER,
    LocalEndpoint,
    OutageWindow,
)
from repro.federation import Federation
from repro.federation.request_handler import ElasticRequestHandler, Request
from repro.rdf import IRI, Triple
from repro.rdf import parse as nt_parse

from .faulted import victim_federation

ASK_TEXT = (
    'ASK { ?s <http://swat.cse.lehigh.edu/onto/univ-bench.owl#advisor> ?o . }'
)


def _faulty_paper_federation(ep1_profile=None, ep2_profile=None, extra=()):
    endpoints = [
        LocalEndpoint.from_triples(
            "ep1", nt_parse(EP1_TRIPLES), faults=ep1_profile
        ),
        LocalEndpoint.from_triples(
            "ep2", nt_parse(EP2_TRIPLES), faults=ep2_profile
        ),
    ]
    endpoints.extend(extra)
    return Federation(endpoints, network=LOCAL_CLUSTER)


def _handler(federation, **kwargs):
    context = federation.make_context(
        partial_results=kwargs.pop("partial_results", False)
    )
    return ElasticRequestHandler(federation, context, **kwargs), context


# ----------------------------------------------------------------------
# Fault injection on LocalEndpoint
# ----------------------------------------------------------------------


class TestFaultInjection:
    def test_outage_window_covers(self):
        window = OutageWindow(start=2, end=5)
        assert [window.covers(i) for i in range(7)] == [
            False, False, True, True, True, False, False,
        ]
        forever = OutageWindow(start=3)
        assert not forever.covers(2)
        assert forever.covers(10_000)

    def test_always_down_profile(self):
        endpoint = LocalEndpoint.from_triples(
            "down", nt_parse(EP1_TRIPLES), faults=FaultProfile.always_down()
        )
        for _ in range(5):
            with pytest.raises(EndpointUnavailableError):
                endpoint.execute(ASK_TEXT)

    def test_outage_window_spans_ordinals(self):
        profile = FaultProfile(
            outage_windows=(OutageWindow(start=2, end=4),)
        )
        endpoint = LocalEndpoint.from_triples(
            "blinky", nt_parse(EP1_TRIPLES), faults=profile
        )
        outcomes = []
        for _ in range(6):
            try:
                endpoint.execute(ASK_TEXT)
                outcomes.append("ok")
            except EndpointUnavailableError:
                outcomes.append("down")
        assert outcomes == ["ok", "ok", "down", "down", "ok", "ok"]

    def test_latency_spike_charges_penalty(self):
        profile = FaultProfile(
            latency_spike_rate=0.5, latency_spike_seconds=2.0, seed=7
        )
        endpoint = LocalEndpoint.from_triples(
            "slow", nt_parse(EP1_TRIPLES), faults=profile
        )
        penalties = [
            endpoint.execute(ASK_TEXT).latency_penalty_seconds
            for _ in range(30)
        ]
        assert 0.0 in penalties and 2.0 in penalties

    def test_rate_limit_profile(self):
        profile = FaultProfile(requests_per_query=3)
        endpoint = LocalEndpoint.from_triples(
            "polite", nt_parse(EP1_TRIPLES), faults=profile
        )
        for _ in range(3):
            endpoint.execute(ASK_TEXT)
        with pytest.raises(EndpointRateLimitError):
            endpoint.execute(ASK_TEXT)
        endpoint.reset_request_window()
        endpoint.execute(ASK_TEXT)

    def test_failure_draws_deterministic_across_runs(self):
        def sequence():
            endpoint = LocalEndpoint.from_triples(
                "flaky", nt_parse(EP1_TRIPLES),
                faults=FaultProfile(failure_rate=0.5, seed=11),
            )
            outcomes = []
            for _ in range(20):
                try:
                    endpoint.execute(ASK_TEXT)
                    outcomes.append(True)
                except EndpointUnavailableError:
                    outcomes.append(False)
            return outcomes

        first, second = sequence(), sequence()
        assert first == second
        assert True in first and False in first

    def test_set_faults_heals(self):
        endpoint = LocalEndpoint.from_triples(
            "healing", nt_parse(EP1_TRIPLES),
            faults=FaultProfile.always_down(),
        )
        with pytest.raises(EndpointUnavailableError):
            endpoint.execute(ASK_TEXT)
        endpoint.set_faults(None)
        assert endpoint.execute(ASK_TEXT) is not None


# ----------------------------------------------------------------------
# Honest failure accounting in the request handler
# ----------------------------------------------------------------------


class TestFailureAccounting:
    def test_exhausted_retries_charge_clock_lane_and_counters(self):
        federation = _faulty_paper_federation(
            ep2_profile=FaultProfile.always_down()
        )
        handler, context = _handler(federation, max_retries=2)
        with handler:
            future = handler.submit(Request("ep2", ASK_TEXT, kind="ASK"))
            with pytest.raises(EndpointUnavailableError):
                future.result()
        metrics = context.metrics
        assert metrics.requests_failed == 3  # max_retries + 1 attempts
        assert metrics.retries == 2
        assert metrics.virtual_seconds > 0.0
        assert metrics.lane_busy_seconds.get("ep2", 0.0) > 0.0
        assert metrics.bytes_sent == 3 * len(ASK_TEXT)
        # Settled before close(): nothing was abandoned mid-flight.
        assert handler.cancelled == 0
        assert metrics.requests_cancelled == 0

    def test_backoff_is_exponential(self):
        def exhausted_cost(max_retries):
            federation = _faulty_paper_federation(
                ep2_profile=FaultProfile.always_down()
            )
            handler, context = _handler(federation, max_retries=max_retries)
            with handler:
                future = handler.submit(Request("ep2", ASK_TEXT, kind="ASK"))
                with pytest.raises(EndpointUnavailableError):
                    future.result()
            return context.metrics.virtual_seconds

        one, two, three = (exhausted_cost(n) for n in (1, 2, 3))
        # Each extra attempt doubles the previous backoff, so cost
        # deltas must grow strictly.
        assert (three - two) > (two - one) > 0

    def test_retried_success_counts_failed_attempts(self):
        # Rate 0.5 over 40 distinct ASK texts: some requests fail first
        # and succeed on retry — those must show up in the counters even
        # though every answer arrives.
        federation = _faulty_paper_federation(
            ep1_profile=FaultProfile(failure_rate=0.3, seed=3)
        )
        handler, context = _handler(federation, max_retries=6)
        with handler:
            for index in range(40):
                text = (
                    f'ASK {{ <http://mit.edu/Lee> '
                    f'<http://x/p{index}> ?o . }}'
                )
                handler.execute(Request("ep1", text, kind="ASK"))
        metrics = context.metrics
        assert metrics.requests == 40
        assert metrics.requests_failed > 0
        assert metrics.retries == metrics.requests_failed

    def test_close_drains_and_accounts_pending_failures(self):
        federation = _faulty_paper_federation(
            ep2_profile=FaultProfile.always_down()
        )
        handler, context = _handler(federation, max_retries=1)
        handler.submit(Request("ep2", ASK_TEXT, kind="ASK"))
        handler.submit(Request("ep1", ASK_TEXT, kind="ASK"))
        # Never resolved — close() must still account for both, and
        # swallow the ep2 failure instead of raising.
        handler.close()
        metrics = context.metrics
        assert metrics.requests == 1  # the ep1 success
        assert metrics.requests_failed == 2  # both ep2 attempts
        assert not handler._pending
        # Both futures were abandoned mid-flight: the drain must count
        # them as cancelled, once, and close() must stay idempotent.
        assert handler.cancelled == 2
        assert metrics.requests_cancelled == 2
        handler.close()
        assert handler.cancelled == 2
        assert metrics.requests_cancelled == 2

    def test_rate_limit_error_is_charged(self):
        federation = _faulty_paper_federation(
            ep2_profile=FaultProfile(requests_per_query=1)
        )
        handler, context = _handler(federation)
        with handler:
            handler.execute(Request("ep2", ASK_TEXT, kind="ASK"))
            future = handler.submit(Request("ep2", ASK_TEXT, kind="ASK"))
            with pytest.raises(EndpointRateLimitError):
                future.result()
        assert context.metrics.requests_failed == 1
        assert context.metrics.lane_busy_seconds["ep2"] > 0.0


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------


class TestCircuitBreaker:
    def _down_handler(self, **kwargs):
        federation = _faulty_paper_federation(
            ep2_profile=FaultProfile.always_down()
        )
        return _handler(
            federation, max_retries=1, breaker_threshold=2, **kwargs
        )

    def _fail_once(self, handler):
        future = handler.submit(Request("ep2", ASK_TEXT, kind="ASK"))
        with pytest.raises(EndpointUnavailableError):
            future.result()
        return future

    def test_opens_after_threshold_and_fast_fails(self):
        handler, context = self._down_handler()
        with handler:
            self._fail_once(handler)
            self._fail_once(handler)
            assert context.metrics.breaker_opens == 1
            before = context.metrics.requests_failed
            future = handler.submit(Request("ep2", ASK_TEXT, kind="ASK"))
            with pytest.raises(CircuitBreakerOpenError):
                future.result()
            # Fast fail: no endpoint contact, no attempts, no lane time.
            assert context.metrics.requests_failed == before
            assert context.metrics.breaker_fast_fails == 1

    def test_half_open_probe_reopens_on_failure(self):
        handler, context = self._down_handler()
        with handler:
            self._fail_once(handler)
            self._fail_once(handler)
            open_until = handler._health["ep2"].open_until
            # Burn virtual time past the cooldown; the next submission
            # is the half-open probe, which really contacts the (still
            # dead) endpoint and re-opens with a doubled cooldown.
            context.charge(open_until - context.metrics.virtual_seconds + 0.01)
            self._fail_once(handler)
            health = handler._health["ep2"]
            assert health.state == "open"
            assert context.metrics.breaker_opens == 2
            assert health.open_until - context.metrics.virtual_seconds \
                > 1.0  # doubled beyond the base cooldown

    def test_half_open_probe_closes_on_success(self):
        handler, context = self._down_handler()
        context.trace = QueryTrace()
        with handler:
            self._fail_once(handler)
            self._fail_once(handler)
            # The endpoint comes back up.
            handler.federation.endpoint("ep2").set_faults(None)
            open_until = handler._health["ep2"].open_until
            context.charge(open_until - context.metrics.virtual_seconds + 0.01)
            response = handler.execute(Request("ep2", ASK_TEXT, kind="ASK"))
            assert bool(response.value) is True
            assert handler._health["ep2"].state == "closed"
        kinds = [event.kind for event in context.trace]
        assert "breaker_open" in kinds
        assert "breaker_close" in kinds

    def test_breaker_disabled_never_trips(self):
        federation = _faulty_paper_federation(
            ep2_profile=FaultProfile.always_down()
        )
        handler, context = _handler(
            federation, max_retries=0, breaker_threshold=None
        )
        with handler:
            for _ in range(5):
                future = handler.submit(Request("ep2", ASK_TEXT, kind="ASK"))
                with pytest.raises(EndpointUnavailableError):
                    future.result()
        assert context.metrics.breaker_opens == 0
        assert context.metrics.breaker_fast_fails == 0


# ----------------------------------------------------------------------
# Partial results and replica rerouting (engine level)
# ----------------------------------------------------------------------


class TestPartialResults:
    def test_outage_without_partial_aborts(self):
        # default, then FedX-style: no retries, no breaker
        for knobs in ({}, {"max_retries": 0, "breaker": False}):
            federation = _faulty_paper_federation(
                ep2_profile=FaultProfile.always_down()
            )
            outcome = LusailEngine(federation, **knobs).execute(QUERY_QA)
            assert outcome.status == "RE"
            assert outcome.result is None

    def test_outage_with_partial_degrades(self):
        federation = _faulty_paper_federation(
            ep2_profile=FaultProfile.always_down()
        )
        outcome = LusailEngine(
            federation, partial_results=True
        ).execute(QUERY_QA, trace=True)
        assert outcome.status == "PARTIAL"
        assert result_values(outcome.result) <= QA_EXPECTED
        report = outcome.completeness
        assert not report.complete
        assert report.endpoints_failed == ["ep2"]
        assert report.status_counts.get("unavailable", 0) > 0
        kinds = [event.kind for event in outcome.trace]
        assert "completeness" in kinds
        # The narrative must render without crashing on the new kinds.
        assert "PARTIAL result" in render_trace(outcome.trace)

    def test_retries_absorb_flakiness_exactly(self):
        fault_free = LusailEngine(build_paper_federation()).execute(QUERY_QA)
        for rate, breaker in (
            (0.05, True), (0.05, False), (0.15, True), (0.15, False),
        ):
            federation = _faulty_paper_federation(
                ep1_profile=FaultProfile(failure_rate=rate, seed=5),
                ep2_profile=FaultProfile(failure_rate=rate, seed=5),
            )
            outcome = LusailEngine(
                federation, breaker=breaker
            ).execute(QUERY_QA)
            assert outcome.status == "OK"
            assert result_values(outcome.result) == result_values(
                fault_free.result
            )
            assert outcome.completeness.complete
            # absorbed, not free: the failures show in the books and
            # on the clock
            assert outcome.metrics.requests_failed > 0
            assert outcome.metrics.retries > 0
            assert (
                outcome.metrics.virtual_seconds
                > fault_free.metrics.virtual_seconds
            )

    @pytest.mark.parametrize("build,query", [
        (
            lambda: _faulty_paper_federation(
                ep2_profile=FaultProfile.always_down()
            ),
            QUERY_QA,
        ),
        (
            lambda: victim_federation(FaultProfile.always_down()),
            LUBM_QUERIES["Q2"],
        ),
    ], ids=["paper", "lubm"])
    def test_breaker_fast_fails_without_changing_the_partial_answer(
        self, build, query
    ):
        with_breaker, without = (
            LusailEngine(
                build(), partial_results=True, breaker=breaker
            ).execute(query)
            for breaker in (True, False)
        )
        assert with_breaker.status == without.status == "PARTIAL"
        assert result_values(with_breaker.result) == result_values(
            without.result
        )
        assert with_breaker.metrics.breaker_fast_fails > 0
        assert without.metrics.breaker_fast_fails == 0
        assert (
            with_breaker.metrics.virtual_seconds
            <= without.metrics.virtual_seconds
        )

    def test_replica_recovers_full_answer(self):
        replica = LocalEndpoint.from_triples("ep2b", nt_parse(EP2_TRIPLES))
        federation = _faulty_paper_federation(
            ep2_profile=FaultProfile.always_down(), extra=[replica]
        )
        federation.declare_fragment("ep2", ("ep2", "ep2b"), policy="failover")
        # Standby replicas are excluded from normal selection.
        assert "ep2b" not in federation.endpoint_ids
        assert "ep2b" in federation
        outcome = LusailEngine(
            federation, partial_results=True
        ).execute(QUERY_QA)
        assert outcome.status == "OK", outcome.error
        assert result_values(outcome.result) == QA_EXPECTED
        report = outcome.completeness
        assert report.complete
        assert report.rerouted == {"ep2": "ep2b"}

    def test_mid_query_outage_degrades_subquery(self):
        # First measure how many requests ep2 answers fault-free, then
        # replay with an outage window covering only the tail — source
        # selection succeeds, later requests to ep2 fail.
        calls = []
        federation = build_paper_federation()
        ep2 = federation.endpoint("ep2")
        original = ep2.execute
        ep2.execute = lambda text, **_: (calls.append(text), original(text))[1]
        baseline = LusailEngine(federation).execute(QUERY_QA)
        assert baseline.status == "OK"
        tail = OutageWindow(start=len(calls) - 1)
        federation2 = _faulty_paper_federation(
            ep2_profile=FaultProfile(outage_windows=(tail,))
        )
        outcome = LusailEngine(
            federation2, partial_results=True
        ).execute(QUERY_QA, trace=True)
        assert outcome.status == "PARTIAL"
        assert result_values(outcome.result) <= QA_EXPECTED
        assert not outcome.completeness.complete


# ----------------------------------------------------------------------
# Threaded vs simulated equivalence under faults
# ----------------------------------------------------------------------


class TestThreadedFaultEquivalence:
    @pytest.mark.parametrize("rate,seed", [(0.2, 3), (0.3, 11)])
    def test_threaded_bit_identical_under_transient_faults(self, rate, seed):
        def run(use_threads):
            federation = _faulty_paper_federation(
                ep1_profile=FaultProfile(failure_rate=rate, seed=seed),
                ep2_profile=FaultProfile(failure_rate=rate, seed=seed),
            )
            engine = LusailEngine(
                federation, use_threads=use_threads, max_retries=8
            )
            outcome = engine.execute(QUERY_QA)
            assert outcome.status == "OK", outcome.error
            return outcome

        simulated = run(False)
        threaded = run(True)
        assert result_values(threaded.result) == result_values(
            simulated.result
        )
        sim, thr = simulated.metrics, threaded.metrics
        assert thr.requests == sim.requests
        assert thr.requests_failed == sim.requests_failed
        assert thr.retries == sim.retries
        assert thr.virtual_seconds == pytest.approx(sim.virtual_seconds)
        assert thr.bytes_sent == sim.bytes_sent


# ----------------------------------------------------------------------
# Hypothesis: partial answers are subsets with accurate reports
# ----------------------------------------------------------------------


_ENTITIES = [IRI(f"http://x/e{i}") for i in range(6)]
_PREDICATES = [IRI(f"http://x/p{i}") for i in range(3)]

_triples = st.builds(
    Triple,
    st.sampled_from(_ENTITIES),
    st.sampled_from(_PREDICATES),
    st.sampled_from(_ENTITIES),
)

_federation_data = st.lists(
    st.lists(_triples, min_size=1, max_size=10), min_size=2, max_size=3
)

_chain_predicates = st.lists(
    st.sampled_from(_PREDICATES), min_size=1, max_size=3
)


def _chain_query(predicates) -> str:
    patterns = []
    for index, predicate in enumerate(predicates):
        patterns.append(f"?v{index} {predicate.n3()} ?v{index + 1} .")
    variables = " ".join(f"?v{i}" for i in range(len(predicates) + 1))
    return f"SELECT {variables} WHERE {{ {' '.join(patterns)} }}"


def _build(endpoint_data, down_index=None):
    endpoints = [
        LocalEndpoint.from_triples(
            f"ep{i}",
            triples,
            faults=(
                FaultProfile.always_down() if i == down_index else None
            ),
        )
        for i, triples in enumerate(endpoint_data)
    ]
    return Federation(endpoints, network=LOCAL_CLUSTER)


@settings(max_examples=30, deadline=None)
@given(_federation_data, _chain_predicates, st.integers(0, 2))
def test_partial_answer_is_subset_with_accurate_report(
    endpoint_data, predicates, down_seed
):
    query_text = _chain_query(predicates)
    down_index = down_seed % len(endpoint_data)

    full = LusailEngine(_build(endpoint_data)).execute(query_text)
    assert full.status == "OK", full.error
    full_rows = {tuple(row) for row in full.result.rows}

    outcome = LusailEngine(
        _build(endpoint_data, down_index=down_index), partial_results=True
    ).execute(query_text)
    assert outcome.status in ("OK", "PARTIAL"), outcome.error
    partial_rows = {tuple(row) for row in outcome.result.rows}

    # BGP-only queries are monotonic: dropping an endpoint can only
    # lose answers, never invent them.
    assert partial_rows <= full_rows
    report = outcome.completeness
    # The report is honest: claiming completeness means nothing is lost,
    # and any endpoint that failed is named.
    if report.complete:
        assert partial_rows == full_rows
        assert outcome.status == "OK"
    else:
        assert outcome.status == "PARTIAL"
        assert f"ep{down_index}" in report.endpoints_failed
