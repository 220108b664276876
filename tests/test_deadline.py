"""Deadline-aware execution: budgets, adaptive timeouts, replica
reroute under a deadline, admission control.

The invariants under test:

- a :class:`Deadline` is plain virtual-time arithmetic: child budgets
  are fractions of what remains and never outlive the parent;
- the P² streaming quantile estimator is exact below five observations
  and tracks the true quantile closely on longer streams;
- per-request timeouts adapt to a warm endpoint's p95 × k, clamped
  between the floor and the static ceiling, and a cut request is
  charged exactly the censored timeout (never the stall it avoided);
- a stalled primary with a standby replica, under a deadline, times
  out and is rerouted to the replica: the full answer inside the
  bound, bit-identically across execution modes;
- the :class:`AdmissionController` the serving layer sheds with keeps
  honest books;
- a deadline-bounded query finishes within ``deadline + one request
  timeout`` (plus engine compute), returns a subset of the unbounded
  answer, and reports PARTIAL honestly, with or without a standby
  replica of the slow member (Hypothesis-checked).
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from .conftest import (
    EP1_TRIPLES,
    EP2_TRIPLES,
    QUERY_QA,
    result_values,
)
from repro.core import LusailEngine
from repro.datasets.lubm import LUBM_QUERIES
from repro.endpoint import (
    FaultProfile,
    LOCAL_CLUSTER,
    LocalEndpoint,
    RequestTimeoutError,
)
from repro.federation import (
    AdmissionController,
    Deadline,
    Federation,
    LatencyTracker,
)
from repro.federation.deadline import P2Quantile
from repro.federation.request_handler import (
    TIMEOUT_FLOOR_SECONDS,
    TIMEOUT_WARMUP,
    ElasticRequestHandler,
    Request,
)
from repro.rdf import IRI, Triple
from repro.rdf import parse as nt_parse

from .faulted import STALL_SECONDS, victim_federation
from .reference import examples

ASK_TEXT = (
    'ASK { ?s <http://swat.cse.lehigh.edu/onto/univ-bench.owl#advisor> ?o . }'
)

#: deterministic straggler: every request answers this much late
STALL = FaultProfile(
    latency_spike_rate=1.0, latency_spike_seconds=STALL_SECONDS
)


def _federation(ep1_profile=None, ep2_profile=None, replicate_ep2=False):
    endpoints = [
        LocalEndpoint.from_triples(
            "ep1", nt_parse(EP1_TRIPLES), faults=ep1_profile
        ),
        LocalEndpoint.from_triples(
            "ep2", nt_parse(EP2_TRIPLES), faults=ep2_profile
        ),
    ]
    if replicate_ep2:
        endpoints.append(
            LocalEndpoint.from_triples("ep2-replica", nt_parse(EP2_TRIPLES))
        )
    federation = Federation(endpoints, network=LOCAL_CLUSTER)
    if replicate_ep2:
        federation.declare_fragment(
            "ep2", ("ep2", "ep2-replica"), policy="failover"
        )
    return federation


#: name -> (builder(victim's fault profile, with standby replica), query):
#: the paper's two-endpoint example and LUBM Q2 over two universities
_VICTIM_WORKLOADS = {
    "paper": (
        lambda profile=None, replicate=False: _federation(
            ep2_profile=profile, replicate_ep2=replicate
        ),
        QUERY_QA,
    ),
    "lubm": (victim_federation, LUBM_QUERIES["Q2"]),
}


def _fault_free_rows(workload):
    build, query = _VICTIM_WORKLOADS[workload]
    outcome = LusailEngine(build()).execute(query)
    assert outcome.status == "OK", outcome.error
    return result_values(outcome.result)


def _handler(federation, **kwargs):
    context = federation.make_context(
        partial_results=kwargs.pop("partial_results", False),
        deadline=kwargs.pop("deadline", None),
    )
    return ElasticRequestHandler(federation, context, **kwargs), context


# ----------------------------------------------------------------------
# Deadline arithmetic
# ----------------------------------------------------------------------


class TestDeadline:
    def test_budget_math(self):
        deadline = Deadline(2.0)
        assert deadline.expires_at == 2.0
        assert deadline.remaining(0.0) == 2.0
        assert deadline.remaining(1.5) == pytest.approx(0.5)
        assert deadline.remaining(3.0) == 0.0
        assert not deadline.expired(1.999)
        assert deadline.expired(2.0)

    def test_anchored_start(self):
        deadline = Deadline(1.0, start=5.0)
        assert deadline.expires_at == 6.0
        assert deadline.remaining(5.5) == pytest.approx(0.5)

    def test_child_is_fraction_of_remaining(self):
        deadline = Deadline(2.0)
        analysis = deadline.child(deadline.analysis_fraction)
        assert analysis.budget_seconds == pytest.approx(
            2.0 * deadline.analysis_fraction
        )
        assert analysis.start == deadline.start
        # Anchored mid-flight: half of the 1.0s that remains at t=1.
        late = deadline.child(0.5, now=1.0)
        assert late.budget_seconds == pytest.approx(0.5)
        assert late.expires_at == pytest.approx(1.5)
        assert late.expires_at <= deadline.expires_at

    def test_validation(self):
        with pytest.raises(ValueError):
            Deadline(-1.0)
        with pytest.raises(ValueError):
            Deadline(1.0, analysis_fraction=1.0)
        with pytest.raises(ValueError):
            Deadline(1.0).child(0.0)


# ----------------------------------------------------------------------
# P² quantiles and the latency tracker
# ----------------------------------------------------------------------


def _reference_quantile(values, q):
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, -(-int(q * len(ordered) * 1000) // 1000) - 1))
    return ordered[index]


class TestP2Quantile:
    def test_small_samples_are_exact(self):
        estimator = P2Quantile(0.5)
        assert estimator.value() is None
        for value in (5.0, 1.0, 4.0):
            estimator.observe(value)
        # Exact over the sorted sample [1, 4, 5]: median is 4.
        assert estimator.value() == 4.0

    @pytest.mark.parametrize("q", [0.5, 0.95])
    def test_tracks_long_streams(self, q):
        # Deterministic pseudo-uniform stream (Weyl sequence).
        values = [((i * 2654435761) % 100_000) / 100_000 for i in range(500)]
        estimator = P2Quantile(q)
        for value in values:
            estimator.observe(value)
        ordered = sorted(values)
        truth = ordered[min(len(ordered) - 1, int(q * len(ordered)))]
        assert estimator.value() == pytest.approx(truth, abs=0.05)
        # Markers bound the estimate by the observed extremes.
        assert min(values) <= estimator.value() <= max(values)

    def test_tracker_counts_and_snapshot(self):
        tracker = LatencyTracker()
        assert tracker.quantile("ep1", 0.95) is None
        assert tracker.count("ep1") == 0
        for value in (0.1, 0.2, 0.3):
            tracker.observe("ep1", value)
        assert tracker.count("ep1") == 3
        assert tracker.quantile("ep1", 0.5) == 0.2
        snapshot = tracker.snapshot()
        assert snapshot["ep1"]["count"] == 3.0
        assert set(snapshot["ep1"]) == {"count", "p50", "p95", "p99"}


# ----------------------------------------------------------------------
# Adaptive per-request timeouts
# ----------------------------------------------------------------------


class TestAdaptiveTimeouts:
    def _warm_handler(self, observed):
        tracker = LatencyTracker()
        for value in observed:
            tracker.observe("ep2", value)
        handler, context = _handler(
            _federation(),
            latency_tracker=tracker,
            request_timeout_seconds=1.0,
        )
        return handler

    def test_cold_endpoint_uses_static_default(self):
        handler = self._warm_handler([])
        assert handler._timeout_for("ep2") == 1.0
        assert handler._timeout_for("ep1") == 1.0

    def test_warm_endpoint_uses_p95_times_k(self):
        cold = self._warm_handler([0.1] * (TIMEOUT_WARMUP - 1))
        assert cold._timeout_for("ep2") == 1.0
        handler = self._warm_handler([0.1] * TIMEOUT_WARMUP)
        assert handler._timeout_for("ep2") == pytest.approx(0.4)
        # Other endpoints are still cold.
        assert handler._timeout_for("ep1") == 1.0

    def test_clamped_between_floor_and_ceiling(self):
        fast = self._warm_handler([0.001] * TIMEOUT_WARMUP)
        assert fast._timeout_for("ep2") == TIMEOUT_FLOOR_SECONDS
        slow = self._warm_handler([10.0] * TIMEOUT_WARMUP)
        assert slow._timeout_for("ep2") == 1.0

    def test_no_ceiling_means_no_timeout(self):
        handler, _ = _handler(_federation())
        assert handler._timeout_for("ep2") is None

    def test_timed_out_request_charges_censored_cost(self):
        handler, context = _handler(
            _federation(ep2_profile=STALL),
            request_timeout_seconds=0.5,
        )
        with handler:
            future = handler.submit(Request("ep2", ASK_TEXT, kind="ASK"))
            with pytest.raises(RequestTimeoutError) as excinfo:
                future.result()
        assert not excinfo.value.deadline
        metrics = context.metrics
        assert metrics.timeouts == 1
        assert metrics.requests_failed == 1
        # The client stopped waiting at the timeout: exactly 0.5s is
        # charged to the clock and the lane, never the 1e6s stall.
        assert metrics.virtual_seconds == pytest.approx(0.5)
        assert metrics.lane_busy_seconds["ep2"] == pytest.approx(0.5)
        # The tracker saw the censored cancellation point.
        assert handler.latency.quantile("ep2", 0.5) == 0.5

    def test_timeouts_feed_the_breaker(self):
        handler, context = _handler(
            _federation(ep2_profile=STALL),
            request_timeout_seconds=0.5,
            breaker_threshold=2,
            partial_results=True,
        )
        with handler:
            for _ in range(4):
                handler.settle(
                    handler.submit(Request("ep2", ASK_TEXT, kind="ASK"))
                )
        assert context.metrics.breaker_opens >= 1
        assert context.metrics.breaker_fast_fails >= 1


# ----------------------------------------------------------------------
# Deadline clamps in the request handler
# ----------------------------------------------------------------------


class TestDeadlineClamps:
    def test_request_clamped_at_remaining_budget(self):
        handler, context = _handler(
            _federation(ep2_profile=STALL), deadline=Deadline(0.3)
        )
        with handler:
            future = handler.submit(Request("ep2", ASK_TEXT, kind="ASK"))
            with pytest.raises(RequestTimeoutError) as excinfo:
                future.result()
        assert excinfo.value.deadline
        assert context.metrics.deadline_exceeded == 1
        assert context.metrics.virtual_seconds == pytest.approx(0.3)

    def test_submit_past_expiry_fails_fast_for_free(self):
        handler, context = _handler(
            _federation(ep2_profile=STALL),
            deadline=Deadline(0.3),
            partial_results=True,
        )
        with handler:
            handler.settle(handler.submit(Request("ep2", ASK_TEXT, kind="ASK")))
            spent = context.metrics.virtual_seconds
            assert spent == pytest.approx(0.3)
            response, error = handler.settle(
                handler.submit(Request("ep1", ASK_TEXT, kind="ASK"))
            )
        assert response is None
        assert isinstance(error, RequestTimeoutError) and error.deadline
        # Nothing was sent: the clock did not move, no lane was held.
        assert context.metrics.virtual_seconds == spent
        assert "ep1" not in context.metrics.lane_busy_seconds
        assert context.completeness.complete is False


# ----------------------------------------------------------------------
# Load shedding and admission control
# ----------------------------------------------------------------------


class TestLoadShedding:
    # Request-level shedding (the handler's ``max_inflight``) and
    # engine-level shedding (``LusailEngine(admission=...)``) are deleted:
    # no caller ever set either.  ``QuerySessionManager`` is the one
    # admission layer; tests/test_serving.py covers its shedding.

    def test_admission_controller_bookkeeping(self):
        admission = AdmissionController(max_concurrent=2)
        assert admission.try_admit() and admission.try_admit()
        assert not admission.try_admit()
        assert admission.active == 2
        assert admission.admitted == 2
        assert admission.sheds == 1
        admission.release()
        assert admission.try_admit()
        with pytest.raises(RuntimeError):
            for _ in range(3):
                admission.release()


# ----------------------------------------------------------------------
# End-to-end deadlines
# ----------------------------------------------------------------------


class TestDeadlineExecution:
    def test_stalled_endpoint_degrades_to_partial_within_budget(self):
        for workload, budget in (("paper", 1.0), ("lubm", 2.0)):
            build, query = _VICTIM_WORKLOADS[workload]
            outcome = LusailEngine(build(STALL)).execute(
                query, deadline_seconds=budget, trace=True
            )
            assert outcome.status == "PARTIAL"
            assert result_values(outcome.result) <= _fault_free_rows(
                workload
            )
            # Completion <= deadline + one request timeout + engine
            # compute.
            assert outcome.metrics.virtual_seconds <= budget * 1.25 + 0.1
            assert outcome.metrics.deadline_exceeded >= 1
            assert not outcome.completeness.complete
            kinds = {event.kind for event in outcome.trace}
            assert kinds & {"timeout", "deadline"}

    @pytest.mark.parametrize("use_threads", [False, True])
    def test_deadline_with_replica_reroutes_to_the_full_answer(
        self, use_threads
    ):
        # The stalled victim's requests time out, and each timed-out
        # request fails over to the standby replica (a deadline implies
        # partial results); the timeouts also open the victim's breaker,
        # so later requests fail fast and fail over too.
        for workload in sorted(_VICTIM_WORKLOADS):
            build, query = _VICTIM_WORKLOADS[workload]
            outcome = LusailEngine(
                build(STALL, True), use_threads=use_threads
            ).execute(query, deadline_seconds=2.0)
            assert outcome.status == "OK", outcome.error
            assert result_values(outcome.result) == _fault_free_rows(
                workload
            )
            assert outcome.completeness.rerouted
            assert outcome.metrics.virtual_seconds <= 2.0 * 1.25 + 0.1
            # Virtual accounting is mode-independent.
            reference = LusailEngine(build(STALL, True)).execute(
                query, deadline_seconds=2.0
            )
            assert (
                outcome.metrics.virtual_seconds, outcome.metrics.requests
            ) == (
                reference.metrics.virtual_seconds, reference.metrics.requests
            )

    def test_latency_snapshot_lands_in_metrics(self):
        engine = LusailEngine(_federation())
        outcome = engine.execute(QUERY_QA)
        assert outcome.status == "OK"
        latency = outcome.metrics.endpoint_latency
        assert "ep1" in latency and "ep2" in latency
        assert latency["ep1"]["count"] >= 1
        assert "p95" in latency["ep1"]
        flat = outcome.metrics.snapshot()
        assert any(key.startswith("latency:ep1:") for key in flat)

    def test_fault_free_run_is_unchanged_by_a_generous_deadline(self):
        plain = LusailEngine(_federation()).execute(QUERY_QA)
        bounded = LusailEngine(_federation()).execute(
            QUERY_QA, deadline_seconds=3600.0
        )
        assert bounded.status == "OK"
        assert result_values(bounded.result) == result_values(plain.result)
        assert bounded.metrics.virtual_seconds == pytest.approx(
            plain.metrics.virtual_seconds
        )


# ----------------------------------------------------------------------
# The slow_queries fault knob
# ----------------------------------------------------------------------


class TestSlowQueriesKnob:
    def test_spikes_hit_only_matching_queries(self):
        profile = FaultProfile(
            latency_spike_rate=1.0,
            latency_spike_seconds=2.0,
            slow_queries="COUNT",
        )
        endpoint = LocalEndpoint.from_triples(
            "picky", nt_parse(EP1_TRIPLES), faults=profile
        )
        assert endpoint.execute(ASK_TEXT).latency_penalty_seconds == 0.0
        count_text = (
            'SELECT (COUNT(*) AS ?c) WHERE { ?s '
            '<http://swat.cse.lehigh.edu/onto/univ-bench.owl#advisor> ?o . }'
        )
        assert endpoint.execute(count_text).latency_penalty_seconds == 2.0

    def test_rate_one_is_a_deterministic_straggler(self):
        endpoint = LocalEndpoint.from_triples(
            "slow", nt_parse(EP1_TRIPLES),
            faults=FaultProfile(
                latency_spike_rate=1.0, latency_spike_seconds=0.5
            ),
        )
        penalties = {
            endpoint.execute(ASK_TEXT).latency_penalty_seconds
            for _ in range(5)
        }
        assert penalties == {0.5}

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultProfile(latency_spike_rate=1.5)


# ----------------------------------------------------------------------
# Hypothesis: deadline-bounded runs are bounded, honest subsets
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

_spikes = st.sampled_from([0.0, 0.05, 0.4, 3.0, 1e6])

DEADLINE_SECONDS = 0.5


def _chain_query(predicates) -> str:
    patterns = []
    for index, predicate in enumerate(predicates):
        patterns.append(f"?v{index} {predicate.n3()} ?v{index + 1} .")
    variables = " ".join(f"?v{i}" for i in range(len(predicates) + 1))
    return f"SELECT {variables} WHERE {{ {' '.join(patterns)} }}"


def _build(endpoint_data, slow_index, spike, replica):
    """The federation, ``ep{slow_index}`` carrying the spike; with
    ``replica``, a fault-free copy of it declared its failover standby."""
    endpoints = []
    for i, triples in enumerate(endpoint_data):
        profile = None
        if i == slow_index and spike:
            profile = FaultProfile(
                latency_spike_rate=1.0, latency_spike_seconds=spike
            )
        endpoints.append(
            LocalEndpoint.from_triples(f"ep{i}", triples, faults=profile)
        )
    if replica:
        endpoints.append(LocalEndpoint.from_triples(
            "standby", endpoint_data[slow_index]
        ))
    federation = Federation(endpoints, network=LOCAL_CLUSTER)
    if replica:
        federation.declare_fragment(
            "slow", (f"ep{slow_index}", "standby"), policy="failover"
        )
    return federation


def _check_deadline_run(endpoint_data, predicates, slow_index, spike,
                        replica):
    query_text = _chain_query(predicates)

    # The reference run waits out even the 1e6s stalls (virtual time is
    # free), so lift the default 3600s virtual timeout out of the way.
    unbounded = LusailEngine(
        _build(endpoint_data, slow_index, spike, replica),
        partial_results=True,
    ).execute(query_text, timeout_seconds=1e12)
    assert unbounded.status in ("OK", "PARTIAL"), unbounded.error
    unbounded_rows = {tuple(row) for row in unbounded.result.rows}

    outcome = LusailEngine(
        _build(endpoint_data, slow_index, spike, replica)
    ).execute(query_text, deadline_seconds=DEADLINE_SECONDS)
    assert outcome.status in ("OK", "PARTIAL"), outcome.error

    # Completion is bounded by the deadline plus one request timeout
    # (the default fraction of the budget) plus a little engine compute.
    request_timeout = DEADLINE_SECONDS * 0.25
    assert outcome.metrics.virtual_seconds <= (
        DEADLINE_SECONDS + request_timeout + 0.1
    )
    # BGP-only queries are monotonic: a deadline can only lose answers.
    bounded_rows = {tuple(row) for row in outcome.result.rows}
    assert bounded_rows <= unbounded_rows
    # Honesty: claiming OK means nothing was lost.
    if outcome.status == "OK":
        assert bounded_rows == unbounded_rows


@examples(25)
@given(
    _federation_data, _chain_predicates, st.integers(0, 2), _spikes,
    st.booleans(),
)
def test_deadline_bound_holds_and_rows_are_subset(
    endpoint_data, predicates, slow_seed, spike, replica
):
    _check_deadline_run(
        endpoint_data, predicates, slow_seed % len(endpoint_data), spike,
        replica,
    )


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="DESIGN.md deviation 1: the default one-direction check loses "
    "a row that the deadline's conservative fallback keeps (ROADMAP 6)",
)
def test_deadline_subset_counterexample_under_paper_faithful_checks():
    """The property's minimized counterexample.  ``e2`` is reached by
    ``p0`` only on ep2 but leaves by ``p2`` on ep1 and ep2; the paper's
    object-to-subject check finds ep2's ``p2`` edge, keeps the ``?v1``
    join local, and the unbounded run loses ``(e0, e2, e1)``.  The deadline run skips that
    check, treats ``?v1`` as global, and returns the row: a superset.
    Flipping ``strict_checks`` to sound turns this into an XPASS."""
    e0, e1, e2 = _ENTITIES[:3]
    p0, p1, p2 = _PREDICATES
    endpoint_data = [
        [Triple(e0, p1, e0)],
        [Triple(e0, p0, e0), Triple(e0, p2, e0), Triple(e2, p2, e1)],
        [Triple(e0, p0, e2), Triple(e2, p2, e0)],
    ]
    _check_deadline_run(endpoint_data, [p0, p2], 0, 0.4, replica=False)
