"""The ERH's one attempt loop, driven on both of its clocks.

A simulated endpoint is costed by the network model, a socket-backed
one (``wall_clock = True``) is measured — but both go through the same
``ElasticRequestHandler._perform`` loop, so the same scripted failure
sequence must produce the same attempts, retries, bytes and error
stamps whichever clock prices it.  Only the *cost* may differ.
"""

import pytest

from repro.endpoint import (
    LOCAL_CLUSTER,
    EndpointProtocolError,
    EndpointResponse,
    EndpointThrottledError,
    EndpointUnavailableError,
    FaultProfile,
    LocalEndpoint,
    Region,
    RequestTimeoutError,
)
from repro.federation import ElasticRequestHandler, Federation, Request
from repro.rdf import parse as nt_parse

from .conftest import EP2_TRIPLES

TEXT = "ASK { ?s ?p ?o }"


class _Scripted:
    """Plays a script: each step is an exception to raise, or ``None``
    to answer."""

    wall_clock = False
    region = Region("local")

    def __init__(self, script):
        self.endpoint_id = "ep"
        self.script = list(script)
        self.budgets = []

    def execute(self, query_text, timeout_seconds=None):
        self.budgets.append(timeout_seconds)
        step = self.script.pop(0)
        if step is not None:
            raise step
        return EndpointResponse(value=True, rows_touched=1, bytes_received=16)

    def triple_count(self):
        return 0

    def reset_request_window(self):
        pass


class _MeasuredScripted(_Scripted):
    wall_clock = True


def _drive(endpoint_class, script, **handler_kwargs):
    """Run one request against a scripted endpoint; returns everything
    about it that must not depend on the clock."""
    endpoint = endpoint_class(script)
    federation = Federation([endpoint], network=LOCAL_CLUSTER)
    context = federation.make_context()
    handler_kwargs.setdefault("retry_backoff_seconds", 1e-3)
    with ElasticRequestHandler(federation, context, **handler_kwargs) as handler:
        future = handler.submit(Request("ep", TEXT, kind="ASK"))
        try:
            outcome, stamp = future.result(), None
        except EndpointUnavailableError as error:
            outcome = error
            # (a scheduling-time timeout never went through the loop)
            stamp = (
                getattr(error, "failed_attempts", None),
                getattr(error, "bytes_sent_total", None),
            )
        health = handler.health_snapshot().get("ep", {})
    metrics = context.metrics
    accounting = {
        "outcome": type(outcome).__name__,
        "stamp": stamp,
        "attempts": len(endpoint.budgets),
        "requests": metrics.requests,
        "requests_failed": metrics.requests_failed,
        "retries": metrics.retries,
        "bytes_sent": metrics.bytes_sent,
        "endpoint_failed_attempts": health.get("failed_attempts", 0),
        "endpoint_retries": health.get("retries", 0),
    }
    return accounting, outcome, endpoint, context


def _down():
    return EndpointUnavailableError("ep")


_SCRIPTS = {
    # two transient failures absorbed by the retry budget
    "fail-fail-succeed": (
        lambda: [_down(), _down(), None],
        dict(outcome="Response", stamp=None, attempts=3, requests=1,
             requests_failed=2, retries=2, bytes_sent=3 * len(TEXT)),
    ),
    # a retransmission would only repeat it: no retry, whatever is left
    "not-retryable-first": (
        lambda: [EndpointProtocolError("ep", "HTTP 400", retryable=False), None],
        dict(outcome="EndpointProtocolError", stamp=(1, len(TEXT)),
             attempts=1, requests=0, requests_failed=1, retries=0,
             bytes_sent=len(TEXT)),
    ),
    # the server's Retry-After is a floor under the 1 ms backoff
    "throttled-retry-after": (
        lambda: [EndpointThrottledError("ep", 503, retry_after=0.05), None],
        dict(outcome="Response", stamp=None, attempts=2, requests=1,
             requests_failed=1, retries=1, bytes_sent=2 * len(TEXT)),
    ),
    # the retry budget runs out: the last error carries every attempt
    "exhausted": (
        lambda: [_down(), _down(), _down()],
        dict(outcome="EndpointUnavailableError", stamp=(3, 3 * len(TEXT)),
             attempts=3, requests=0, requests_failed=3, retries=2,
             bytes_sent=3 * len(TEXT)),
    ),
}


@pytest.mark.parametrize("name", sorted(_SCRIPTS))
def test_same_script_same_accounting_on_both_clocks(name):
    script, expected = _SCRIPTS[name]
    modeled, modeled_outcome, _, _ = _drive(_Scripted, script())
    measured, measured_outcome, _, _ = _drive(_MeasuredScripted, script())
    assert modeled == measured
    for key, value in expected.items():
        assert modeled[key] == value, key
    if name == "throttled-retry-after":
        # charged on one clock, slept on the other — honoured on both
        assert modeled_outcome.cost_seconds >= 0.05
        assert measured_outcome.cost_seconds >= 0.05
        assert measured_outcome.wall_clock and not modeled_outcome.wall_clock


def test_budget_too_small_for_the_next_backoff():
    """The one step the clocks take differently, by design: a measured
    request's timeout is a real socket budget that bounds the loop, so a
    backoff that does not fit is never slept; a modeled request retries
    on and is censored at its timeout when it is scheduled.  Either way
    the request fails, and the client never waits past its timeout."""

    def script():
        return [EndpointThrottledError("ep", 503, retry_after=10.0), None]

    limits = dict(request_timeout_seconds=0.05)
    measured, error, endpoint, context = _drive(
        _MeasuredScripted, script(), **limits
    )
    assert measured["outcome"] == "EndpointThrottledError"
    assert measured["stamp"] == (1, len(TEXT))
    assert measured["attempts"] == 1 and measured["retries"] == 0
    # the attempt was handed what was left of the budget, not a blank cheque
    assert 0 < endpoint.budgets[0] <= 0.05
    assert context.metrics.virtual_seconds <= 0.05

    modeled, error, endpoint, context = _drive(_Scripted, script(), **limits)
    assert isinstance(error, RequestTimeoutError) and not error.deadline
    assert modeled["attempts"] == 2 and modeled["retries"] == 1
    assert endpoint.budgets == [None, None]
    assert context.metrics.timeouts == 1
    assert context.metrics.virtual_seconds == pytest.approx(0.05)


def test_exhausted_retries_past_the_timeout_count_per_endpoint_too():
    """Regression (failed at 7048a24): retries that outlast the request
    timeout bumped ``Metrics.timeouts`` but not the endpoint's own
    ``timeouts`` stat, so ``health_snapshot()`` / ``/stats`` disagreed
    with the query's metrics."""
    federation = Federation(
        [LocalEndpoint.from_triples(
            "ep2", nt_parse(EP2_TRIPLES), faults=FaultProfile.always_down()
        )],
        network=LOCAL_CLUSTER,
    )
    context = federation.make_context()
    with ElasticRequestHandler(
        federation, context, request_timeout_seconds=0.1, max_retries=2
    ) as handler:
        with pytest.raises(EndpointUnavailableError):
            handler.execute(Request("ep2", TEXT, kind="ASK"))
        snapshot = handler.health_snapshot()
    assert context.metrics.timeouts == 1
    assert snapshot["ep2"]["timeouts"] == context.metrics.timeouts
    # the client stopped waiting at the timeout
    assert context.metrics.virtual_seconds == pytest.approx(0.1)
