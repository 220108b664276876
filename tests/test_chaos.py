"""Wire-level chaos: every injected byte-level fault must surface as a
typed outcome — bit-identical results, an honest PARTIAL, or a typed
error.  Never a hang past the deadline, never a silently wrong or empty
result set.
"""

import time

import pytest

from .conftest import EP1_TRIPLES, EP2_TRIPLES, QA_EXPECTED, QUERY_QA
from repro.core import LusailEngine
from repro.endpoint import (
    EndpointConnectionError,
    EndpointProtocolError,
    EndpointThrottledError,
    EndpointUnavailableError,
    RemoteEndpoint,
)
from repro.federation import Federation
from repro.serving import QuerySessionManager, start_server

from .chaos_proxy import ChaosProfile, ChaosProxy
from .test_remote_endpoint import member_engine, row_values

UB = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"
LIST_QUERY = f"SELECT ?s ?o WHERE {{ ?s <{UB}advisor> ?o }}"


def boot_member(endpoint_id="ep1", triples=EP1_TRIPLES):
    manager = QuerySessionManager(
        member_engine(endpoint_id, triples), tenants=(), max_concurrent=8
    )
    return start_server(manager)[0]


def make_remote(proxy, **kwargs):
    kwargs.setdefault("connect_timeout", 1.0)
    kwargs.setdefault("request_timeout", 2.0)
    return RemoteEndpoint(proxy.url, endpoint_id="ep1", **kwargs)


class TestDeterminism:
    def test_same_seed_same_fault_schedule(self):
        profile = ChaosProfile(seed=7, reset_rate=0.3, truncate_rate=0.3)
        first = [profile.fault_for_connection(n)[0] for n in range(50)]
        second = [profile.fault_for_connection(n)[0] for n in range(50)]
        assert first == second
        assert set(first) > {None}  # some faults actually fire

    def test_different_seed_different_schedule(self):
        a = ChaosProfile(seed=1, reset_rate=0.5)
        b = ChaosProfile(seed=2, reset_rate=0.5)
        schedule_a = [a.fault_for_connection(n)[0] for n in range(64)]
        schedule_b = [b.fault_for_connection(n)[0] for n in range(64)]
        assert schedule_a != schedule_b

    def test_fixed_evaluation_order_first_hit_wins(self):
        profile = ChaosProfile(seed=0, storm_rate=1.0, reset_rate=1.0)
        for n in range(10):
            assert profile.fault_for_connection(n)[0] == "storm"


class TestFaultInjection:
    def test_quiet_profile_is_transparent(self):
        server = boot_member()
        proxy = ChaosProxy(*server.server_address[:2], ChaosProfile.quiet())
        try:
            remote = make_remote(proxy)
            direct = RemoteEndpoint(server.url, endpoint_id="ep1")
            through = remote.execute(LIST_QUERY)
            straight = direct.execute(LIST_QUERY)
            assert row_values(through.value) == row_values(straight.value)
            assert proxy.stats()["passthrough"] >= 1
            assert proxy.stats()["reset"] == 0
            remote.close()
            direct.close()
        finally:
            proxy.close()
            server.shutdown()
            server.server_close()

    def test_reset_surfaces_as_typed_connection_error(self):
        server = boot_member()
        proxy = ChaosProxy(
            *server.server_address[:2],
            ChaosProfile(seed=3, reset_rate=1.0, reset_after_bytes=64),
        )
        try:
            remote = make_remote(proxy)
            with pytest.raises(EndpointConnectionError) as info:
                remote.execute(LIST_QUERY)
            # mid-body RST: classified as reset or as a short read,
            # depending on how much the kernel delivered first
            assert info.value.kind in ("reset", "half-close")
            remote.close()
        finally:
            proxy.close()
            server.shutdown()
            server.server_close()

    def test_truncated_body_never_decodes_as_empty(self):
        server = boot_member()
        proxy = ChaosProxy(
            *server.server_address[:2],
            ChaosProfile(seed=4, truncate_rate=1.0, truncate_after_bytes=80),
        )
        try:
            remote = make_remote(proxy)
            with pytest.raises(
                (EndpointConnectionError, EndpointProtocolError)
            ):
                remote.execute(LIST_QUERY)
            remote.close()
        finally:
            proxy.close()
            server.shutdown()
            server.server_close()

    def test_stall_respects_wall_clock_budget(self):
        server = boot_member()
        proxy = ChaosProxy(
            *server.server_address[:2],
            ChaosProfile(
                seed=5, stall_rate=1.0, stall_after_bytes=16,
                stall_seconds=30.0,
            ),
        )
        try:
            remote = make_remote(proxy, request_timeout=1.0)
            started = time.monotonic()
            with pytest.raises(EndpointConnectionError) as info:
                remote.execute(LIST_QUERY)
            elapsed = time.monotonic() - started
            assert info.value.kind in ("slow-loris", "timeout")
            assert elapsed < 5.0  # never waits out the 30s stall
            remote.close()
        finally:
            proxy.close()
            server.shutdown()
            server.server_close()

    def test_garbage_body_is_a_protocol_error(self):
        server = boot_member()
        proxy = ChaosProxy(
            *server.server_address[:2],
            ChaosProfile(seed=6, garbage_rate=1.0),
        )
        try:
            remote = make_remote(proxy)
            with pytest.raises(
                (EndpointProtocolError, EndpointConnectionError)
            ):
                remote.execute(LIST_QUERY)
            remote.close()
        finally:
            proxy.close()
            server.shutdown()
            server.server_close()

    def test_duplicated_chunks_are_a_protocol_error(self):
        server = boot_member()
        proxy = ChaosProxy(
            *server.server_address[:2],
            ChaosProfile(seed=7, duplicate_rate=1.0),
        )
        try:
            remote = make_remote(proxy)
            with pytest.raises(
                (EndpointProtocolError, EndpointConnectionError)
            ):
                remote.execute(LIST_QUERY)
            remote.close()
        finally:
            proxy.close()
            server.shutdown()
            server.server_close()

    def test_storm_answers_throttle_without_touching_upstream(self):
        server = boot_member()
        proxy = ChaosProxy(
            *server.server_address[:2],
            ChaosProfile(seed=8, storm_rate=1.0, storm_retry_after=0.25),
        )
        try:
            remote = make_remote(proxy)
            with pytest.raises(EndpointThrottledError) as info:
                remote.execute(LIST_QUERY)
            assert info.value.http_status == 503
            assert info.value.retry_after == pytest.approx(0.25)
            remote.close()
        finally:
            proxy.close()
            server.shutdown()
            server.server_close()

    def test_429_storm_variant(self):
        server = boot_member()
        proxy = ChaosProxy(
            *server.server_address[:2],
            ChaosProfile(seed=9, storm_rate=1.0, storm_status=429),
        )
        try:
            remote = make_remote(proxy)
            with pytest.raises(EndpointThrottledError) as info:
                remote.execute(LIST_QUERY)
            assert info.value.http_status == 429
            remote.close()
        finally:
            proxy.close()
            server.shutdown()
            server.server_close()


#: moderate per-connection fault rates: resets, truncations, throttling
_STORM = dict(
    reset_rate=0.25, truncate_rate=0.15,
    storm_rate=0.15, storm_retry_after=0.02,
)


class TestChaosFederation:
    """The typed-outcome invariant under a seeded fault storm."""

    @staticmethod
    def _federate_through(profiles):
        servers, proxies, remotes = [], [], []
        for index, (endpoint_id, triples) in enumerate(
            (("ep1", EP1_TRIPLES), ("ep2", EP2_TRIPLES))
        ):
            server = boot_member(endpoint_id, triples)
            proxy = ChaosProxy(*server.server_address[:2], profiles[index])
            remote = RemoteEndpoint(
                proxy.url, endpoint_id=endpoint_id,
                connect_timeout=1.0, request_timeout=3.0,
            )
            servers.append(server)
            proxies.append(proxy)
            remotes.append(remote)
        return servers, proxies, remotes

    @staticmethod
    def _teardown(servers, proxies, remotes):
        for remote in remotes:
            remote.close()
        for proxy in proxies:
            proxy.close()
        for server in servers:
            server.shutdown()
            server.server_close()

    def test_fault_free_control_is_bit_identical(self):
        servers, proxies, remotes = self._federate_through(
            [ChaosProfile.quiet(), ChaosProfile.quiet()]
        )
        try:
            engine = LusailEngine(Federation(remotes), use_threads=True)
            outcome = engine.execute(QUERY_QA)
            assert outcome.status == "OK", outcome.error
            assert set(row_values(outcome.result)) == QA_EXPECTED
        finally:
            self._teardown(servers, proxies, remotes)

    def test_seeded_fault_storm_yields_typed_outcomes_only(self):
        """Moderate fault rates: the query must finish within its real
        time bound and land in exactly one of the three legal states —
        the exact answer, a subset with an honest completeness report,
        or a typed error."""
        # Seeds chosen so connection 0 passes (the pool bootstraps) and
        # later connections fault — deterministically reproducible.
        self._assert_typed_outcome((8, 12), _STORM, dict(max_retries=4))

    # With retries the storm is usually absorbed; without, the run lands
    # on a typed error or (partial results on) an honest subset.  The
    # single-fault profiles are TestFaultInjection's, one kind each.
    @pytest.mark.parametrize("seeds,rates,knobs", [
        ((8, 9), dict(_STORM, garbage_rate=0.1), dict(max_retries=4)),
        ((8, 12), _STORM, dict(max_retries=0)),
        ((8, 12), _STORM, dict(max_retries=0, partial_results=True)),
    ], ids=["garbage-too", "no-retries", "no-retries-partial"])
    def test_unabsorbed_faults_yield_typed_outcomes_too(
        self, seeds, rates, knobs
    ):
        self._assert_typed_outcome(seeds, rates, knobs)

    def _assert_typed_outcome(self, seeds, rates, knobs):
        profiles = [ChaosProfile(seed=seed, **rates) for seed in seeds]
        servers, proxies, remotes = self._federate_through(profiles)
        try:
            engine = LusailEngine(
                Federation(remotes), use_threads=True, **knobs
            )
            started = time.monotonic()
            outcome = engine.execute(QUERY_QA)
            elapsed = time.monotonic() - started
            assert elapsed < 120.0
            if outcome.status in ("OK", "PARTIAL"):
                rows = set(row_values(outcome.result))
                if outcome.completeness.complete:
                    # a full answer must be *the* answer
                    assert outcome.status == "OK"
                    assert rows == QA_EXPECTED
                else:
                    # honest partial: a subset, and the report names
                    # the lost members
                    assert rows <= QA_EXPECTED
                    assert set(outcome.completeness.endpoints_failed) <= {
                        "ep1", "ep2"
                    }
            else:
                # typed failure, never a silent empty
                assert outcome.error
                assert outcome.result is None
            fired = sum(
                proxy.stats()[kind]
                for proxy in proxies
                for kind in ("reset", "truncate", "garbage", "storm")
            )
            assert fired > 0  # the storm actually happened
        finally:
            self._teardown(servers, proxies, remotes)

    def test_dead_upstream_fails_typed_not_hanging(self):
        """Proxy to a closed port: connect errors all the way down."""
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        proxy = ChaosProxy("127.0.0.1", dead_port, ChaosProfile.quiet())
        try:
            remote = make_remote(proxy, request_timeout=1.5)
            started = time.monotonic()
            with pytest.raises(EndpointUnavailableError):
                remote.execute(LIST_QUERY)
            assert time.monotonic() - started < 10.0
            remote.close()
        finally:
            proxy.close()
