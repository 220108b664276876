"""Concurrency regressions for the serving-era federation stack.

The serving layer runs many ``LusailEngine.execute(use_threads=True)``
calls at once against one shared federation, which exposed a sweep of
races that single-query execution never hit: lost-update ``+=`` on
metrics counters, endpoint stats snapshot/delta windows interleaving
across queries, P² quantile marker corruption, OrderedDict corruption
in the result cache, and request-handler ``close()`` racing
resolutions and late submissions.  These tests hammer each fixed
structure from many threads and assert *exact* totals — a lost update
shows up as an off-by-N, not a flake.
"""

import threading

from repro.core import LusailEngine
from repro.endpoint import LocalEndpoint
from repro.endpoint.errors import QueryRejectedError
from repro.endpoint.metrics import Metrics
from repro.federation import (
    ElasticRequestHandler,
    Federation,
    Request,
    ResultCache,
)
from repro.federation.deadline import LatencyTracker
from repro.rdf import parse as nt_parse
from repro.sparql.results import ResultSet

from .conftest import (
    EP1_TRIPLES,
    EP2_TRIPLES,
    QA_EXPECTED,
    QUERY_QA,
    UB,
    build_paper_federation,
    result_values,
)

THREADS = 8
ROUNDS = 400


def _hammer(worker, threads=THREADS):
    """Run ``worker(index)`` on N threads through a start barrier."""
    barrier = threading.Barrier(threads)
    errors = []

    def wrapped(index):
        barrier.wait()
        try:
            worker(index)
        except BaseException as exc:  # surfaced in the main thread
            errors.append(exc)

    pool = [
        threading.Thread(target=wrapped, args=(i,)) for i in range(threads)
    ]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    if errors:
        raise errors[0]


class TestMetricsCounters:
    def test_increment_is_exact_under_threads(self):
        metrics = Metrics()

        def worker(_index):
            for _ in range(ROUNDS):
                metrics.increment("requests")
                metrics.increment("bytes_received", 3)
                metrics.increment("virtual_seconds", 0.5)

        _hammer(worker)
        assert metrics.requests == THREADS * ROUNDS
        assert metrics.bytes_received == THREADS * ROUNDS * 3
        assert metrics.virtual_seconds == THREADS * ROUNDS * 0.5

    def test_concurrent_merge_is_exact(self):
        total = Metrics()

        def worker(_index):
            for _ in range(50):
                part = Metrics()
                part.requests = 2
                part.retries = 1
                part.phase_seconds["execution"] = 0.25
                part.lane_busy_seconds["ep1"] = 1.0
                total.merge(part)

        _hammer(worker)
        assert total.requests == THREADS * 50 * 2
        assert total.retries == THREADS * 50
        assert total.phase_seconds["execution"] == THREADS * 50 * 0.25
        assert total.lane_busy_seconds["ep1"] == THREADS * 50 * 1.0

    def test_merge_takes_max_of_high_water_marks(self):
        total = Metrics()
        total.inflight_high_water = 3
        part = Metrics()
        part.inflight_high_water = 7
        part.peak_intermediate_rows = 11
        total.merge(part)
        assert total.inflight_high_water == 7
        assert total.peak_intermediate_rows == 11


class TestEndpointSerialization:
    def test_compute_attribution_is_exact_across_threads(self):
        """Each response's compute delta covers exactly its own query.

        Before the endpoint-level lock, two concurrent queries would
        interleave their stats snapshot/delta windows and one query
        would be billed for the other's work — the per-response deltas
        then sum to more (or less) than the evaluator's own totals.
        """
        endpoint = LocalEndpoint.from_triples("ep1", nt_parse(EP1_TRIPLES))
        query = f"SELECT ?s WHERE {{ ?s <{UB}advisor> ?o }}"
        deltas = []
        lock = threading.Lock()

        def worker(_index):
            for _ in range(40):
                response = endpoint.execute(query)
                assert len(response.value) == 2
                with lock:
                    deltas.append(response.compute)

        _hammer(worker)
        total = endpoint._evaluator.stats
        billed = sum(d.get("patterns_evaluated", 0) for d in deltas)
        assert billed == total.patterns_evaluated
        billed_batches = sum(d.get("batches", 0) for d in deltas)
        assert billed_batches == total.batches

    def test_batch_paths_bill_each_request_its_own_work(self):
        """A LIMIT that stops pulling leaves a suspended pipeline behind
        and an EXISTS stage runs a second one inside the first: neither
        may leak work into another request's stats window.  Every
        response's counters equal the ones the same query costs alone."""
        checks = f"SELECT ?s WHERE {{ ?s <{UB}advisor> ?o . " \
            f"FILTER NOT EXISTS {{ ?s <{UB}takesCourse> ?c }} }} LIMIT 1"
        survivor = f"SELECT ?p WHERE {{ ?p <{UB}PhDDegreeFrom> ?u . " \
            f"FILTER NOT EXISTS {{ ?p <{UB}takesCourse> ?c }} }} LIMIT 1"
        bound = f"SELECT ?s ?c WHERE {{ VALUES ?s {{ <http://mit.edu/Lee> " \
            f"<http://never/seen> }} ?s <{UB}advisor> ?p . " \
            f"?p <{UB}teacherOf> ?c }}"
        queries = (checks, survivor, bound)
        counters = ("patterns_evaluated", "batches", "intermediate_rows")

        def cost(response):
            return tuple(response.compute.get(name, 0) for name in counters)

        alone = LocalEndpoint.from_triples("ep1", nt_parse(EP1_TRIPLES))
        expected = {q: cost(alone.execute(q)) for q in queries}
        assert all(expected[q][2] for q in queries)

        endpoint = LocalEndpoint.from_triples("ep1", nt_parse(EP1_TRIPLES))
        billed = []
        lock = threading.Lock()

        def worker(index):
            for round_ in range(30):
                query = queries[(index + round_) % len(queries)]
                response = endpoint.execute(query)
                assert cost(response) == expected[query]
                with lock:
                    billed.append(cost(response))

        _hammer(worker)
        total = endpoint._evaluator.stats
        assert tuple(map(sum, zip(*billed))) == tuple(
            getattr(total, name) for name in counters
        )

    def test_shared_engine_concurrent_queries_agree(self):
        """One engine, one federation, 8 threads: every answer exact."""
        federation = build_paper_federation()
        engine = LusailEngine(
            federation, use_threads=True, reset_request_windows=False
        )

        def worker(_index):
            for _ in range(3):
                result = engine.execute(QUERY_QA)
                assert result.status == "OK"
                assert result_values(result.result) == QA_EXPECTED

        _hammer(worker)


class TestLatencyTracker:
    def test_concurrent_observations_all_counted(self):
        tracker = LatencyTracker()

        def worker(index):
            for step in range(ROUNDS):
                tracker.observe("ep1", 0.01 * (index + 1) + 1e-5 * step)

        _hammer(worker)
        assert tracker.count("ep1") == THREADS * ROUNDS
        p95 = tracker.quantile("ep1", 0.95)
        assert p95 is not None and 0.0 < p95 < 1.0


class TestRequestHandlerClose:
    ASK = "ASK { ?s ?p ?o }"

    def _handler(self, **kwargs) -> ElasticRequestHandler:
        federation = build_paper_federation()
        context = federation.make_context()
        return ElasticRequestHandler(federation, context, **kwargs)

    def test_close_is_idempotent(self):
        handler = self._handler()
        handler.submit(Request("ep1", self.ASK, "ASK"))
        handler.submit(Request("ep2", self.ASK, "ASK"))
        handler.close()
        assert handler.cancelled == 2
        assert handler.context.metrics.requests_cancelled == 2
        handler.close()  # second close finds nothing to drain
        assert handler.cancelled == 2
        assert handler.context.metrics.requests_cancelled == 2

    def test_submit_after_close_sheds_without_touching_the_pool(self):
        handler = self._handler(use_threads=True)
        future = handler.submit(Request("ep1", self.ASK, "ASK"))
        assert future.result().value is True
        handler.close()
        late = handler.submit(Request("ep1", self.ASK, "ASK"))
        assert late.done()
        try:
            late.result()
        except QueryRejectedError:
            pass
        else:
            raise AssertionError("expected QueryRejectedError after close")
        assert handler.context.metrics.sheds == 1

    def test_concurrent_close_and_submit_never_crash(self):
        """close() racing submits: every submission either executes or
        sheds cleanly; cancelled/shed accounting stays consistent."""
        handler = self._handler(use_threads=True)
        submitted = []
        lock = threading.Lock()

        def submitter(index):
            if index == 0:
                handler.close()
                return
            for _ in range(20):
                future = handler.submit(Request("ep1", self.ASK, "ASK"))
                with lock:
                    submitted.append(future)

        _hammer(submitter)
        handler.close()
        for future in submitted:
            assert future.done() or future._thread_future is not None


class TestResultCacheConcurrency:
    def test_concurrent_put_get_exact_counters(self):
        from repro.rdf import IRI, Variable

        cache = ResultCache()
        rs = ResultSet((Variable("s"),), [(IRI("http://x/a"),)])

        def worker(index):
            for step in range(100):
                key = f"k{index}-{step}"
                assert cache.get("ep", 0, key) is None
                cache.put("ep", 0, key, rs)
                assert cache.get("ep", 0, key) is not None

        _hammer(worker)
        assert cache.hits == THREADS * 100
        assert cache.misses == THREADS * 100


class TestReplicaAwareCacheIdentity:
    def test_active_replicas_share_one_cache_scope(self):
        triples = list(nt_parse(EP1_TRIPLES))
        federation = Federation([
            LocalEndpoint.from_triples("ep1", triples),
            LocalEndpoint.from_triples("ep1b", triples),
        ])
        federation.declare_fragment("ep1", ("ep1", "ep1b"))
        scope_a, version_a = federation.cache_identity("ep1")
        scope_b, version_b = federation.cache_identity("ep1b")
        assert scope_a == scope_b
        assert version_a == version_b

    def test_standby_pair_shares_scope_and_any_mutation_invalidates(self):
        triples = list(nt_parse(EP1_TRIPLES))
        federation = Federation([
            LocalEndpoint.from_triples("ep1", triples),
            LocalEndpoint.from_triples("ep1b", triples),
        ])
        federation.declare_fragment("ep1", ("ep1", "ep1b"), policy="failover")
        scope_a, version_before = federation.cache_identity("ep1")
        scope_b, _ = federation.cache_identity("ep1b")
        assert scope_a == scope_b
        # mutating the *standby* copy must invalidate the shared entries
        from repro.rdf import IRI, Triple

        federation.endpoint("ep1b").store.add(Triple(
            IRI("http://x/s"), IRI("http://x/p"), IRI("http://x/o")
        ))
        _, version_after = federation.cache_identity("ep1")
        assert version_after != version_before

    def test_unreplicated_endpoint_keeps_private_identity(self):
        federation = build_paper_federation()
        scope, version = federation.cache_identity("ep1")
        assert scope == "ep1"
        assert version == federation.endpoint_version("ep1")

    def test_replica_routing_does_not_defeat_the_result_cache(self):
        """Two runs of one query hit the warm cache even when the
        replica router sends the second run's subqueries to the other
        copy — the cache key is the fragment, not the answering node."""
        ep1 = list(nt_parse(EP1_TRIPLES))
        ep2 = list(nt_parse(EP2_TRIPLES))
        federation = Federation([
            LocalEndpoint.from_triples("ep1", ep1),
            LocalEndpoint.from_triples("ep1b", ep1),
            LocalEndpoint.from_triples("ep2", ep2),
            LocalEndpoint.from_triples("ep2b", ep2),
        ])
        federation.declare_fragment("ep1", ("ep1", "ep1b"))
        federation.declare_fragment("ep2", ("ep2", "ep2b"))
        engine = LusailEngine(federation)

        first = engine.execute(QUERY_QA)
        assert first.status == "OK"
        assert result_values(first.result) == QA_EXPECTED
        # force the router's rotation so run two picks the other copies
        for _ in range(16):
            second = engine.execute(QUERY_QA)
            assert second.status == "OK"
            assert result_values(second.result) == QA_EXPECTED
            assert second.metrics.result_cache_hits > 0, (
                "replica rotation defeated the fragment-scoped cache"
            )
