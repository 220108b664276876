"""The server side of the ``wire_mix`` workload, in its own process.

Hosts one ``LusailHTTPServer`` per university (each a single-member
Lusail engine over that university's store) and a *front door* whose
engine federates them through ``RemoteEndpoint`` — the paper's
multi-region deployment on loopback.  Engines are built exactly as
``repro.serving.__main__`` builds them.

The bench process drives it over stdin/stdout, one JSON object per
line: ``redeploy`` (new engines, so new caches and connection pools, on
every server; the loaded stores stay), ``counts`` (cumulative request /
byte / virtual-time / CPU totals), ``trace`` (install the layer
wrappers), ``quit`` (final report, then exit).  Closing stdin also stops
it, so a dead parent never leaves servers behind.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import threading
import time
from pathlib import Path

LEDGER_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(LEDGER_DIR.parent / "src"))
sys.path.insert(0, str(LEDGER_DIR))

from repro.core import LusailEngine  # noqa: E402
from repro.endpoint import LocalEndpoint, federate_remotes  # noqa: E402
from repro.federation import Federation  # noqa: E402
from repro.serving import QuerySessionManager, start_server  # noqa: E402

import trace as ledger_trace  # noqa: E402
from workloads import WORKLOADS, Tally, generator  # noqa: E402


def served_engine(federation: Federation) -> LusailEngine:
    return LusailEngine(
        federation, use_threads=True, reset_request_windows=False
    )


class CountingManager(QuerySessionManager):
    """Keeps the totals the client cannot see through the protocol."""

    def __init__(self, engine, tally: Tally):
        super().__init__(engine)
        self._tally = tally

    def execute(self, *args, **kwargs):
        result = super().execute(*args, **kwargs)
        self._tally.add(result)
        return result


class Deployment:
    def __init__(self, workload: str):
        lubm = generator(WORKLOADS[workload])
        self.endpoints = []
        #: seconds inside the store loads alone (``store.load_s``)
        self.load_s = 0.0
        for index in range(lubm.universities):
            triples = lubm.generate_university(index)
            started = time.perf_counter()
            self.endpoints.append(LocalEndpoint.from_triples(
                f"university{index}", triples
            ))
            self.load_s += time.perf_counter() - started
        self.triples = sum(e.triple_count() for e in self.endpoints)
        self.tally = Tally()
        self.members = []
        self.front = None
        self.remotes = []
        self.redeploy()

    def _fold_front(self, tally: Tally) -> None:
        """Add the live front door's cache, shed and pool counters."""
        manager = self.front.manager
        tally.retire(manager.engine)
        tally.values["sheds"] += manager.admission.sheds
        for remote in self.remotes:
            stats = remote.pool_stats()
            for key, name in (
                ("pool_created", "connections_created"),
                ("pool_reused", "connections_reused"),
                ("pool_stale", "stale_retries"),
            ):
                tally.values[key] = tally.values.get(key, 0) + stats[name]

    def redeploy(self) -> str:
        """Fresh engines (so fresh caches and connection pools) on every
        server; the loaded stores stay."""
        if self.front is not None:
            # The round is over, so nothing is in flight: take the old
            # front door's counters now and let the accept loops (which
            # only notice a shutdown at their next poll) end by themselves.
            self._fold_front(self.tally)
            for remote in self.remotes:
                remote.close()
            _stop_servers([self.front, *self.members], wait=False)
        self.members = [
            start_server(QuerySessionManager(
                served_engine(Federation([endpoint]))
            ))[0]
            for endpoint in self.endpoints
        ]
        self.remotes = federate_remotes([m.url for m in self.members])
        manager = CountingManager(
            served_engine(Federation(self.remotes)), self.tally
        )
        self.front = start_server(manager)[0]
        return self.front.url

    def report(self) -> dict:
        """Cumulative totals including the live front door."""
        snapshot = Tally()
        snapshot.values.update(self.tally.values)
        self._fold_front(snapshot)
        return {
            "cpu_s": time.process_time(),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF
            ).ru_maxrss / 1024.0,
            "tally": snapshot.values,
        }

    def stop(self) -> None:
        for remote in self.remotes:
            remote.close()
        _stop_servers([self.front, *self.members], wait=True)


def _stop_servers(servers, wait: bool) -> None:
    """Shut servers down side by side: each ``shutdown()`` blocks until
    that server's accept loop polls again (up to half a second)."""

    def stop(server):
        server.shutdown()
        server.server_close()

    threads = [
        threading.Thread(target=stop, args=(server,), daemon=True)
        for server in servers
    ]
    for thread in threads:
        thread.start()
    if wait:
        for thread in threads:
            thread.join()


def main() -> int:
    deployment = Deployment(sys.argv[1])
    # The loaded stores live as long as the process: keep the collector
    # from re-walking them in the middle of a request.
    gc.collect()
    gc.freeze()
    tracer = None

    def reply(**fields) -> None:
        sys.stdout.write(json.dumps(fields) + "\n")
        sys.stdout.flush()

    reply(triples=deployment.triples, load_s=deployment.load_s)
    try:
        for line in sys.stdin:
            command = json.loads(line)["cmd"]
            if command == "redeploy":
                reply(url=deployment.redeploy())
            elif command == "counts":
                reply(**deployment.report())
            elif command == "trace":
                # Servers are idle between rounds, so swapping the
                # functions under them is safe.
                tracer = ledger_trace.Tracer(always_active=True)
                ledger_trace.install(tracer)
                reply(missing=tracer.missing)
            elif command == "quit":
                report = deployment.report()
                if tracer is not None:
                    report["layers"] = tracer.totals()
                    out = LEDGER_DIR / "out"
                    out.mkdir(exist_ok=True)
                    tracer.write_spans(out / "wire_mix.child.spans.jsonl")
                reply(**report)
                break
    finally:
        deployment.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
