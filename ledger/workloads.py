"""The four ledger workloads: frozen parameters, seeded query streams,
the union-graph oracle, and the closed-loop drivers.

Every workload is a sequence of *rounds* with a fixed template
composition; ``--seed`` picks the constants and the order, never the
shape, so two seeds do the same amount of work on different inputs.  The
driver runs whole rounds until ``--seconds`` have passed: a partial
round would tilt the means toward whichever templates came first.

The program under test is built with its **default arguments**
everywhere (engines, generator, endpoints, servers; served engines as
``repro.serving.__main__`` builds them), so a later change to a default
shows up here without editing this file.
"""

from __future__ import annotations

import http.client
import json
import math
import random
import resource
import subprocess
import sys
import threading
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlencode, urlsplit

from repro.core import LusailEngine
from repro.datasets.lubm import LUBM_QUERIES, UB_PREFIX, LubmGenerator
from repro.endpoint import AZURE_GEO
from repro.serving import SPARQL_RESULTS_JSON, decode_response_body
from repro.sparql import Evaluator, parse_query
from repro.store import TripleStore

LEDGER_DIR = Path(__file__).resolve().parent
_perf = time.perf_counter


# ----------------------------------------------------------------------
# Frozen parameters
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Params:
    """One workload's frozen shape.  Changing any field starts a new
    baseline: numbers before and after are not comparable."""

    #: why the workload is in the suite (one line, for BENCHMARK.json)
    why: str
    universities: int
    departments: int
    graduates: int
    #: one round's slots.  A slot is a template name, optionally
    #: ``#k``-suffixed: distinct slots of one template get distinct
    #: constants, a repeated slot repeats the same query text.
    round: Tuple[str, ...]
    #: rounds whose request/byte/virtual-time counts are reported; fixed
    #: so the counts repeat exactly however many rounds the clock allows.
    #: ``None`` (over sockets, where nothing repeats exactly): all rounds
    count_rounds: Optional[int]
    #: the highest percentile that keeps >= 10 samples beyond it at the
    #: sample counts this workload reaches in ``run_seconds``
    tail_percentile: float
    #: slots sent first, in this order, before the shuffled ``round``
    opening: Tuple[str, ...] = ()
    #: timed set-ups per run; ``setup_s`` is their median
    setup_repeats: int = 9


def _slots(**shares: int) -> Tuple[str, ...]:
    return tuple(slot.replace("_", "#") for slot, n in shares.items()
                 for _ in range(n))


# Compositions are fixed, not sampled, and sized so that the median and
# the tail percentile each fall in the middle of one template's cluster
# of latencies instead of on the gap between two: a statistic sitting on
# a gap jumps by the width of the gap from run to run.  The slowest
# template is a tenth (p95) or a fifth (p90) of each round, so the tail
# percentile is that cluster's own median.

#: One epoch of the repeat stream (30 queries).  A new engine first sees
#: the three constant-free templates in a fixed order (whichever comes
#: first pays the analysis the others share, so a shuffled opening would
#: make the misses' costs depend on the draw); then 27 shuffled queries:
#: first occurrences of three Q3 and one Q4d variant — with the opening,
#: seven misses that run the full path — and 23 repeats served from the
#: result cache.  The median is a Q1 hit; p95 is a Q3 miss.
_EPOCH_OPENING = ("Q1", "Q2", "Q4")
_EPOCH_REST = _slots(Q1=8, Q2=5, Q4=2, Q3_0=3, Q3_1=3, Q3_2=3, Q4d_0=3)

WORKLOADS: Dict[str, Params] = {
    "cold_analysis": Params(
        why="fresh engine per query: every ASK, locality check and COUNT "
            "probe is paid, so analysis and endpoint check-query "
            "evaluation dominate and every cache is bypassed",
        universities=8, departments=4, graduates=40,
        # median: a Q3; p90: a Q4d
        round=_slots(Q1=2, Q2=1, Q3_0=1, Q3_1=1, Q3_2=1, Q3_3=1, Q4=1,
                     Q4d_0=1, Q4d_1=1),
        count_rounds=5, tail_percentile=0.90,
    ),
    "probe_warm_stream": Params(
        why="warm probe caches, result cache emptied per query, answer "
            "streamed: SAPE dispatch, VALUES-bound evaluation and joins "
            "dominate; first-result time differs from total latency",
        universities=8, departments=4, graduates=40,
        # median: a Q4d; p90: a Q3
        round=_slots(Q1=1, Q2=1, Q3_0=1, Q3_1=1, Q4=1, Q4d_0=1, Q4d_1=1,
                     Q4d_2=1, Q4d_3=1, Q4d_4=1),
        count_rounds=10, tail_percentile=0.90,
    ),
    "repeat_mix": Params(
        why="most queries repeat within an engine's life: the median is "
            "the result-cache hit path (parse, cache keys, joins, "
            "DISTINCT), the tail is the rare full-path miss",
        universities=8, departments=5, graduates=50,
        opening=_EPOCH_OPENING, round=_EPOCH_REST,
        count_rounds=4, tail_percentile=0.95,
    ),
    "wire_mix": Params(
        why="the repeat stream over real sockets, two keep-alive clients "
            "against a front door federating per-university servers: "
            "serving, RemoteEndpoint and the wall-clock request path",
        universities=4, departments=4, graduates=40,
        opening=_EPOCH_OPENING, round=_EPOCH_REST,
        count_rounds=None, tail_percentile=0.95, setup_repeats=5,
    ),
}


def generator(params: Params) -> LubmGenerator:
    return LubmGenerator(
        universities=params.universities,
        departments_per_university=params.departments,
        graduate_students_per_department=params.graduates,
    )


# ----------------------------------------------------------------------
# Query templates and the seeded stream
# ----------------------------------------------------------------------

def q3(university: int) -> str:
    """LUBM Q3 (degree holders of one university), any university."""
    return LUBM_QUERIES["Q3"].replace(
        "university0.edu/University0",
        f"university{university}.edu/University{university}",
    )


def q4d(university: int, department: int) -> str:
    """Q4 restricted to the students of one department."""
    member_of = (
        f"  ?x <{UB_PREFIX}memberOf> "
        f"<http://www.university{university}.edu/Department{department}> .\n"
    )
    head, brace, tail = LUBM_QUERIES["Q4"].rpartition("}")
    return head + member_of + brace + tail


class QueryStream:
    """Rounds of query texts drawn from ``seed``.

    ``fixed`` keeps one instantiation for the whole run (the workload
    warms each distinct text once before timing); otherwise every round
    draws fresh constants.
    """

    def __init__(self, name: str, params: Params, seed: int, fixed: bool):
        self.params = params
        self._rng = random.Random(f"{name}:{seed}")
        self._fixed = self._instantiate() if fixed else None

    def _instantiate(self) -> Dict[str, str]:
        params, rng = self.params, self._rng
        slots = sorted(set(params.opening + params.round))
        universities = rng.sample(
            range(params.universities),
            sum(1 for s in slots if s.startswith("Q3")),
        )
        departments = rng.sample(
            [(u, d) for u in range(params.universities)
             for d in range(params.departments)],
            sum(1 for s in slots if s.startswith("Q4d")),
        )
        texts: Dict[str, str] = {}
        for slot in slots:
            template = slot.split("#")[0]
            if template == "Q3":
                texts[slot] = q3(universities.pop())
            elif template == "Q4d":
                texts[slot] = q4d(*departments.pop())
            else:
                texts[slot] = LUBM_QUERIES[template]
        return texts

    def distinct_texts(self) -> List[str]:
        """The run's query texts (``fixed`` streams only)."""
        return list(self._fixed.values())

    def next_round(self) -> List[str]:
        texts = self._fixed or self._instantiate()
        order = list(self.params.round)
        self._rng.shuffle(order)
        return [texts[slot] for slot in self.params.opening + tuple(order)]


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------

def canonical_rows(result_set) -> List[tuple]:
    return sorted(
        tuple("" if cell is None else cell.n3() for cell in row)
        for row in result_set.rows
    )


def all_texts(params: Params) -> List[str]:
    """Every query text a stream of this workload can draw."""
    templates = {slot.split("#")[0] for slot in params.opening + params.round}
    texts = [LUBM_QUERIES[t] for t in sorted(templates - {"Q3", "Q4d"})]
    universities = range(params.universities)
    if "Q3" in templates:
        texts += [q3(u) for u in universities]
    if "Q4d" in templates:
        texts += [q4d(u, d) for u in universities
                  for d in range(params.departments)]
    return texts


def oracle_answers(name: str) -> Dict[str, List[tuple]]:
    """Centralized equivalence: every generated triple in one store, each
    text the workload can draw evaluated once by the plain evaluator."""
    params = WORKLOADS[name]
    lubm = generator(params)
    evaluator = Evaluator(TripleStore(
        triple
        for index in range(lubm.universities)
        for triple in lubm.generate_university(index)
    ))
    return {
        # federated engines return DISTINCT solution sets
        text: canonical_rows(evaluator.evaluate(parse_query(text)).distinct())
        for text in all_texts(params)
    }


class Oracle:
    """The expected answer of every text, worked out before any timing.

    The union store is a second copy of all the data; built in the
    measuring process it would be most of ``peak_rss_mb``.  So a
    short-lived process builds it and only the answers come back.  It is
    a plain child that has ended before this returns (``multiprocessing``
    would leave its resource tracker running past the benchmark's exit).
    """

    def __init__(self, name: str):
        done = subprocess.run(
            [sys.executable, str(LEDGER_DIR / "oracle_child.py"), name],
            stdout=subprocess.PIPE, check=True,
        )
        self._answers = {
            text: [tuple(row) for row in rows]
            for text, rows in json.loads(done.stdout).items()
        }

    def matches(self, text: str, result_set) -> bool:
        return (
            result_set is not None
            and canonical_rows(result_set) == self._answers[text]
        )


# ----------------------------------------------------------------------
# Counters read from the program's own metrics
# ----------------------------------------------------------------------

_SUMMED = (
    "requests", "bytes_sent", "bytes_received", "virtual_seconds",
    "ask_requests", "retries", "requests_failed",
    "result_cache_hits", "result_cache_misses", "requests_avoided",
    "batches_routed", "replans", "sheds",
)


class Tally:
    """Sums ``QueryResult.metrics`` and the engines' cache counters —
    the per-layer counts that need no span."""

    def __init__(self):
        self.values: Dict[str, float] = {name: 0 for name in _SUMMED}
        self.values.update({
            "inflight_high_water": 0, "subqueries": 0, "delayed": 0,
            "ask_hits": 0, "ask_misses": 0,
            "check_hits": 0, "check_misses": 0,
            "pool_created": 0, "pool_reused": 0, "pool_stale": 0,
        })
        self._lock = threading.Lock()
        self._baselines: Dict[int, Tuple[int, int, int, int]] = {}

    @staticmethod
    def _cache_counters(engine) -> Tuple[int, int, int, int]:
        ask, check = engine.ask_cache, engine.check_cache
        return (ask.hits, ask.misses, check.hits, check.misses)

    def adopt(self, engine) -> None:
        """Count this engine's cache traffic from now on only."""
        self._baselines[id(engine)] = self._cache_counters(engine)

    def retire(self, engine) -> None:
        """Fold in an engine's cache traffic since ``adopt`` (or birth)."""
        base = self._baselines.pop(id(engine), (0, 0, 0, 0))
        now = self._cache_counters(engine)
        with self._lock:
            for key, after, before in zip(
                ("ask_hits", "ask_misses", "check_hits", "check_misses"),
                now, base,
            ):
                self.values[key] += after - before

    def add(self, result) -> None:
        metrics = result.metrics
        with self._lock:
            values = self.values
            for name in _SUMMED:
                values[name] += getattr(metrics, name)
            values["inflight_high_water"] = max(
                values["inflight_high_water"], metrics.inflight_high_water
            )
            values["subqueries"] += len(result.decomposition)
            values["delayed"] += sum(
                1 for sq in result.decomposition if sq.delayed
            )


# ----------------------------------------------------------------------
# Samples
# ----------------------------------------------------------------------

@dataclass
class Sample:
    """One client-visible query."""

    wall_s: float
    ttfr_s: float
    cpu_s: float
    ok: bool
    response_bytes: int = 0


@dataclass
class RoundCounts:
    """A round's engine-side totals (exact on the simulated network)."""

    requests: int
    wire_bytes: int
    virtual_s: float
    #: CPU the server process burned over the round (wire workload)
    child_cpu_s: float = 0.0

    @classmethod
    def between(cls, before: Dict[str, float], after: Dict[str, float],
                child_cpu_s: float = 0.0) -> "RoundCounts":
        """What a round added to a :class:`Tally`'s running sums."""
        def added(key):
            return after[key] - before[key]

        return cls(
            added("requests"),
            added("bytes_sent") + added("bytes_received"),
            added("virtual_seconds"),
            child_cpu_s,
        )


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------

class InProcessWorkload:
    """Shared set-up of the three simulated-network workloads: a LUBM
    federation on the AZURE_GEO latency model, one client, closed loop."""

    fixed_stream = False
    clients = 1
    #: nothing runs outside this process
    child_peak_rss_mb = 0.0
    child_layers: Optional[dict] = None
    child_load_s = 0.0
    #: the long-lived engine of the workloads that keep one
    engine = None

    def __init__(self, name: str, params: Params):
        self.name = name
        self.params = params
        self.generator = generator(params)
        self.federation = None
        self.triple_count = 0
        self.tally = Tally()
        self.tracer = None
        self._query_id = 0

    # -- life cycle --------------------------------------------------------

    def setup(self) -> None:
        """Generation + store load; timed by the caller as ``setup_s``."""
        self.federation = self.generator.build_federation(network=AZURE_GEO)
        self.triple_count = self.federation.total_triples()

    def warm(self, texts: Sequence[str]) -> None:
        """Untimed pass before measuring (nothing by default)."""

    def start_tracing(self, tracer) -> None:
        self.tracer = tracer
        self.checkpoint()

    def checkpoint(self) -> None:
        """Fold a live engine's cache counters into the tally."""

    def tally_values(self) -> Dict[str, float]:
        return self.tally.values

    def finish(self) -> None:
        self.checkpoint()

    def close(self) -> None:
        # Freed here, not under the next set-up's clock, and never
        # resident beside its successor (``peak_rss_mb``).
        self.federation = self.engine = None

    # -- one round ---------------------------------------------------------

    def run_round(
        self, oracle: Oracle, texts: Sequence[str]
    ) -> Tuple[List[Sample], RoundCounts]:
        self.begin_round()
        before = dict(self.tally.values)
        samples = [self._timed(oracle, text) for text in texts]
        return samples, RoundCounts.between(before, self.tally.values)

    def begin_round(self) -> None:
        pass

    def _span(self):
        if self.tracer is None:
            return nullcontext()
        self._query_id += 1
        return self.tracer.query(self._query_id)

    def _timed(self, oracle: Oracle, text: str) -> Sample:
        self.before_query()
        with self._span():
            cpu0 = time.thread_time()
            start = _perf()
            result, first = self.query(text)
            end = _perf()
            cpu = time.thread_time() - cpu0
        ok = result.status == "OK" and oracle.matches(text, result.result)
        self.tally.add(result)
        return Sample(end - start, (first or end) - start, cpu, ok)

    def before_query(self) -> None:
        pass

    def query(self, text: str):
        """Run one query; returns (QueryResult, time of first rows)."""
        raise NotImplementedError


class ColdAnalysis(InProcessWorkload):
    """A fresh engine per query: every ASK, check query and COUNT probe
    is paid, no cache helps."""

    def query(self, text):
        engine = LusailEngine(self.federation)
        result = engine.execute(text)
        self.tally.retire(engine)
        return result, None


class ProbeWarmStream(InProcessWorkload):
    """One long-lived engine with warm ASK/check/COUNT caches; the
    result cache is emptied before each query (the paper's "report the
    second run" protocol) and the answer is streamed."""

    fixed_stream = True

    def warm(self, texts):
        self.engine = LusailEngine(self.federation)
        for text in texts:
            self.engine.execute_streaming(text).drain()
        self.tally.adopt(self.engine)

    def before_query(self):
        self.engine.result_cache.clear()

    def query(self, text):
        handle = self.engine.execute_streaming(text)
        first = None
        for batch in handle.batches():
            if first is None and len(batch):
                first = _perf()
        return handle.result, first

    def checkpoint(self):
        self.tally.retire(self.engine)
        self.tally.adopt(self.engine)


class RepeatMix(InProcessWorkload):
    """An engine lives for one epoch with every cache live: the first
    occurrence of each text runs the full path, the repeats are served
    from the result cache."""

    def begin_round(self):
        self.checkpoint()
        self.engine = LusailEngine(self.federation)

    def query(self, text):
        return self.engine.execute(text), None

    def checkpoint(self):
        if self.engine is not None:
            self.tally.retire(self.engine)
            self.engine = None


# ----------------------------------------------------------------------
# The wire workload
# ----------------------------------------------------------------------

class ChildServers:
    """The server process (``wire_child.py``) and its control channel:
    one JSON line per command on stdin, one per reply on stdout."""

    def __init__(self, workload: str):
        self._process = subprocess.Popen(
            [sys.executable, str(LEDGER_DIR / "wire_child.py"), workload],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            self.hello = self._read()
        except BaseException:
            self.kill()
            raise

    def _read(self) -> dict:
        line = self._process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server process exited ({self._process.poll()})"
            )
        return json.loads(line)

    def command(self, name: str) -> dict:
        self._process.stdin.write(json.dumps({"cmd": name}) + "\n")
        self._process.stdin.flush()
        return self._read()

    def quit(self) -> dict:
        """Orderly stop; returns the child's final usage report."""
        try:
            report = self.command("quit")
            self._process.wait(timeout=10)
            return report
        finally:
            self.kill()

    def kill(self) -> None:
        """Reap the child on any exit path (idempotent)."""
        process = self._process
        if process.poll() is None:
            process.kill()
        process.wait()
        for pipe in (process.stdin, process.stdout):
            if pipe is not None:
                pipe.close()


class _Client(threading.Thread):
    """One keep-alive connection running its share of a round."""

    def __init__(self, tracer, oracle: Oracle, url: str,
                 queue: "deque[Tuple[int, str]]"):
        super().__init__(name="ledger-client")
        self.tracer = tracer
        self.oracle = oracle
        split = urlsplit(url)
        self.connection = http.client.HTTPConnection(
            split.hostname, split.port, timeout=60
        )
        self.queue = queue
        self.samples: List[Sample] = []
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        try:
            while True:
                try:
                    query_id, text = self.queue.popleft()
                except IndexError:
                    return
                self.samples.append(self._get(query_id, text))
        except BaseException as error:  # re-raised by the joining thread
            self.error = error
        finally:
            self.connection.close()

    def _get(self, query_id: int, text: str) -> Sample:
        tracer = self.tracer
        path = "/sparql?" + urlencode({"query": text})
        headers = {
            "Accept": SPARQL_RESULTS_JSON,
            "X-Ledger-Query": str(query_id),
        }
        span = nullcontext() if tracer is None else tracer.query(query_id)
        with span:
            cpu0 = time.thread_time()
            start = _perf()
            self.connection.request("GET", path, headers=headers)
            response = self.connection.getresponse()
            body = response.read1(65536)
            first = _perf()
            body += response.read()
            end = _perf()
            cpu = time.thread_time() - cpu0
        ok = False
        if response.status == 200:
            value, _info = decode_response_body(body)
            ok = self.oracle.matches(text, value)
        return Sample(
            end - start, first - start, cpu, ok, response_bytes=len(body)
        )


class WireMix:
    """The repeat stream over real sockets: a child process hosts one
    server per university plus a front door federating them through
    ``RemoteEndpoint``; two keep-alive connections drive ``GET /sparql``.
    An epoch begins with a front-door redeploy (fresh engine, fresh
    caches, fresh connection pools)."""

    fixed_stream = False
    clients = 2

    def __init__(self, name: str, params: Params):
        self.name = name
        self.params = params
        self.child: Optional[ChildServers] = None
        self.tracer = None
        self._query_id = 0
        #: the child's latest cumulative report
        self._report: Dict[str, object] = {}

    def setup(self) -> None:
        """Spawn the server process: generation, store load, and the
        boot of every member server and the front door."""
        self.child = ChildServers(self.name)
        self.triple_count = self.child.hello["triples"]
        self.child_load_s = self.child.hello["load_s"]
        self._report = self.child.command("counts")

    def start_tracing(self, tracer) -> None:
        self.tracer = tracer
        tracer.missing.extend(self.child.command("trace")["missing"])

    def run_round(self, oracle, texts):
        url = self.child.command("redeploy")["url"]
        queue = deque()
        for text in texts:
            self._query_id += 1
            queue.append((self._query_id, text))
        clients = [
            _Client(self.tracer, oracle, url, queue)
            for _ in range(self.clients)
        ]
        for client in clients:
            client.start()
        for client in clients:
            client.join()
        for client in clients:
            if client.error is not None:
                raise client.error
        before, self._report = self._report, self.child.command("counts")
        counts = RoundCounts.between(
            before["tally"], self._report["tally"],
            self._report["cpu_s"] - before["cpu_s"],
        )
        return [s for client in clients for s in client.samples], counts

    def tally_values(self) -> Dict[str, float]:
        return self._report["tally"]

    def finish(self) -> None:
        self._report = self.child.quit()
        self.child = None

    def close(self) -> None:
        if self.child is not None:
            self.child.kill()
            self.child = None

    @property
    def child_peak_rss_mb(self) -> float:
        return self._report["peak_rss_mb"]

    @property
    def child_layers(self) -> Optional[dict]:
        return self._report.get("layers")


def make_workload(name: str):
    params = WORKLOADS[name]
    kind = {
        "cold_analysis": ColdAnalysis,
        "probe_warm_stream": ProbeWarmStream,
        "repeat_mix": RepeatMix,
        "wire_mix": WireMix,
    }[name]
    return kind(name, params)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def tail_rank(count: int, fraction: float) -> int:
    """1-based nearest rank of the ``fraction`` percentile."""
    return max(1, math.ceil(count * fraction))


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values``."""
    return sorted(values)[tail_rank(len(values), fraction) - 1]


def self_peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
