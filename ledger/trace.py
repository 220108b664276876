"""Layer tracing from outside the program.

Nothing in ``src/`` knows it is being traced: :func:`install` replaces
the public functions at each layer boundary with wrappers that record a
span (name, start, end, parent, query id) per call.  A layer's *self
time* is its span minus the part covered by child spans, so the rows of
one workload add up to its mean query wall time instead of counting the
same millisecond once per nesting level.

Two kinds of wrapper exist because the store probes are called tens of
thousands of times per query and return lazy iterators: ``hot`` wrappers
only accumulate (no span record), and ``iterate`` wrappers time every
``next()`` on the returned iterator, keeping its laziness (the evaluator
relies on early exit for ASK / EXISTS).

State is per thread (the served engines run requests on pool threads).
A thread whose work blocks the client's answer is ``on_path``: its self
times are the rows that add up to the query wall.  Work handed to an
executor while a query is traced runs under that query's id on the
worker thread (:meth:`Tracer.carry_context`) and lands in the
*overlapped* column — the submitting thread's wait for it is on the
path, the work itself runs beside it.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from types import ModuleType
from typing import Callable, Dict, List, Optional, Union

_perf = time.perf_counter

#: stop recording individual spans past this many (aggregates continue)
SPAN_LIMIT = 200_000

ROOT = "ledger.query"

# span ids of frames that leave no span record
_HOT = -2
_UNRECORDED = -1


class _ThreadState:
    """One thread's open-span stack and accumulators."""

    __slots__ = (
        "stack", "on_path_s", "overlapped_s", "inclusive_s", "calls",
        "counters", "query", "on_path", "active",
    )

    def __init__(self, active: bool):
        #: open frames: [label, start, seconds covered by children, span id]
        self.stack: List[list] = []
        #: label -> self seconds, split by whether the thread was on the
        #: client's blocking path when the span closed
        self.on_path_s: Dict[str, float] = defaultdict(float)
        self.overlapped_s: Dict[str, float] = defaultdict(float)
        #: label -> whole-span seconds (recorded spans only)
        self.inclusive_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, float] = defaultdict(float)
        self.query: Optional[int] = None
        self.on_path = False
        #: wrappers pass straight through while this is False
        self.active = active

    def add_self(self, label: str, seconds: float) -> None:
        if self.on_path:
            self.on_path_s[label] += seconds
        else:
            self.overlapped_s[label] += seconds


class Tracer:
    """Collects spans and per-layer self times across threads."""

    def __init__(self, always_active: bool = False):
        """``always_active`` traces every call on every thread (a server
        process, whose threads only ever do the program's work);
        otherwise a thread is traced only inside :meth:`query` and in
        pool work submitted from there, so the harness's own use of the
        program stays out."""
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._always_active = always_active
        self._next_span = 0
        #: (id, parent id, query id, label, start, end, thread name)
        self.spans: List[tuple] = []
        #: targets :func:`install` could not find (renamed or deleted
        #: since the ledger was written) — their metrics read 0
        self.missing: List[str] = []
        self._installed: List[tuple] = []

    # -- per-thread state --------------------------------------------------

    def state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(self._always_active)
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def _enter(self, state: _ThreadState, label: str, record: bool) -> list:
        span_id = _UNRECORDED if record else _HOT
        if record and len(self.spans) < SPAN_LIMIT:
            # Only the id counter is shared; a lost increment under a
            # thread race would duplicate an id, so take the lock.
            with self._lock:
                span_id = self._next_span
                self._next_span += 1
        frame = [label, _perf(), 0.0, span_id]
        state.stack.append(frame)
        return frame

    def _exit(self, state: _ThreadState, frame: list) -> None:
        end = _perf()
        label, start, covered, span_id = frame
        elapsed = end - start
        stack = state.stack
        stack.pop()
        state.add_self(label, elapsed - covered)
        state.calls[label] += 1
        if span_id != _HOT:
            state.inclusive_s[label] += elapsed
        parent_id = -1
        if stack:
            parent = stack[-1]
            parent[2] += elapsed
            parent_id = max(parent[3], _UNRECORDED)
        if span_id >= 0:
            self.spans.append((
                span_id, parent_id, state.query, label, start, end,
                threading.current_thread().name,
            ))

    @contextmanager
    def query(self, query_id: int):
        """The root span of one client-visible query on this thread."""
        state = self.state()
        state.query = query_id
        state.on_path = state.active = True
        frame = self._enter(state, ROOT, True)
        try:
            yield
        finally:
            self._exit(state, frame)
            state.query = None
            state.active = self._always_active

    # -- wrapping ----------------------------------------------------------

    def wrap(
        self,
        owner: Union[type, ModuleType],
        name: str,
        layer: Union[None, str, Callable[[tuple], str]],
        *,
        hot: bool = False,
        iterate: bool = False,
        counter: Optional[str] = None,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.name`` with a span-recording wrapper.

        ``layer`` is the row the self time lands in, or a function of
        the call's positional arguments returning it; ``None`` only
        bumps ``counter`` (for a function always called from inside a
        span of the row it would land in).  ``hot`` skips the
        span record; ``iterate`` times the returned iterator's
        ``next()`` calls instead of the (instant) call that creates it;
        ``counter`` names a counter bumped per call; ``before(state,
        args)`` / ``after(state, args, result)`` run outside the span.
        A function ``owner`` found under other names in loaded
        ``repro`` modules (``from x import f``) is replaced there too.
        """
        original = vars(owner).get(name)
        if original is None or isinstance(original, (staticmethod, classmethod)):
            self.missing.append(f"{owner.__name__}.{name}")
            return
        tracer = self
        record = not hot

        @functools.wraps(original)
        def traced(*args, **kwargs):
            state = tracer.state()
            if not state.active:
                return original(*args, **kwargs)
            if before is not None:
                before(state, args)
            if counter is not None:
                state.counters[counter] += 1
            if layer is None:
                return original(*args, **kwargs)
            label = layer if isinstance(layer, str) else layer(args)
            if iterate:
                # The call itself only builds a lazy iterator.
                state.calls[label] += 1
                return _TimedIterator(
                    state, label, original(*args, **kwargs)
                )
            frame = tracer._enter(state, label, record)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(state, frame)
            if after is not None:
                after(state, args, result)
            return result

        targets = [(owner, name)]
        if isinstance(owner, ModuleType):
            for module_name, module in list(sys.modules.items()):
                if module is None or not module_name.startswith("repro"):
                    continue
                for alias, value in list(vars(module).items()):
                    if value is original and (module, alias) != (owner, name):
                        targets.append((module, alias))
        for target, alias in targets:
            setattr(target, alias, traced)
            self._installed.append((target, alias, original))

    def carry_context(self) -> None:
        """Run work submitted to a thread pool from inside a traced query
        under that query on the worker thread.

        Pool threads start inactive, so without this an engine that
        dispatches on threads would show its endpoint, evaluator and
        store time as nothing but the client thread's wait.  The worker
        is never on the client's path: the submitter's wait for the
        future is.
        """
        original = ThreadPoolExecutor.submit
        tracer = self

        @functools.wraps(original)
        def submit(executor, fn, /, *args, **kwargs):
            parent = tracer.state()
            if not parent.active:
                return original(executor, fn, *args, **kwargs)
            query = parent.query

            def carried(*args, **kwargs):
                state = tracer.state()
                was = (state.active, state.query, state.on_path)
                state.active, state.query, state.on_path = True, query, False
                try:
                    return fn(*args, **kwargs)
                finally:
                    state.active, state.query, state.on_path = was

            return original(executor, carried, *args, **kwargs)

        ThreadPoolExecutor.submit = submit
        self._installed.append((ThreadPoolExecutor, "submit", original))

    def uninstall(self) -> None:
        for target, alias, original in reversed(self._installed):
            setattr(target, alias, original)
        self._installed.clear()

    # -- reporting ---------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Aggregates over all threads, JSON-ready (the child process
        ships this to the bench process)."""
        on_path: Dict[str, float] = defaultdict(float)
        overlapped: Dict[str, float] = defaultdict(float)
        inclusive: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        counters: Dict[str, float] = defaultdict(float)
        with self._lock:
            states = list(self._states)
        for state in states:
            for label, seconds in list(state.on_path_s.items()):
                on_path[label] += seconds
            for label, seconds in list(state.overlapped_s.items()):
                overlapped[label] += seconds
            for label, seconds in list(state.inclusive_s.items()):
                inclusive[label] += seconds
            for label, count in list(state.calls.items()):
                calls[label] += count
            for label, value in list(state.counters.items()):
                counters[label] += value
        return {
            "on_path": dict(on_path),
            "overlapped": dict(overlapped),
            "inclusive": dict(inclusive),
            "calls": dict(calls),
            "counters": dict(counters),
        }

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, query, label, start, end, thread in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "query": query,
                    "name": label, "start": start, "end": end,
                    "thread": thread,
                }) + "\n")


class _TimedIterator:
    """Times each ``next()`` of a lazy result as self time of ``label``.

    Created and consumed on one thread (the evaluator pulls its own
    pipeline), so the thread state is captured once; the pulls push a
    bare frame so anything nested inside still subtracts correctly.
    """

    __slots__ = ("_state", "_label", "_next", "_seconds", "_frame")

    def __init__(self, state: _ThreadState, label: str, iterator):
        self._state = state
        self._label = label
        self._next = iter(iterator).__next__
        self._seconds = 0.0
        self._frame = [label, 0.0, 0.0, _HOT]

    def __iter__(self):
        return self

    def __next__(self):
        stack = self._state.stack
        frame = self._frame
        frame[2] = 0.0
        stack.append(frame)
        start = _perf()
        try:
            return self._next()
        finally:
            elapsed = _perf() - start
            stack.pop()
            self._seconds += elapsed - frame[2]
            if stack:
                stack[-1][2] += elapsed

    def __del__(self):
        # Early exit (ASK, EXISTS) abandons the iterator unexhausted.
        self._state.add_self(self._label, self._seconds)


def merge_totals(*parts: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    merged: Dict[str, Dict[str, float]] = {
        "on_path": {}, "overlapped": {}, "inclusive": {}, "calls": {},
        "counters": {},
    }
    for part in parts:
        for section, values in part.items():
            bucket = merged[section]
            for label, value in values.items():
                bucket[label] = bucket.get(label, 0) + value
    return merged


# ----------------------------------------------------------------------
# The layer boundaries
# ----------------------------------------------------------------------

#: the engine's five request kinds, as :func:`request_shape` names them
REQUEST_SHAPES = ("ask", "check", "count", "select", "values")


def request_shape(text: str) -> str:
    """Which of the engine's five request kinds a SPARQL text is."""
    head = text.lstrip()[:8].upper()
    if head.startswith("ASK"):
        return "ask"
    if "NOT EXISTS" in text:
        return "check"  # the Figure-5 locality check
    if "COUNT(" in text:
        return "count"
    if "VALUES" in text:
        return "values"
    return "select"


def install(tracer: Tracer) -> None:
    """Wrap the public functions at every layer boundary.

    Imports stay inside the seven packages the ledger may depend on;
    ``repro.bench`` is never touched.
    """
    import repro.core as core
    import repro.endpoint as endpoint
    import repro.federation as federation
    import repro.serving as serving
    import repro.sparql as sparql
    import repro.store as store
    from repro.core import cost, decomposer, joins, optimizer
    from repro.serving import protocol
    from repro.sparql import parser, results, serializer

    wrap = tracer.wrap
    tracer.carry_context()

    # sparql
    wrap(parser, "parse_query", "sparql.parse_ms")
    wrap(serializer, "serialize_query", "sparql.serialize_ms")
    wrap(serializer, "serialize_group", "sparql.serialize_ms")
    for name in ("ask", "select"):
        wrap(sparql.Evaluator, name, "sparql.evaluate_ms")
    wrap(sparql.Evaluator, "exists", None, counter="sparql.exists_calls")

    # store
    wrap(store.TripleStore, "__init__", "store.load_s")
    for name in ("match_bindings", "extend_id_rows"):
        wrap(store.TripleStore, name, "store.probe_ms", hot=True,
             iterate=True)
    wrap(store.TripleStore, "count", "store.probe_ms", hot=True)

    # endpoint
    def local_after(state, args, response):
        compute = getattr(response, "compute", None) or {}
        state.counters["sparql.intermediate_rows"] += compute.get(
            "intermediate_rows", 0
        )

    wrap(endpoint.LocalEndpoint, "execute",
         lambda args: f"endpoint.local.{request_shape(args[1])}_ms",
         after=local_after)
    wrap(endpoint.RemoteEndpoint, "execute", "endpoint.remote.exchange_ms")
    wrap(protocol, "decode_response_body", "endpoint.remote.decode_ms")

    # federation
    wrap(federation.SourceSelector, "select_all",
         "federation.source_selection_ms")

    def submit_after(state, args, future):
        shape = request_shape(args[1].query_text)
        state.counters[f"handler.{shape}_requests"] += 1

    wrap(federation.ElasticRequestHandler, "submit",
         "federation.handler_dispatch_ms", after=submit_after)
    wrap(federation.ResponseFuture, "result", "federation.handler_wait_ms")

    # core
    for name in ("begin", "collect", "detect"):
        wrap(core.GJVDetector, name, "core.gjv_ms")
    for name in ("prefetch", "drain", "estimate_all"):
        wrap(core.CardinalityEstimator, name, "core.cost_ms")
    wrap(cost, "classify_delayed", "core.cost_ms")
    wrap(cost, "decomposition_cost", "core.cost_ms")
    wrap(core.Decomposer, "decompose", "core.decompose_ms")
    wrap(decomposer, "compute_projections", "core.decompose_ms")
    wrap(core.SubqueryEvaluator, "evaluate", "core.sape_ms")

    def join_after(state, args, result):
        state.counters["core.join_rows_in"] += len(args[0]) + len(args[1])
        state.counters["core.join_rows_out"] += len(result)

    for name in ("hash_join", "left_outer_join"):
        wrap(joins, name, "core.join_ms", after=join_after)
    wrap(joins, "union_all", "core.join_ms")
    wrap(optimizer, "plan_join_order", "core.join_ms")

    def push_after(state, args, result):
        state.counters["core.join_rows_in"] += len(args[1])
        state.counters["core.join_rows_out"] += len(result)

    for name in ("push_left", "push_right"):
        wrap(joins.SymmetricHashJoin, name, "core.join_ms", after=push_after)
    wrap(core.LusailEngine, "execute", "core.engine_self_ms")
    wrap(core.LusailEngine, "execute_streaming", "core.engine_self_ms")
    wrap(results.ResultStream, "batches", "core.stream_ms", iterate=True)

    # serving
    def mark_request(state, args):
        # The bench's own requests carry the header; member servers are
        # called by the front door's RemoteEndpoint, which sends none.
        query_id = args[0].headers.get("X-Ledger-Query")
        state.on_path = query_id is not None
        state.query = int(query_id) if query_id is not None else None

    wrap(serving.SparqlRequestHandler, "do_GET", "serving.http_ms",
         before=mark_request)
    wrap(serving.QuerySessionManager, "execute", "serving.session_ms")
    wrap(protocol, "iter_results_chunks", "serving.encode_ms", iterate=True)
