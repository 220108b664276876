"""Streaming adaptive execution: pipelined joins, partial dispatch,
time-to-first-result, and the materialized fallback.

The invariants under test:

- the streaming executor returns exactly the materialized answer on the
  paper's running example and on the delayed-subquery directory
  workload — differentially, under Hypothesis-chosen engine knobs;
- non-streamable query shapes (ORDER BY, aggregates, ...) fall back to
  the materialized path through the same API, parsed once, reporting
  ``streamed=False`` with ``ttfb == makespan``;
- a streamed query's endpoint health reaches ``engine.endpoint_stats()``
  like a materialized one's (both run the same epilogue);
- time-to-first-result beats the makespan on the delayed-subquery
  workload, with incremental VALUES dispatch observable in the metrics;
- under injected transient faults the streamed answer still matches
  the materialized one; under outages with ``partial_results=True`` and
  under deadlines, the streamed answer is a subset of the fault-free
  full answer (partial ⊆ full);
- :class:`SymmetricHashJoin` emits exactly ``hash_join``'s rows under
  any batch interleaving, and ``preload_left`` carries rows without
  probing;
- the runtime monitor's replanning reorders only the unstarted suffix
  of the join chain, carries the accumulated left input, counts
  ``Metrics.replans``, and renders a ``replan`` trace line;
- ``ElasticRequestHandler.submit(at=...)`` backdates (and clamps) the
  submission instant on the virtual timeline;
- threaded and simulated handler modes stream identical batches and
  identical clocks.
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
from repro.core.joins import SymmetricHashJoin, hash_join
from repro.core.streaming import (
    REPLAN_DIVERGENCE,
    _RelationState,
    _StreamingRun,
    is_streamable,
)
from repro.core.trace import QueryTrace, render_trace
from repro.datasets.directory import (
    DIRECTORY_QUERY,
    build_directory_federation,
)
from repro.endpoint import (
    FaultProfile,
    LOCAL_CLUSTER,
    LocalEndpoint,
    OutageWindow,
)
from repro.federation import Federation
from repro.federation.request_handler import ElasticRequestHandler, Request
from repro.rdf import IRI, Variable
from repro.rdf import parse as nt_parse
from repro.sparql.results import ResultSet

#: the directory workload with its registries shrunk (correctness does
#: not depend on the noise rows)
_SMALL_DIRECTORY = dict(noise_addresses=120, noise_emails=150)

#: engine knobs that make the directory workload exercise incremental
#: VALUES dispatch: small blocks and an aggressive delay threshold
_DIRECTORY_KNOBS = dict(
    pool_size=32, delay_threshold="mu", values_block_size=2
)


def _directory_federation(universities=2, students=2):
    return build_directory_federation(
        universities=universities,
        students_per_university=students,
        **_SMALL_DIRECTORY,
    )


def _stream_rows(engine, query, **kwargs):
    """(handle, final QueryResult) after draining the stream."""
    handle = engine.execute_streaming(query, **kwargs)
    outcome = handle.drain()
    return handle, outcome


# ----------------------------------------------------------------------
# Differential: streaming vs materialized
# ----------------------------------------------------------------------


class TestStreamingMatchesMaterialized:
    def test_paper_query(self):
        materialized = LusailEngine(build_paper_federation()).execute(
            QUERY_QA
        )
        handle, outcome = _stream_rows(
            LusailEngine(build_paper_federation()), QUERY_QA
        )
        assert handle.streamed
        assert outcome.status == "OK"
        assert result_values(outcome.result) == QA_EXPECTED
        assert result_values(outcome.result) == result_values(
            materialized.result
        )

    def test_batches_union_to_the_final_result(self):
        engine = LusailEngine(build_paper_federation())
        handle = engine.execute_streaming(QUERY_QA)
        rows = []
        for batch in handle.batches():
            assert batch.variables == handle.variables
            rows.extend(batch.rows)
        outcome = handle.result
        assert outcome.status == "OK"
        assert rows == list(outcome.result.rows)
        assert len(rows) == len(set(rows)), "batches must not repeat rows"

    def test_directory_workload_streams_early(self):
        # (universities, students each, share of the materialized
        # makespan by which the first result is out).  The larger
        # federation is sized so delayed-block execution, not analysis
        # probes, dominates the makespan — where time to first result
        # matters, and where it must come at least twice as early.
        for universities, students, ttfb_share in (
            (2, 2, 1.0), (8, 4, 0.5),
        ):
            materialized = LusailEngine(
                _directory_federation(universities, students),
                **_DIRECTORY_KNOBS,
            ).execute(DIRECTORY_QUERY)
            assert materialized.status == "OK"
            engine = LusailEngine(
                _directory_federation(universities, students),
                **_DIRECTORY_KNOBS,
            )
            handle, outcome = _stream_rows(engine, DIRECTORY_QUERY)
            assert handle.streamed
            assert outcome.status == "OK"
            assert result_values(outcome.result) == result_values(
                materialized.result
            )
            metrics = outcome.metrics
            makespan = materialized.metrics.virtual_seconds
            assert metrics.batches_routed > 0
            assert metrics.values_dispatches_partial >= 1
            assert 0.0 < metrics.ttfb_seconds < metrics.virtual_seconds
            assert metrics.ttfb_seconds <= ttfb_share * makespan
            # an early first result may not be bought with a longer run
            assert metrics.virtual_seconds <= 1.1 * makespan
            assert handle.ttfb_seconds == metrics.ttfb_seconds

    def test_trace_records_first_result(self):
        engine = LusailEngine(build_paper_federation())
        handle, outcome = _stream_rows(engine, QUERY_QA, trace=True)
        events = outcome.trace.of_kind("stream_first_result")
        assert len(events) == 1
        assert events[0].detail["ttfb_seconds"] == pytest.approx(
            outcome.metrics.ttfb_seconds
        )
        rendered = render_trace(outcome.trace)
        assert "first result batch" in rendered

    @settings(max_examples=8, deadline=None)
    @given(
        universities=st.integers(min_value=1, max_value=3),
        students=st.integers(min_value=1, max_value=2),
        values_block_size=st.integers(min_value=1, max_value=4),
        delay_threshold=st.sampled_from(["mu", "mu+sigma"]),
    )
    def test_differential_under_knobs(
        self, universities, students, values_block_size, delay_threshold
    ):
        knobs = dict(
            pool_size=16,
            delay_threshold=delay_threshold,
            values_block_size=values_block_size,
        )
        materialized = LusailEngine(
            _directory_federation(universities, students), **knobs
        ).execute(DIRECTORY_QUERY)
        handle, outcome = _stream_rows(
            LusailEngine(
                _directory_federation(universities, students), **knobs
            ),
            DIRECTORY_QUERY,
        )
        assert outcome.status == materialized.status == "OK"
        assert result_values(outcome.result) == result_values(
            materialized.result
        )


# ----------------------------------------------------------------------
# The fallback path
# ----------------------------------------------------------------------


class TestFallback:
    def test_order_by_falls_back(self):
        engine = LusailEngine(build_paper_federation())
        query = QUERY_QA.rstrip() + "\nORDER BY ?S"
        handle, outcome = _stream_rows(engine, query)
        assert not handle.streamed
        assert outcome.status == "OK"
        assert result_values(outcome.result) == QA_EXPECTED
        # a materialized run's first result is its last: ttfb == makespan
        assert outcome.metrics.ttfb_seconds == pytest.approx(
            outcome.metrics.virtual_seconds
        )

    def test_fallback_parses_the_query_once(self, monkeypatch):
        """The prologue parses; the materialized executor is handed the
        Query (it used to be handed the text and parse it again)."""
        from repro.core import engine as engine_module

        parsed = []
        real_parse = engine_module.parse_query

        def counting_parse(text):
            parsed.append(text)
            return real_parse(text)

        monkeypatch.setattr(engine_module, "parse_query", counting_parse)
        query = QUERY_QA.rstrip() + "\nORDER BY ?S"
        handle, outcome = _stream_rows(
            LusailEngine(build_paper_federation()), query
        )
        assert not handle.streamed and outcome.status == "OK"
        assert parsed == [query]

    def test_is_streamable_rejects_modifiers(self):
        from repro.sparql.parser import parse_query

        assert is_streamable(parse_query(QUERY_QA))
        for suffix in ("ORDER BY ?S", "LIMIT 2", "OFFSET 1"):
            text = QUERY_QA.rstrip() + "\n" + suffix
            assert not is_streamable(parse_query(text)), suffix
        ask = 'ASK { ?s ?p ?o . }'
        assert not is_streamable(parse_query(ask))


# ----------------------------------------------------------------------
# Faults and deadlines: partial ⊆ full
# ----------------------------------------------------------------------


def _faulty_paper_federation(ep1_profile=None, ep2_profile=None):
    return Federation(
        [
            LocalEndpoint.from_triples(
                "ep1", nt_parse(EP1_TRIPLES), faults=ep1_profile
            ),
            LocalEndpoint.from_triples(
                "ep2", nt_parse(EP2_TRIPLES), faults=ep2_profile
            ),
        ],
        network=LOCAL_CLUSTER,
    )


class TestFaultsAndDeadlines:
    @settings(max_examples=6, deadline=None)
    @given(
        rate=st.sampled_from([0.2, 0.4]),
        seed=st.integers(min_value=1, max_value=50),
    )
    def test_transient_faults_do_not_change_the_answer(self, rate, seed):
        # Differential under injected faults: some seeds exhaust even 6
        # retries — then BOTH paths must fail the same way; when the
        # retries absorb the faults, both must produce the full answer.
        profile = FaultProfile(failure_rate=rate, seed=seed)
        materialized = LusailEngine(
            _faulty_paper_federation(ep2_profile=profile), max_retries=6
        ).execute(QUERY_QA)
        handle, outcome = _stream_rows(
            LusailEngine(
                _faulty_paper_federation(ep2_profile=profile), max_retries=6
            ),
            QUERY_QA,
        )
        assert handle.streamed
        assert outcome.status == materialized.status
        if outcome.status == "OK":
            assert result_values(outcome.result) == QA_EXPECTED
        else:
            assert handle.truncated
            assert outcome.error == materialized.error

    def test_latency_spikes_do_not_change_the_answer(self):
        profile = FaultProfile(
            latency_spike_rate=1.0, latency_spike_seconds=0.5
        )
        handle, outcome = _stream_rows(
            LusailEngine(_faulty_paper_federation(ep1_profile=profile)),
            QUERY_QA,
        )
        assert outcome.status == "OK"
        assert result_values(outcome.result) == QA_EXPECTED

    def test_outage_with_partial_results_is_a_subset(self):
        profile = FaultProfile(
            outage_windows=(OutageWindow(start=0, end=10_000),)
        )
        engine = LusailEngine(
            _faulty_paper_federation(ep2_profile=profile),
            partial_results=True,
            max_retries=1,
            breaker=False,
        )
        handle, outcome = _stream_rows(engine, QUERY_QA)
        assert outcome.status == "PARTIAL"
        assert result_values(outcome.result) <= QA_EXPECTED
        assert not outcome.completeness.complete

    @settings(max_examples=6, deadline=None)
    @given(deadline=st.sampled_from([0.05, 0.2, 0.5, 1.0, 3.0]))
    def test_deadline_yields_a_subset(self, deadline):
        full = LusailEngine(
            _directory_federation(), **_DIRECTORY_KNOBS
        ).execute(DIRECTORY_QUERY)
        assert full.status == "OK"
        engine = LusailEngine(_directory_federation(), **_DIRECTORY_KNOBS)
        handle, outcome = _stream_rows(
            engine, DIRECTORY_QUERY, deadline_seconds=deadline
        )
        assert outcome.status in ("OK", "PARTIAL")
        assert outcome.result is not None
        assert result_values(outcome.result) <= result_values(full.result)
        if outcome.status == "OK":
            assert result_values(outcome.result) == result_values(
                full.result
            )

    def test_streamed_breaker_trip_reaches_endpoint_stats(self):
        """``/stats`` reads ``engine.endpoint_stats()``; a streamed query
        that trips a breaker must show up there exactly like a
        materialized one (the streaming epilogue used to skip the
        health rollup, leaving it empty)."""
        down = FaultProfile(outage_windows=(OutageWindow(0, 10_000),))
        rollups = {}
        for mode in ("execute", "execute_streaming"):
            engine = LusailEngine(
                _faulty_paper_federation(ep2_profile=down),
                partial_results=True,
            )
            if mode == "execute":
                outcome = engine.execute(QUERY_QA)
            else:
                outcome = engine.execute_streaming(QUERY_QA).drain()
            assert outcome.status == "PARTIAL"
            rollups[mode] = engine.endpoint_stats()
        assert rollups["execute"]["ep2"]["breaker_state"] == "open"
        assert rollups["execute"]["ep2"]["failed_attempts"] > 0
        assert rollups["execute_streaming"] == rollups["execute"]

    def test_closing_the_stream_early_is_partial(self):
        engine = LusailEngine(_directory_federation(), **_DIRECTORY_KNOBS)
        handle = engine.execute_streaming(DIRECTORY_QUERY)
        batches = handle.batches()
        first = next(batches)
        assert len(first.rows) > 0
        handle.close()
        assert handle.truncated
        assert handle.result.status == "PARTIAL"
        assert set(handle.result.result.rows) >= set(first.rows)


# ----------------------------------------------------------------------
# The symmetric hash join operator
# ----------------------------------------------------------------------

_X, _Y, _Z = Variable("x"), Variable("y"), Variable("z")


def _iri_rows(pairs):
    return [tuple(IRI(f"http://x/{part}") for part in row) for row in pairs]


@st.composite
def _join_inputs(draw):
    keys = st.integers(min_value=0, max_value=5)
    left = draw(
        st.lists(st.tuples(keys, keys), min_size=0, max_size=12)
    )
    right = draw(
        st.lists(st.tuples(keys, keys), min_size=0, max_size=12)
    )
    # batch split points plus which side delivers each batch first
    order = draw(st.lists(st.booleans(), min_size=4, max_size=4))
    return left, right, order


class TestSymmetricHashJoin:
    @settings(max_examples=60, deadline=None)
    @given(_join_inputs())
    def test_any_interleaving_equals_hash_join(self, inputs):
        from collections import Counter

        left_pairs, right_pairs, order = inputs
        left = ResultSet(
            (_X, _Y), _iri_rows([(f"k{a}", f"l{b}") for a, b in left_pairs])
        )
        right = ResultSet(
            (_Y, _Z), _iri_rows([(f"l{a}", f"r{b}") for a, b in right_pairs])
        )
        want = Counter(hash_join(left, right).rows)

        join = SymmetricHashJoin((_X, _Y), (_Y, _Z))
        got = []
        half_l, half_r = len(left.rows) // 2, len(right.rows) // 2
        batches = [
            ("L", left.rows[:half_l]),
            ("R", right.rows[:half_r]),
            ("L", left.rows[half_l:]),
            ("R", right.rows[half_r:]),
        ]
        # Hypothesis-chosen interleaving: flip adjacent deliveries
        for index, flip in enumerate(order[: len(batches) - 1]):
            if flip:
                batches[index], batches[index + 1] = (
                    batches[index + 1], batches[index],
                )
        for side, rows in batches:
            if side == "L":
                got.extend(join.push_left(rows))
            else:
                got.extend(join.push_right(rows))
        # multiset equality: duplicate input rows join to duplicate
        # outputs on both operators, never to extra or missing ones
        assert Counter(got) == want
        assert join.held_rows == len(left.rows) + len(right.rows)

    def test_preload_left_does_not_probe(self):
        join = SymmetricHashJoin((_X, _Y), (_Y, _Z))
        join.preload_left(_iri_rows([("a", "k"), ("b", "k")]))
        assert len(join.left_rows) == 2
        out = join.push_right(_iri_rows([("k", "c")]))
        assert len(out) == 2

    def test_preload_requires_empty_right(self):
        join = SymmetricHashJoin((_X, _Y), (_Y, _Z))
        join.push_right(_iri_rows([("k", "c")]))
        with pytest.raises(Exception):
            join.preload_left(_iri_rows([("a", "k")]))


# ----------------------------------------------------------------------
# The runtime monitor: replanning the unstarted suffix
# ----------------------------------------------------------------------


def _synthetic_run(context):
    """A mid-flight four-relation chain A >< B >< C >< D where A just
    finished wildly over estimate and C, D have not routed anything."""
    a, b, c, d = Variable("a"), Variable("b"), Variable("c"), Variable("d")
    headers = {
        "A": (a, b), "B": (b, c), "C": (c, Variable("e")),
        "D": (c, Variable("f")),
    }
    run = object.__new__(_StreamingRun)
    run.context = context
    run.metrics = context.metrics
    run.order = ["A", "B", "C", "D"]
    run.positions = {name: i for i, name in enumerate(run.order)}
    run.by_name = {}
    for name, header in headers.items():
        state = _RelationState(name, header)
        run.by_name[name] = state
    run.by_name["A"].planned_size = 10
    run.by_name["A"].observed = int(10 * REPLAN_DIVERGENCE)
    run.by_name["A"].eos_done = True
    run.by_name["A"].routed_rows = 40
    run.by_name["B"].planned_size = 20
    run.by_name["B"].routed_rows = 12
    run.by_name["C"].planned_size = 50
    run.by_name["D"].planned_size = 5
    stage0 = SymmetricHashJoin(headers["A"], headers["B"], context)
    stage1 = SymmetricHashJoin(stage0.header, headers["C"], context)
    stage2 = SymmetricHashJoin(stage1.header, headers["D"], context)
    run.stages = [stage0, stage1, stage2]
    return run


class TestReplanning:
    def test_reorders_suffix_and_carries_left_input(self):
        federation = build_paper_federation()
        context = federation.make_context()
        context.trace = QueryTrace()
        run = _synthetic_run(context)
        carried = _iri_rows([("p", "q", "r")])
        run.stages[1].preload_left(carried)

        run._maybe_replan(run.by_name["A"])

        assert run.order == ["A", "B", "D", "C"]
        assert run.positions["D"] == 2
        assert context.metrics.replans == 1
        # rebuilt stage 1 now joins (A><B) with D and carries the left
        assert len(run.stages[1].left_rows) == 1
        assert Variable("f") in run.stages[1].header
        assert Variable("e") in run.stages[2].header
        events = context.trace.of_kind("replan")
        assert len(events) == 1
        assert events[0].detail["old_suffix"] == ["C", "D"]
        assert events[0].detail["new_suffix"] == ["D", "C"]
        rendered = render_trace(context.trace)
        assert "C >< D -> D >< C" in rendered

    def test_no_replan_below_divergence(self):
        federation = build_paper_federation()
        context = federation.make_context()
        run = _synthetic_run(context)
        run.by_name["A"].observed = int(
            10 * REPLAN_DIVERGENCE
        ) - 1  # just under the 4x trigger
        run._maybe_replan(run.by_name["A"])
        assert run.order == ["A", "B", "C", "D"]
        assert context.metrics.replans == 0

    def test_no_replan_once_suffix_has_routed(self):
        federation = build_paper_federation()
        context = federation.make_context()
        run = _synthetic_run(context)
        run.by_name["C"].routed_rows = 1
        run.by_name["D"].routed_rows = 1
        run._maybe_replan(run.by_name["A"])
        assert run.order == ["A", "B", "C", "D"]
        assert context.metrics.replans == 0

    def test_no_replan_when_already_best_ordered(self):
        federation = build_paper_federation()
        context = federation.make_context()
        run = _synthetic_run(context)
        run.by_name["C"].planned_size = 5
        run.by_name["D"].planned_size = 50
        run._maybe_replan(run.by_name["A"])
        assert run.order == ["A", "B", "C", "D"]
        assert context.metrics.replans == 0


# ----------------------------------------------------------------------
# Backdated submission on the virtual timeline
# ----------------------------------------------------------------------

_ASK = (
    'ASK { <http://mit.edu/Lee> '
    '<http://swat.cse.lehigh.edu/onto/univ-bench.owl#advisor> ?o . }'
)


class TestBackdatedSubmit:
    def _handler(self):
        federation = build_paper_federation()
        context = federation.make_context()
        return ElasticRequestHandler(federation, context), context

    def test_backdating_starts_the_lane_earlier(self):
        # Two identical runs: advance the clock on ep2, then ask ep1
        # (whose lane is still idle) either live or backdated to t=0.
        finishes = {}
        for backdate in (False, True):
            handler, context = self._handler()
            with handler:
                warm = handler.submit(Request("ep2", _ASK, kind="ASK"))
                handler.settle(warm)
                now = context.metrics.virtual_seconds
                assert now > 0.0
                probe = handler.submit(
                    Request("ep1", _ASK, kind="ASK"),
                    at=0.0 if backdate else None,
                )
                handler.settle(probe)
                finishes[backdate] = probe.finish
        assert finishes[True] < finishes[False]

    def test_backdating_clamps_to_now(self):
        handler, context = self._handler()
        with handler:
            first = handler.submit(Request("ep1", _ASK, kind="ASK"))
            handler.settle(first)
            now = context.metrics.virtual_seconds
            future_dated = handler.submit(
                Request("ep1", _ASK, kind="ASK"), at=now + 1e9
            )
            handler.settle(future_dated)
            assert future_dated.finish <= now + 10.0
            negative = handler.submit(
                Request("ep1", _ASK, kind="ASK"), at=-5.0
            )
            handler.settle(negative)
            assert negative.finish >= 0.0


# ----------------------------------------------------------------------
# Determinism: threaded == simulated
# ----------------------------------------------------------------------


class TestDeterminism:
    def test_threaded_stream_matches_simulated(self):
        runs = {}
        for use_threads in (False, True):
            engine = LusailEngine(
                _directory_federation(),
                use_threads=use_threads,
                **_DIRECTORY_KNOBS,
            )
            handle = engine.execute_streaming(DIRECTORY_QUERY)
            batches = [list(batch.rows) for batch in handle.batches()]
            outcome = handle.result
            assert outcome.status == "OK"
            runs[use_threads] = (
                batches,
                outcome.metrics.virtual_seconds,
                outcome.metrics.ttfb_seconds,
            )
        assert runs[False] == runs[True]
