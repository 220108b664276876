"""Equivalence guarantees for the pipelined Elastic Request Handler.

There is one scheduler; what it must not change is the answer:

- futures-based scheduling across the analysis and SAPE phases returns
  the union-graph answer (``tests/reference.py``) — the oracle the
  deleted barrier scheduler used to stand in for;
- ``use_threads=True`` (real ThreadPoolExecutor) vs the single-threaded
  simulator — these must agree on *accounting* too, bit for bit;
- randomized adversarial federations (Hypothesis), where values collide
  across endpoints and the independent-wave grouping in SAPE must not
  reorder binding refinement observably.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LusailEngine
from repro.datasets.directory import (
    DIRECTORY_QUERY,
    build_directory_federation,
)
from repro.datasets.lubm import LUBM_QUERIES, LubmGenerator
from repro.endpoint import LOCAL_CLUSTER, LocalEndpoint
from repro.federation import Federation
from repro.rdf import IRI, Triple

from .reference import union_graph_answer

LUBM_QUERY_NAMES = sorted(LUBM_QUERIES)

_GENERATOR = LubmGenerator(universities=2)


def _rows(outcome):
    assert outcome.status == "OK", outcome.error
    return sorted(
        tuple("" if cell is None else cell.n3() for cell in row)
        for row in outcome.result.rows
    )


def _run(engine_kwargs, build_federation, query_text):
    engine = LusailEngine(build_federation(), **engine_kwargs)
    outcome = engine.execute(query_text)
    return _rows(outcome), outcome.metrics


def _lubm_federation():
    return _GENERATOR.build_federation(network=LOCAL_CLUSTER)


class TestThreadedEquivalence:
    """use_threads=True must be bit-identical to the simulator."""

    @pytest.mark.parametrize("name", LUBM_QUERY_NAMES)
    def test_lubm_threaded_matches_simulated(self, name):
        query = LUBM_QUERIES[name]
        sim_rows, sim = _run(
            {"use_threads": False}, _lubm_federation, query
        )
        thr_rows, thr = _run(
            {"use_threads": True}, _lubm_federation, query
        )
        assert thr_rows == sim_rows
        assert thr.requests == sim.requests
        assert thr.virtual_seconds == pytest.approx(sim.virtual_seconds)
        assert thr.inflight_high_water == sim.inflight_high_water
        assert thr.scheduler_waves == sim.scheduler_waves

    def test_directory_threaded_matches_simulated(self):
        kwargs = {"values_block_size": 2, "delay_threshold": "mu",
                  "pool_size": 32}
        build = lambda: build_directory_federation(universities=8)
        sim_rows, sim = _run(
            dict(kwargs, use_threads=False), build, DIRECTORY_QUERY
        )
        thr_rows, thr = _run(
            dict(kwargs, use_threads=True), build, DIRECTORY_QUERY
        )
        assert thr_rows == sim_rows
        assert thr.requests == sim.requests
        assert thr.virtual_seconds == pytest.approx(sim.virtual_seconds)


def _union_graph_rows(federation, query_text):
    answer = union_graph_answer(
        (
            federation.endpoint(endpoint_id).store.triples()
            for endpoint_id in federation.endpoint_ids
        ),
        query_text,
    )
    return sorted(
        tuple("" if cell is None else cell.n3() for cell in row)
        for row in answer
    )


class TestSchedulerAgainstTheOracle:
    """The pipelined scheduler returns the union-graph answer."""

    @pytest.mark.parametrize("name", LUBM_QUERY_NAMES)
    def test_lubm_matches_union_graph(self, name):
        query = LUBM_QUERIES[name]
        rows, _ = _run({}, _lubm_federation, query)
        assert rows == _union_graph_rows(_lubm_federation(), query)

    def test_directory_matches_union_graph_and_overlaps(self):
        kwargs = {"values_block_size": 2, "delay_threshold": "mu",
                  "pool_size": 32}
        build = lambda: build_directory_federation(universities=8)
        outcome = LusailEngine(build(), **kwargs).execute(DIRECTORY_QUERY)
        assert _rows(outcome) == _union_graph_rows(build(), DIRECTORY_QUERY)
        # Both registry subqueries stay delayed.  They bind different
        # variables on disjoint registries, so they share one submission
        # wave: their 2 x 4 VALUES blocks x 2 shards are in flight at
        # once, on top of the probes still draining (per-block barriers
        # reached 16 in flight, over 18+ waves).
        assert sum(1 for sq in outcome.decomposition if sq.delayed) >= 2
        assert outcome.metrics.inflight_high_water >= 24
        assert outcome.metrics.scheduler_waves <= 7


# ----------------------------------------------------------------------
# Hypothesis: randomized federations vs the union graph
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
    st.lists(_triples, min_size=1, max_size=12), min_size=2, max_size=3
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


def _star_query(predicates) -> str:
    patterns = []
    for index, predicate in enumerate(predicates):
        patterns.append(f"?hub {predicate.n3()} ?v{index} .")
    variables = "?hub " + " ".join(f"?v{i}" for i in range(len(predicates)))
    return f"SELECT {variables} WHERE {{ {' '.join(patterns)} }}"


def _answer(endpoint_data, query_text, **engine_kwargs):
    endpoints = [
        LocalEndpoint.from_triples(f"ep{i}", triples)
        for i, triples in enumerate(endpoint_data)
    ]
    federation = Federation(endpoints, network=LOCAL_CLUSTER)
    engine = LusailEngine(federation, strict_checks=True, **engine_kwargs)
    outcome = engine.execute(query_text)
    assert outcome.status == "OK", outcome.error
    return {tuple(row) for row in outcome.result.rows}


@settings(max_examples=40, deadline=None)
@given(_federation_data, _chain_predicates)
def test_pipelined_matches_union_graph_chain(endpoint_data, predicates):
    query_text = _chain_query(predicates)
    assert _answer(endpoint_data, query_text) == union_graph_answer(
        endpoint_data, query_text
    )


@settings(max_examples=30, deadline=None)
@given(_federation_data, _chain_predicates)
def test_pipelined_matches_union_graph_star(endpoint_data, predicates):
    query_text = _star_query(predicates)
    assert _answer(endpoint_data, query_text) == union_graph_answer(
        endpoint_data, query_text
    )


@settings(max_examples=20, deadline=None)
@given(_federation_data, _chain_predicates, st.sampled_from([1, 2, 4]))
def test_threaded_pipelined_matches_simulated_chain(
    endpoint_data, predicates, pool_size
):
    query_text = _chain_query(predicates)
    simulated = _answer(
        endpoint_data, query_text, use_threads=False, pool_size=pool_size
    )
    threaded = _answer(
        endpoint_data, query_text, use_threads=True, pool_size=pool_size
    )
    assert threaded == simulated
