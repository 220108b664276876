"""Property test: the SPARQL evaluator against the oracles in
``tests/reference.py``.

The brute-force reference joins triple patterns by exhaustive
enumeration — no indexes, no join ordering, no shortcuts; the seed
joiner is the recursive per-binding evaluator the planned pipeline
replaced.  Hypothesis generates small random stores and random BGPs
(with repeated variables and constants) and the implementations must
agree exactly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf import IRI, Triple, TriplePattern, Variable
from repro.sparql import Evaluator
from repro.sparql.ast import GroupPattern, MinusPattern, OptionalPattern, Query
from repro.sparql.expressions import ExistsExpr
from repro.store import TripleStore

from .reference import SeedEvaluator, reference_bgp, rows_multiset

_TERMS = [IRI(f"http://x/t{i}") for i in range(4)]
_VARIABLES = [Variable(name) for name in ("a", "b", "c")]

_triples = st.builds(
    Triple,
    st.sampled_from(_TERMS),
    st.sampled_from(_TERMS),
    st.sampled_from(_TERMS),
)
_pattern_terms = st.one_of(st.sampled_from(_TERMS), st.sampled_from(_VARIABLES))
_patterns = st.builds(TriplePattern, _pattern_terms, _pattern_terms, _pattern_terms)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(_triples, max_size=12),
    st.lists(_patterns, min_size=1, max_size=3),
)
def test_evaluator_matches_reference(triples, patterns):
    store = TripleStore(triples)
    query = Query(form="SELECT", where=GroupPattern(elements=list(patterns)))
    header = query.projected_variables()

    evaluated = Evaluator(store).select(query)
    actual = sorted(
        tuple(None if cell is None else cell for cell in row)
        for row in evaluated.rows
    )

    reference = sorted(
        tuple(binding.get(variable) for variable in header)
        for binding in reference_bgp(store, list(patterns))
    )
    assert actual == reference


@settings(max_examples=120, deadline=None)
@given(
    st.lists(_triples, max_size=12),
    st.lists(_patterns, min_size=1, max_size=4),
)
def test_planned_executor_matches_seed_executor(triples, patterns):
    """Differential: the compile-once/batched pipeline vs the seed
    per-binding recursive joiner, on raw BGPs (repeated variables and
    constants included)."""
    store = TripleStore(triples)
    query = Query(form="SELECT", where=GroupPattern(elements=list(patterns)))
    planned = Evaluator(store)
    seed = SeedEvaluator(store)
    assert rows_multiset(planned.select(query)) == rows_multiset(seed.select(query))
    assert seed.stats.plans_built == 0


@st.composite
def _composite_groups(draw):
    """A group mixing a base BGP with OPTIONAL / MINUS / FILTER EXISTS."""
    elements = list(draw(st.lists(_patterns, min_size=1, max_size=2)))
    if draw(st.booleans()):
        elements.append(OptionalPattern(group=GroupPattern(
            elements=list(draw(st.lists(_patterns, min_size=1, max_size=2)))
        )))
    if draw(st.booleans()):
        elements.append(MinusPattern(group=GroupPattern(
            elements=[draw(_patterns)]
        )))
    filters = []
    if draw(st.booleans()):
        filters.append(ExistsExpr(
            group=GroupPattern(elements=[draw(_patterns)]),
            negated=draw(st.booleans()),
        ))
    return GroupPattern(elements=elements, filters=filters)


@settings(max_examples=120, deadline=None)
@given(st.lists(_triples, max_size=12), _composite_groups())
def test_planned_executor_matches_seed_on_composite_groups(triples, group):
    """Differential proof over OPTIONAL, MINUS, and FILTER [NOT] EXISTS:
    the planner must not change semantics anywhere the BGP pipeline is
    reached (top level, OPTIONAL bodies, EXISTS subgroups)."""
    store = TripleStore(triples)
    query = Query(form="SELECT", where=group)
    planned = Evaluator(store)
    seed = SeedEvaluator(store)
    assert rows_multiset(planned.select(query)) == rows_multiset(seed.select(query))
    assert seed.stats.plans_built == 0


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_triples, max_size=12),
    st.lists(_patterns, min_size=1, max_size=2),
)
def test_ask_agrees_with_select(triples, patterns):
    store = TripleStore(triples)
    query = Query(form="SELECT", where=GroupPattern(elements=list(patterns)))
    ask = Query(form="ASK", where=GroupPattern(elements=list(patterns)))
    evaluator = Evaluator(store)
    assert evaluator.ask(ask) == bool(len(evaluator.select(query)))
