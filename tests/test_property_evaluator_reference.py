"""Property test: the SPARQL evaluator against the oracles in
``tests/reference.py``.

The brute-force reference joins triple patterns by exhaustive
enumeration — no indexes, no join ordering, no shortcuts; the seed
joiner is the recursive per-binding evaluator the planned pipeline
replaced.  Hypothesis generates small random stores and random BGPs
(with repeated variables and constants) and the implementations must
agree exactly.

The ``VALUES`` and ``FILTER (NOT) EXISTS`` generators at the bottom pin
the endpoint's batch paths twice over: as a multiset against the seed
joiner, and **row for row in order** against the row-at-a-time
evaluator (``RowAtATimeEvaluator``), which joins VALUES after the
unbound BGP, asks EXISTS once per row and slices LIMIT off the fully
materialised answer.  The dead-variable generator at the end covers the
answers that cannot observe multiplicity (ASK, DISTINCT, ``LIMIT 1``),
where the ID path turns patterns binding only unread variables into
existence tests, and ``COUNT(*)``, where it must not.
"""

from dataclasses import replace

from hypothesis import given
from hypothesis import strategies as st

from repro.rdf import IRI, Triple, TriplePattern, Variable
from repro.sparql import Evaluator
from repro.sparql.ast import (
    Aggregate,
    GroupPattern,
    MinusPattern,
    OptionalPattern,
    Query,
    ValuesBlock,
)
from repro.sparql.expressions import CompareExpr, ExistsExpr, TermExpr
from repro.store import TripleStore

from .reference import (
    RowAtATimeEvaluator,
    SeedEvaluator,
    examples as _examples,
    reference_bgp,
    rows_multiset,
)


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


@_examples(120)
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


@_examples(120)
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


@_examples(120)
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


@_examples(100)
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


# ----------------------------------------------------------------------
# VALUES and FILTER (NOT) EXISTS: multiset vs the seed joiner, order vs
# the row-at-a-time evaluator
# ----------------------------------------------------------------------

#: a constant no generated store contains (queries must not intern it)
_ABSENT = IRI("http://x/absent")
#: a variable no base BGP mentions
_UNMENTIONED = Variable("d")
#: a variable only OPTIONAL bodies mention (free there whatever the
#: outer solution binds)
_INNER = Variable("e")
_inner_terms = st.one_of(
    st.sampled_from(_TERMS), st.sampled_from(_VARIABLES + [_INNER] * 2)
)
_inner_patterns = st.builds(
    TriplePattern, _inner_terms, _inner_terms, _inner_terms
)


@st.composite
def _values_blocks(draw, pool=_VARIABLES * 3 + [_UNMENTIONED]):
    """1-2 variables (sometimes one the BGP never mentions, sometimes
    the same one twice); half the blocks are all-bound and duplicate-free
    (the shape the pipeline takes as a semi-join), the rest mix in UNDEF
    cells, a term the store has never seen, and repeated rows."""
    variables = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2))
    clean = draw(st.booleans())
    cells = st.sampled_from(
        _TERMS if clean else _TERMS[:2] + [_ABSENT, None]
    )
    rows = draw(st.lists(
        st.tuples(*[cells] * len(variables)), max_size=4, unique=clean
    ))
    return ValuesBlock(variables=variables, rows=rows)


@st.composite
def _values_groups(draw):
    """A BGP with one or two VALUES blocks, before and after an OPTIONAL
    (whose body may carry its own block, over variables the outer
    solution already binds or its own)."""
    others = list(draw(st.lists(_values_blocks(), min_size=1, max_size=2)))
    if draw(st.booleans()):
        inner = list(draw(st.lists(_inner_patterns, min_size=1, max_size=2)))
        if draw(st.booleans()):
            inner.append(draw(_values_blocks([_INNER] * 4 + _VARIABLES)))
        others.append(OptionalPattern(group=GroupPattern(elements=inner)))
    # at most three patterns: every stage's input then fits one default
    # batch (12 -> 144 rows), which is where order is pinned exactly
    elements = list(draw(st.lists(_patterns, min_size=1, max_size=3)))
    elements += draw(st.permutations(others))
    return GroupPattern(elements=draw(st.permutations(elements)))


def _assert_same_rows_same_order(store, query, batch_size=256):
    """(i) multiset-equal to the seed joiner without the slice (its BGP
    order differs, so a LIMIT would cut elsewhere), (ii) row for row
    equal to the row-at-a-time evaluator, slice included."""
    whole = replace(query, limit=None, offset=0)
    seed = SeedEvaluator(store)
    assert rows_multiset(Evaluator(store, batch_size).select(whole)) == (
        rows_multiset(seed.select(whole))
    )
    assert seed.stats.plans_built == 0
    expected = RowAtATimeEvaluator(store, batch_size).select(query)
    actual = Evaluator(store, batch_size).select(query)
    assert actual.variables == expected.variables
    assert actual.rows == expected.rows


@_examples(200)
@given(st.lists(_triples, max_size=12), _values_groups(), st.booleans())
def test_values_blocks_match_row_at_a_time(triples, group, distinct):
    store = TripleStore(triples)
    size = len(store.dictionary)
    query = Query(form="SELECT", where=group, distinct=distinct)
    _assert_same_rows_same_order(store, query)
    # with several chunks per stage the semi-join moves chunk boundaries
    # (the pipeline regroups per chunk), so only the multiset is promised
    assert rows_multiset(Evaluator(store, batch_size=2).select(query)) == (
        rows_multiset(SeedEvaluator(store).select(query))
    )
    assert len(store.dictionary) == size


_exists_terms = st.one_of(
    st.sampled_from(_TERMS + [_ABSENT]),
    st.sampled_from(_VARIABLES + [_UNMENTIONED]),
)
_exists_bodies = st.lists(
    st.builds(TriplePattern, _exists_terms, _exists_terms, _exists_terms),
    min_size=1, max_size=2,
)


@st.composite
def _exists_queries(draw):
    """One or two (NOT) EXISTS filters with 1-2-pattern bodies
    (correlated, uncorrelated, or naming an unknown constant), maybe an
    ordinary filter between them, an OPTIONAL that leaves outer
    variables unbound in some rows, and maybe LIMIT / OFFSET."""
    elements = list(draw(st.lists(_patterns, min_size=1, max_size=2)))
    if draw(st.booleans()):
        elements.append(OptionalPattern(group=GroupPattern(
            elements=[draw(_patterns)]
        )))
    filters = [
        ExistsExpr(
            group=GroupPattern(elements=list(body)),
            negated=draw(st.booleans()),
        )
        for body in draw(st.lists(_exists_bodies, min_size=1, max_size=2))
    ]
    if draw(st.booleans()):
        filters.insert(draw(st.integers(0, len(filters))), CompareExpr(
            "!=",
            TermExpr(draw(st.sampled_from(_VARIABLES))),
            TermExpr(draw(st.sampled_from(_TERMS))),
        ))
    return Query(
        form="SELECT",
        where=GroupPattern(elements=elements, filters=filters),
        limit=draw(st.one_of(st.none(), st.integers(0, 3))),
        offset=draw(st.integers(0, 2)),
    )


@_examples(200)
@given(
    st.lists(_triples, max_size=12),
    _exists_queries(),
    st.sampled_from([1, 2, 256]),
)
def test_exists_filters_match_row_at_a_time(triples, query, batch_size):
    """The EXISTS stage keeps its input order whatever the chunking, so
    order is pinned at every batch size."""
    store = TripleStore(triples)
    size = len(store.dictionary)
    _assert_same_rows_same_order(store, query, batch_size)
    ask = Query(form="ASK", where=query.where)
    assert Evaluator(store, batch_size).ask(ask) == (
        RowAtATimeEvaluator(store, batch_size).ask(ask)
    )
    assert len(store.dictionary) == size


# ----------------------------------------------------------------------
# Dead variables: answers whose multiplicity cannot be observed (ASK,
# DISTINCT, LIMIT 1) and the one whose multiplicity is the answer
# (COUNT(*)), against both oracles
# ----------------------------------------------------------------------

#: variables no generated projection names: dead wherever they occur
_DEAD = [Variable("y"), Variable("z")]
_dead_terms = st.one_of(
    st.sampled_from(_TERMS + [_ABSENT]),
    st.sampled_from(_VARIABLES + _DEAD),
)
_dead_patterns = st.builds(TriplePattern, _dead_terms, _dead_terms, _dead_terms)


@st.composite
def _repeated_dead_patterns(draw):
    """A pattern whose only new variable is dead and repeated (``?z``
    twice beside an outer variable or a constant): an existence test
    that must still compare the two positions."""
    anchor = draw(st.sampled_from(_VARIABLES + _TERMS + [_ABSENT]))
    dead = draw(st.sampled_from(_DEAD))
    return TriplePattern(*draw(st.permutations([anchor, dead, dead])))


#: body terms: outer variables (correlated), ``?d`` and the dead pair
#: (extra, uncorrelated or repeated), constants the store may not know
_body_terms = st.one_of(
    st.sampled_from(_TERMS + [_ABSENT]),
    st.sampled_from(_VARIABLES + [_UNMENTIONED] + _DEAD),
)
_bodies = st.lists(
    st.one_of(
        st.builds(TriplePattern, _body_terms, _body_terms, _body_terms),
        _repeated_dead_patterns(),
    ),
    min_size=1, max_size=2,
)


@st.composite
def _dead_variable_groups(draw):
    """1-3 patterns over projectable and dead variables (maybe one with
    a repeated dead variable), under 0-2 (NOT) EXISTS filters."""
    elements = list(draw(st.lists(_dead_patterns, min_size=1, max_size=3)))
    if draw(st.booleans()):
        elements.insert(
            draw(st.integers(0, len(elements))), draw(_repeated_dead_patterns())
        )
    filters = [
        ExistsExpr(group=GroupPattern(elements=list(body)), negated=draw(st.booleans()))
        for body in draw(st.lists(_bodies, max_size=2))
    ]
    return GroupPattern(elements=elements, filters=filters)


def _answer_rows(evaluator, query):
    return {tuple(row) for row in evaluator.select(query).rows}


@_examples(200)
@given(
    st.lists(_triples, max_size=12),
    _dead_variable_groups(),
    st.lists(st.sampled_from(_VARIABLES), min_size=1, max_size=2, unique=True),
    st.sampled_from([1, 2, 256]),
)
def test_dead_variables_match_both_oracles(triples, group, projected, batch_size):
    store = TripleStore(triples)
    size = len(store.dictionary)
    evaluator = Evaluator(store, batch_size)
    oracles = [SeedEvaluator(store), RowAtATimeEvaluator(store, batch_size)]

    ask = Query(form="ASK", where=group)
    assert {evaluator.ask(ask)} == {oracle.ask(ask) for oracle in oracles}

    count = Query(
        form="SELECT", where=group,
        aggregates=[Aggregate("COUNT", None, Variable("n"))],
    )
    counted = evaluator.select(count).rows
    assert len(counted) == 1
    assert all(oracle.select(count).rows == counted for oracle in oracles)

    plain = Query(form="SELECT", where=group, select_variables=list(projected))
    answers = [_answer_rows(oracle, plain) for oracle in oracles]
    assert answers[0] == answers[1]
    distinct = replace(plain, distinct=True)
    assert _answer_rows(evaluator, distinct) == answers[0]
    assert len(evaluator.select(distinct)) == len(answers[0])

    first = evaluator.select(replace(plain, limit=1)).rows
    assert len(first) == min(1, len(answers[0]))
    assert set(first) <= answers[0]
    assert len(store.dictionary) == size
