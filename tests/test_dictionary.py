"""Dictionary-encoding tests: intern-table semantics, the ID-keyed store
and ID-native execution against the oracles in ``tests/reference.py``,
statistics maintenance under interning, the federator's joins (which run
on terms, not IDs), and the rule that query traffic never grows an
endpoint's dictionary."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.joins import hash_join
from repro.endpoint import LOCAL_CLUSTER, LocalEndpoint, Region
from repro.endpoint.metrics import ExecutionContext
from repro.rdf import IRI, Literal, TermDictionary, Triple, TriplePattern, Variable
from repro.sparql import Evaluator, parse_query
from repro.sparql.ast import GroupPattern, Query
from repro.sparql.results import ResultSet
from repro.store import TripleStore

from .reference import SeedEvaluator, reference_bgp, rows_multiset

_TERMS = [IRI(f"http://x/t{i}") for i in range(5)] + [Literal("lit")]
_VARIABLES = [Variable(name) for name in ("a", "b", "c")]

_triples = st.builds(
    Triple,
    st.sampled_from(_TERMS),
    st.sampled_from(_TERMS),
    st.sampled_from(_TERMS),
)
_pattern_terms = st.one_of(st.sampled_from(_TERMS), st.sampled_from(_VARIABLES))
_patterns = st.builds(TriplePattern, _pattern_terms, _pattern_terms, _pattern_terms)


def _iri(name):
    return IRI("http://ex/" + name)


class TestTermDictionary:
    def test_encode_is_idempotent_and_dense(self):
        d = TermDictionary()
        a, b = _iri("a"), _iri("b")
        assert d.encode(a) == 0
        assert d.encode(b) == 1
        assert d.encode(a) == 0
        assert len(d) == 2
        assert d.terms_interned == 2
        assert d.hits == 1  # only the re-encode of a

    def test_decode_roundtrip_insertion_order(self):
        d = TermDictionary()
        terms = [_iri(f"t{i}") for i in range(10)]
        ids = [d.encode(t) for t in terms]
        assert ids == list(range(10))
        assert d.decode_many(ids) == terms
        for t, i in zip(terms, ids):
            assert d.decode(i) == t

    def test_lookup_never_interns(self):
        d = TermDictionary()
        assert d.lookup(_iri("missing")) is None
        assert len(d) == 0
        tid = d.encode(_iri("present"))
        assert d.lookup(_iri("present")) == tid
        assert _iri("present") in d
        assert _iri("missing") not in d

    def test_equal_terms_share_one_id(self):
        d = TermDictionary()
        assert d.encode(IRI("http://x/a")) == d.encode(IRI("http://x/a"))
        assert d.encode(Literal("5")) != d.encode(
            Literal("5", datatype=IRI("http://www.w3.org/2001/XMLSchema#integer"))
        )


class TestStoreAgainstBruteForce:
    """The ID-keyed indexes answer exactly what a scan of the loaded
    triples would — match streams, counts, and statistics."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_triples, max_size=15), _patterns)
    def test_match_terms_is_the_matching_subset(self, triples, pattern):
        store = TripleStore(triples)
        expected = sorted(
            t.as_tuple() for t in set(triples) if pattern.matches(t) is not None
        )
        matched = list(store.match_terms(pattern))
        assert sorted(matched) == expected  # sorted list: no duplicates either
        assert store.count(pattern) == len(expected)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_triples, max_size=15))
    def test_statistics_match_a_scan(self, triples):
        store = TripleStore(triples)
        distinct = set(triples)
        assert len(store) == len(distinct)
        assert set(store.triples()) == distinct
        assert store.predicates() == {t.predicate for t in distinct}
        assert store.subjects() == {t.subject for t in distinct}
        assert store.objects() == {t.object for t in distinct}
        assert store.distinct_subjects_total() == len(store.subjects())
        assert store.distinct_objects_total() == len(store.objects())
        assert store.distinct_predicates_total() == len(store.predicates())
        for p in store.predicates():
            with_p = [t for t in distinct if t.predicate == p]
            assert store.predicate_count(p) == len(with_p)
            assert store.subjects(p) == {t.subject for t in with_p}
            assert store.objects(p) == {t.object for t in with_p}
            assert store.distinct_subject_count(p) == len(store.subjects(p))
            assert store.distinct_object_count(p) == len(store.objects(p))
            for t in with_p:
                assert store.subject_predicate_count(t.subject, p) == sum(
                    1 for u in with_p if u.subject == t.subject
                )
                assert store.predicate_object_count(p, t.object) == sum(
                    1 for u in with_p if u.object == t.object
                )

    def test_ground_query_for_unknown_term_is_empty(self):
        store = TripleStore([Triple(_iri("s"), _iri("p"), _iri("o"))])
        ghost = _iri("never-interned")
        assert list(store.match_terms(TriplePattern(ghost, Variable("p"), Variable("o")))) == []
        assert store.count(TriplePattern(ghost, Variable("p"), Variable("o"))) == 0
        assert store.predicate_count(ghost) == 0
        assert Triple(ghost, ghost, ghost) not in store
        # looking up unknown terms must not grow the intern table
        assert ghost not in store.dictionary


class TestEvaluatorDifferential:
    """The planned ID pipeline returns the seed joiner's rows."""

    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(_triples, max_size=15),
        st.lists(_patterns, min_size=1, max_size=3),
    )
    def test_bgp_select_matches_seed_joiner(self, triples, patterns):
        store = TripleStore(triples)
        query = Query(form="SELECT", where=GroupPattern(elements=list(patterns)))
        planned = Evaluator(store).select(query)
        seed = SeedEvaluator(store).select(query)
        assert planned.variables == seed.variables
        assert rows_multiset(planned) == rows_multiset(seed)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(_triples, min_size=1, max_size=15),
        st.lists(_patterns, min_size=1, max_size=2),
        st.data(),
    )
    def test_one_evaluator_across_add_remove_readd(self, triples, patterns, data):
        """A long-lived evaluator (plan cache warm, constants compiled)
        stays right while the store mutates under it — including a
        constant that is unknown when first planned and added later."""
        store = TripleStore()
        evaluator = Evaluator(store)
        query = Query(form="SELECT", where=GroupPattern(elements=list(patterns)))
        header = query.projected_variables()
        steps = [("add", t) for t in triples] + [
            (op, data.draw(st.sampled_from(triples)))
            for op in data.draw(
                st.lists(st.sampled_from(["remove", "add"]), max_size=8)
            )
        ]
        for op, triple in steps:
            getattr(store, op)(triple)
            expected = sorted(
                tuple(binding.get(v) for v in header)
                for binding in reference_bgp(store, list(patterns))
            )
            assert sorted(map(tuple, evaluator.select(query).rows)) == expected

    def test_general_path_with_filter_uses_id_bgp(self):
        triples = [
            Triple(_iri(f"s{i}"), _iri("p"), Literal(str(i), datatype=None))
            for i in range(6)
        ]
        store = TripleStore(triples)
        query_text = (
            'SELECT ?s ?o WHERE { ?s <http://ex/p> ?o . FILTER(?o != "3") }'
        )
        query = parse_query(query_text)
        planned = Evaluator(store).select(query)
        assert planned.rows == SeedEvaluator(store).select(query).rows
        assert len(planned.rows) == 5


class TestRemoveAndInvalidation:
    def test_remove_keeps_predicate_statistics(self):
        s0, s1, p, o = _iri("s0"), _iri("s1"), _iri("p"), _iri("o")
        store = TripleStore([
            Triple(s0, p, o),
            Triple(s1, p, o),
            Triple(s0, p, _iri("o2")),
        ])
        assert store.predicate_count(p) == 3
        assert store.distinct_subject_count(p) == 2
        assert store.remove(Triple(s0, p, _iri("o2")))
        assert store.predicate_count(p) == 2
        assert store.distinct_subject_count(p) == 2
        assert store.remove(Triple(s0, p, o))
        assert store.predicate_count(p) == 1
        assert store.distinct_subject_count(p) == 1
        assert store.subjects(p) == {s1}
        assert store.remove(Triple(s1, p, o))
        assert store.predicate_count(p) == 0
        assert store.predicates() == set()
        assert len(store) == 0
        # the intern table never evicts: IDs stay stable across removals
        assert p in store.dictionary

    def test_remove_unknown_term_is_noop(self):
        store = TripleStore([Triple(_iri("s"), _iri("p"), _iri("o"))])
        version = store.version
        assert not store.remove(Triple(_iri("ghost"), _iri("p"), _iri("o")))
        assert store.version == version
        assert len(store) == 1

    def test_interning_does_not_bump_version(self):
        store = TripleStore([Triple(_iri("s"), _iri("p"), _iri("o"))])
        version = store.version
        # reads never mutate: no version bump, so no plan invalidation
        list(store.match_terms(
            TriplePattern(Variable("s"), _iri("p"), Variable("o"))
        ))
        store.count(TriplePattern(Variable("s"), _iri("p2"), Variable("o")))
        assert store.version == version

    def test_version_invalidates_cached_plan_after_remove(self):
        s, p, o = _iri("s"), _iri("p"), _iri("o")
        store = TripleStore([Triple(s, p, o), Triple(s, p, _iri("o2"))])
        evaluator = Evaluator(store)
        query = parse_query("SELECT ?o WHERE { <http://ex/s> <http://ex/p> ?o }")
        assert len(evaluator.select(query)) == 2
        built = evaluator.stats.plans_built
        evaluator.select(query)
        assert evaluator.stats.plans_built == built  # cache hit
        assert store.remove(Triple(s, p, _iri("o2")))
        assert len(evaluator.select(query)) == 1
        assert evaluator.stats.plans_built == built + 1  # version miss -> replan

    def test_add_remove_add_roundtrip(self):
        s, p, o = _iri("s"), _iri("p"), _iri("o")
        store = TripleStore()
        assert store.add(Triple(s, p, o))
        assert not store.add(Triple(s, p, o))
        assert store.remove(Triple(s, p, o))
        assert store.add(Triple(s, p, o))
        assert list(store.match_terms(TriplePattern(s, p, Variable("x")))) == [(s, p, o)]


class TestJoinKernel:
    """The federator's joins keep no intern table: a join of any size
    runs on terms, with or without an execution context."""

    def _results(self, n):
        x, y, z = Variable("x"), Variable("y"), Variable("z")
        left = ResultSet((x, y), [(_iri(f"k{i % 7}"), _iri(f"v{i}")) for i in range(n)])
        right = ResultSet(
            (y, z),
            [(_iri(f"v{i}"), _iri(f"w{i}")) for i in range(0, n, 2)]
            + [(None, _iri("wild"))],
        )
        return left, right

    def test_small_joins_skip_the_kernel(self):
        left, right = self._results(4)
        context = ExecutionContext(LOCAL_CLUSTER, Region("local"))
        result = hash_join(left, right, context)
        # 2 keyed matches + 4 matches against the wildcard (None) row
        assert len(result) == 6

    def test_context_free_join_matches(self):
        left, right = self._results(96)
        context = ExecutionContext(LOCAL_CLUSTER, Region("local"))
        assert hash_join(left, right).rows == hash_join(left, right, context).rows


_GHOST = "http://elsewhere/never-loaded"

#: every way a request can mention a term the endpoint does not hold:
#: constants in each position, a VALUES block, correlated (NOT) EXISTS
#: and OPTIONAL fed by foreign outer bindings, and a pass-through value
_FOREIGN_TERM_QUERIES = [
    f"ASK {{ <{_GHOST}/s> <http://ex/p> ?o }}",
    f"ASK {{ ?s <{_GHOST}/p> ?o }}",
    f"SELECT ?s WHERE {{ ?s <http://ex/p> <{_GHOST}/o> }}",
    f"SELECT ?s ?o WHERE {{ ?s <http://ex/p> ?o . ?o <{_GHOST}/q> ?z }}",
    f"SELECT ?s ?o WHERE {{ VALUES ?s {{ <{_GHOST}/a> <http://ex/s1> }} ?s <http://ex/p> ?o }}",
    f"SELECT ?x WHERE {{ VALUES ?x {{ <{_GHOST}/a> <{_GHOST}/b> }} "
    f"FILTER NOT EXISTS {{ ?x <http://ex/p> ?o }} }}",
    f"SELECT ?x WHERE {{ VALUES ?x {{ <{_GHOST}/a> <http://ex/s2> }} "
    f"FILTER EXISTS {{ ?x <http://ex/p> ?o }} }}",
    f"SELECT ?x ?o WHERE {{ VALUES ?x {{ <{_GHOST}/a> <http://ex/s3> }} "
    f"OPTIONAL {{ ?x <http://ex/p> ?o }} }}",
    f"SELECT ?x ?s WHERE {{ VALUES ?x {{ <{_GHOST}/a> }} "
    f"OPTIONAL {{ ?s <http://ex/p> <http://ex/o1> }} }}",
    f'SELECT ?s ?tag WHERE {{ ?s <http://ex/p> ?o . BIND("{_GHOST}" AS ?tag) '
    f"FILTER NOT EXISTS {{ ?s <{_GHOST}/q> ?tag }} }}",
]


class TestQueriesNeverIntern:
    """An endpoint is *asked about* far more terms than it holds — every
    ASK, Figure-5 check query and VALUES block of a federation names
    other members' IRIs.  None of that may grow its dictionary."""

    @pytest.fixture
    def triples(self):
        return [Triple(_iri(f"s{i}"), _iri("p"), _iri(f"o{i}")) for i in range(8)]

    @pytest.mark.parametrize("text", _FOREIGN_TERM_QUERIES)
    def test_dictionary_unchanged_and_answer_right(self, triples, text):
        store = TripleStore(triples)
        size = len(store.dictionary)
        query = parse_query(text)
        evaluator = Evaluator(store)
        for _ in range(2):  # second pass runs on the cached plans
            answer = evaluator.evaluate(query)
            assert len(store.dictionary) == size
        oracle = SeedEvaluator(TripleStore(triples)).evaluate(query)
        if query.form == "ASK":
            assert answer == oracle
        else:
            assert rows_multiset(answer) == rows_multiset(oracle)

    def test_a_thousand_foreign_subjects(self, triples):
        endpoint = LocalEndpoint.from_triples("e0", triples)
        size = len(endpoint.store.dictionary)
        for i in range(1000):
            response = endpoint.execute(
                f"SELECT ?o WHERE {{ <{_GHOST}/{i}> <http://ex/p> ?o }}"
            )
            assert len(response.value) == 0
        assert len(endpoint.store.dictionary) == size

    def test_constant_unknown_at_plan_time_is_found_once_loaded(self, triples):
        store = TripleStore(triples)
        evaluator = Evaluator(store)
        query = parse_query(f"SELECT ?o WHERE {{ <{_GHOST}/s> <http://ex/p> ?o }}")
        assert len(evaluator.select(query)) == 0
        store.add(Triple(IRI(f"{_GHOST}/s"), _iri("p"), _iri("o0")))
        assert evaluator.select(query).rows == [(_iri("o0"),)]
