"""Unit and property tests for the triple store."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf import IRI, Literal, Triple, TriplePattern, Variable
from repro.store import AuthoritySummary, TripleStore, VoidDescription

EX = "http://ex/"


def iri(name):
    return IRI(EX + name)


@pytest.fixture
def store():
    s = TripleStore()
    s.add(Triple(iri("kim"), iri("advisor"), iri("tim")))
    s.add(Triple(iri("kim"), iri("takesCourse"), iri("c1")))
    s.add(Triple(iri("tim"), iri("teacherOf"), iri("c1")))
    s.add(Triple(iri("tim"), iri("name"), Literal("Tim")))
    s.add(Triple(iri("lee"), iri("advisor"), iri("ben")))
    return s


class TestMutation:
    def test_add_and_contains(self, store):
        assert Triple(iri("kim"), iri("advisor"), iri("tim")) in store
        assert Triple(iri("kim"), iri("advisor"), iri("ben")) not in store

    def test_duplicate_add_is_noop(self, store):
        before = len(store)
        assert not store.add(Triple(iri("kim"), iri("advisor"), iri("tim")))
        assert len(store) == before

    def test_remove(self, store):
        triple = Triple(iri("kim"), iri("advisor"), iri("tim"))
        assert store.remove(triple)
        assert triple not in store
        assert not store.remove(triple)
        assert store.predicate_count(iri("advisor")) == 1

    def test_add_all_returns_inserted_count(self):
        s = TripleStore()
        t = Triple(iri("a"), iri("p"), iri("b"))
        assert s.add_all([t, t, Triple(iri("a"), iri("p"), iri("c"))]) == 2


class TestMatch:
    def test_fully_unbound(self, store):
        assert len(list(store.match(
            TriplePattern(Variable("s"), Variable("p"), Variable("o"))
        ))) == len(store)

    def test_predicate_bound(self, store):
        matches = list(store.match(
            TriplePattern(Variable("s"), iri("advisor"), Variable("o"))
        ))
        assert len(matches) == 2

    def test_subject_bound(self, store):
        matches = list(store.match(
            TriplePattern(iri("kim"), Variable("p"), Variable("o"))
        ))
        assert len(matches) == 2

    def test_object_bound(self, store):
        matches = list(store.match(
            TriplePattern(Variable("s"), Variable("p"), iri("c1"))
        ))
        assert len(matches) == 2

    def test_subject_object_bound(self, store):
        matches = list(store.match(
            TriplePattern(iri("kim"), Variable("p"), iri("c1"))
        ))
        assert [t.predicate for t in matches] == [iri("takesCourse")]

    def test_fully_ground(self, store):
        pattern = TriplePattern(iri("kim"), iri("advisor"), iri("tim"))
        assert len(list(store.match(pattern))) == 1

    def test_repeated_variable(self):
        s = TripleStore()
        s.add(Triple(iri("a"), iri("p"), iri("a")))
        s.add(Triple(iri("a"), iri("p"), iri("b")))
        pattern = TriplePattern(Variable("x"), iri("p"), Variable("x"))
        assert len(list(s.match(pattern))) == 1

    def test_no_match(self, store):
        pattern = TriplePattern(iri("ghost"), Variable("p"), Variable("o"))
        assert list(store.match(pattern)) == []


class TestCount:
    def test_count_matches_match(self, store):
        shapes = [
            TriplePattern(Variable("s"), Variable("p"), Variable("o")),
            TriplePattern(Variable("s"), iri("advisor"), Variable("o")),
            TriplePattern(iri("kim"), Variable("p"), Variable("o")),
            TriplePattern(Variable("s"), Variable("p"), iri("c1")),
            TriplePattern(iri("kim"), iri("advisor"), Variable("o")),
            TriplePattern(Variable("s"), iri("advisor"), iri("tim")),
            TriplePattern(iri("kim"), Variable("p"), iri("c1")),
            TriplePattern(iri("kim"), iri("advisor"), iri("tim")),
        ]
        for pattern in shapes:
            assert store.count(pattern) == len(list(store.match(pattern)))

    def test_count_repeated_variable(self):
        s = TripleStore()
        s.add(Triple(iri("a"), iri("p"), iri("a")))
        s.add(Triple(iri("a"), iri("p"), iri("b")))
        assert s.count(TriplePattern(Variable("x"), iri("p"), Variable("x"))) == 1


class TestStats:
    def test_predicate_counts(self, store):
        assert store.predicate_count(iri("advisor")) == 2
        assert store.predicate_count(iri("missing")) == 0
        assert store.predicates() == {
            iri("advisor"), iri("takesCourse"), iri("teacherOf"), iri("name")
        }

    def test_distinct_subjects_objects(self, store):
        assert store.distinct_subject_count(iri("advisor")) == 2
        assert store.distinct_object_count(iri("advisor")) == 2
        assert store.subjects(iri("advisor")) == {iri("kim"), iri("lee")}
        assert store.objects(iri("advisor")) == {iri("tim"), iri("ben")}


class TestSummaries:
    def test_void_description(self, store):
        void = VoidDescription.from_store(store)
        assert void.total_triples == len(store)
        assert void.predicate_stats[iri("advisor")].triples == 2
        assert void.predicate_stats[iri("advisor")].distinct_subjects == 2

    def test_void_classes(self):
        s = TripleStore()
        rdf_type = IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
        s.add(Triple(iri("kim"), rdf_type, iri("Student")))
        s.add(Triple(iri("lee"), rdf_type, iri("Student")))
        void = VoidDescription.from_store(s)
        assert void.classes[iri("Student")] == 2

    def test_authority_summary(self, store):
        summary = AuthoritySummary.from_store(store)
        assert summary.subject_authorities[iri("advisor")] == {"http://ex"}
        # literal objects contribute no authorities
        assert summary.object_authorities[iri("name")] == frozenset()


# ----------------------------------------------------------------------
# Property-based invariants
# ----------------------------------------------------------------------

_terms = st.builds(lambda n: IRI(EX + n), st.text(alphabet="abc", min_size=1, max_size=3))
_triples = st.builds(Triple, _terms, _terms, _terms)


@settings(max_examples=100, deadline=None)
@given(st.lists(_triples, max_size=30))
def test_store_is_a_set(triples):
    store = TripleStore(triples)
    assert len(store) == len(set(triples))
    assert set(store.triples()) == set(triples)


@settings(max_examples=100, deadline=None)
@given(st.lists(_triples, min_size=1, max_size=30), st.data())
def test_remove_inverts_add(triples, data):
    store = TripleStore(triples)
    victim = data.draw(st.sampled_from(triples))
    store.remove(victim)
    assert victim not in store
    assert len(store) == len(set(triples)) - 1
    total = sum(store.predicate_count(p) for p in store.predicates())
    assert total == len(store)


@settings(max_examples=60, deadline=None)
@given(st.lists(_triples, max_size=30), _terms, _terms)
def test_count_agrees_with_match(triples, subject, predicate):
    store = TripleStore(triples)
    patterns = [
        TriplePattern(subject, Variable("p"), Variable("o")),
        TriplePattern(Variable("s"), predicate, Variable("o")),
        TriplePattern(subject, predicate, Variable("o")),
        TriplePattern(Variable("s"), predicate, subject),
    ]
    for pattern in patterns:
        assert store.count(pattern) == len(list(store.match(pattern)))


_pattern_terms = st.one_of(
    st.sampled_from([iri("a"), iri("b"), iri("never")]),
    st.sampled_from([Variable("x"), Variable("y"), Variable("z")]),
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.builds(Triple, *[st.sampled_from([iri("a"), iri("b"), iri("c")])] * 3), max_size=20),
    st.builds(TriplePattern, _pattern_terms, _pattern_terms, _pattern_terms),
)
def test_count_agrees_with_match_on_every_shape(triples, pattern):
    """Every shape: repeated variables (``?x p ?x``, ``?x ?x ?x``),
    ground patterns, and constants the store has never seen."""
    store = TripleStore(triples)
    size = len(store.dictionary)
    assert store.count(pattern) == len(list(store.match(pattern)))
    assert len(store.dictionary) == size
