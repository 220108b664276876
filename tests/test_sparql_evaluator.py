"""Tests for SPARQL evaluation over the triple store."""

import pytest

from repro.rdf import IRI, Literal, Triple, parse as nt_parse
from repro.rdf.dictionary import TermDictionary
from repro.sparql import Evaluator, parse_query
from repro.store import TripleStore

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

DATA = """
<http://u/kim> <http://ub/advisor> <http://u/tim> .
<http://u/kim> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ub/GradStudent> .
<http://u/lee> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ub/GradStudent> .
<http://u/lee> <http://ub/advisor> <http://u/ben> .
<http://u/tim> <http://ub/teacherOf> <http://u/c1> .
<http://u/ben> <http://ub/teacherOf> <http://u/c2> .
<http://u/kim> <http://ub/takesCourse> <http://u/c1> .
<http://u/lee> <http://ub/takesCourse> <http://u/c3> .
<http://u/tim> <http://ub/age> "45"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://u/ben> <http://ub/age> "38"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://u/tim> <http://ub/name> "Tim Smith" .
<http://u/ben> <http://ub/name> "Ben Jones" .
<http://u/kim> <http://ub/email> "kim@u.edu" .
"""


@pytest.fixture(scope="module")
def evaluator():
    return Evaluator(TripleStore(nt_parse(DATA)))


def rows(evaluator, text):
    return evaluator.select(parse_query(text)).rows


class TestBGP:
    def test_single_pattern(self, evaluator):
        result = rows(evaluator, "SELECT ?s WHERE { ?s <http://ub/advisor> ?p }")
        assert {r[0].value for r in result} == {"http://u/kim", "http://u/lee"}

    def test_join_two_patterns(self, evaluator):
        result = rows(
            evaluator,
            "SELECT ?s ?c WHERE { ?s <http://ub/advisor> ?p . "
            "?p <http://ub/teacherOf> ?c }",
        )
        assert len(result) == 2

    def test_triangle_join(self, evaluator):
        result = rows(
            evaluator,
            "SELECT ?s WHERE { ?s <http://ub/advisor> ?p . "
            "?p <http://ub/teacherOf> ?c . ?s <http://ub/takesCourse> ?c }",
        )
        assert [r[0].value for r in result] == ["http://u/kim"]

    def test_empty_result(self, evaluator):
        assert rows(evaluator, "SELECT ?s WHERE { ?s <http://ub/missing> ?o }") == []

    def test_ground_pattern(self, evaluator):
        result = rows(
            evaluator,
            "SELECT ?s WHERE { <http://u/kim> <http://ub/advisor> <http://u/tim> . "
            "?s <http://ub/teacherOf> ?c }",
        )
        assert len(result) == 2  # cross product with satisfied ground pattern


class TestFilters:
    def test_numeric_comparison(self, evaluator):
        result = rows(
            evaluator,
            "SELECT ?p WHERE { ?p <http://ub/age> ?a . FILTER(?a > 40) }",
        )
        assert [r[0].value for r in result] == ["http://u/tim"]

    def test_regex(self, evaluator):
        result = rows(
            evaluator,
            'SELECT ?p WHERE { ?p <http://ub/name> ?n . FILTER regex(?n, "^Tim") }',
        )
        assert [r[0].value for r in result] == ["http://u/tim"]

    def test_boolean_combination(self, evaluator):
        result = rows(
            evaluator,
            "SELECT ?p WHERE { ?p <http://ub/age> ?a . FILTER(?a > 30 && ?a < 40) }",
        )
        assert [r[0].value for r in result] == ["http://u/ben"]

    def test_error_is_false(self, evaluator):
        # comparing an IRI with a number errors -> row dropped, not raised
        result = rows(
            evaluator,
            "SELECT ?s WHERE { ?s <http://ub/advisor> ?p . FILTER(?p > 4) }",
        )
        assert result == []

    def test_not_exists(self, evaluator):
        # advisors who teach nothing: none in this data
        result = rows(
            evaluator,
            "SELECT ?p WHERE { ?s <http://ub/advisor> ?p . "
            "FILTER NOT EXISTS { ?p <http://ub/teacherOf> ?c } }",
        )
        assert result == []

    def test_not_exists_finds_gap(self, evaluator):
        # students with no email: lee
        result = rows(
            evaluator,
            "SELECT ?s WHERE { ?s a <http://ub/GradStudent> . "
            "FILTER NOT EXISTS { ?s <http://ub/email> ?e } }",
        )
        assert [r[0].value for r in result] == ["http://u/lee"]

    def test_exists_correlation(self, evaluator):
        result = rows(
            evaluator,
            "SELECT ?s WHERE { ?s a <http://ub/GradStudent> . "
            "FILTER EXISTS { ?s <http://ub/email> ?e } }",
        )
        assert [r[0].value for r in result] == ["http://u/kim"]

    def test_in_operator(self, evaluator):
        result = rows(
            evaluator,
            "SELECT ?p WHERE { ?p <http://ub/age> ?a . FILTER(?a IN (38, 99)) }",
        )
        assert [r[0].value for r in result] == ["http://u/ben"]

    def test_bound_with_optional(self, evaluator):
        result = rows(
            evaluator,
            "SELECT ?s WHERE { ?s a <http://ub/GradStudent> . "
            "OPTIONAL { ?s <http://ub/email> ?e } FILTER(!BOUND(?e)) }",
        )
        assert [r[0].value for r in result] == ["http://u/lee"]


class TestOptionalUnionValues:
    def test_optional_keeps_unmatched(self, evaluator):
        result = evaluator.select(parse_query(
            "SELECT ?s ?e WHERE { ?s a <http://ub/GradStudent> . "
            "OPTIONAL { ?s <http://ub/email> ?e } }"
        ))
        by_student = {row[0].value: row[1] for row in result.rows}
        assert by_student["http://u/kim"] == Literal("kim@u.edu")
        assert by_student["http://u/lee"] is None

    def test_union(self, evaluator):
        result = rows(
            evaluator,
            "SELECT ?x WHERE { { ?x <http://ub/teacherOf> ?c } UNION "
            "{ ?x <http://ub/takesCourse> ?c } }",
        )
        assert len(result) == 4

    def test_values_restricts(self, evaluator):
        result = rows(
            evaluator,
            "SELECT ?s ?p WHERE { VALUES ?s { <http://u/kim> } "
            "?s <http://ub/advisor> ?p }",
        )
        assert len(result) == 1
        assert result[0][1].value == "http://u/tim"

    def test_values_multi_column(self, evaluator):
        result = rows(
            evaluator,
            "SELECT ?s ?p WHERE { VALUES (?s ?p) { "
            "(<http://u/kim> <http://u/tim>) (<http://u/kim> <http://u/ben>) } "
            "?s <http://ub/advisor> ?p }",
        )
        assert len(result) == 1

    def test_subselect(self, evaluator):
        result = rows(
            evaluator,
            "SELECT ?s WHERE { ?s <http://ub/takesCourse> ?c "
            "{ SELECT ?c WHERE { ?p <http://ub/teacherOf> ?c } } }",
        )
        assert [r[0].value for r in result] == ["http://u/kim"]


class TestModifiers:
    def test_distinct(self, evaluator):
        q = "SELECT ?p WHERE { ?s <http://ub/advisor> ?p . ?p <http://ub/age> ?a }"
        assert len(rows(evaluator, q)) == 2
        assert len(rows(evaluator, "SELECT DISTINCT ?a WHERE { ?x <http://ub/age> ?a }")) == 2

    def test_order_by(self, evaluator):
        result = rows(evaluator, "SELECT ?a WHERE { ?p <http://ub/age> ?a } ORDER BY ?a")
        values = [int(r[0].lexical) for r in result]
        assert values == sorted(values)

    def test_order_by_desc(self, evaluator):
        result = rows(
            evaluator, "SELECT ?a WHERE { ?p <http://ub/age> ?a } ORDER BY DESC(?a)"
        )
        values = [int(r[0].lexical) for r in result]
        assert values == sorted(values, reverse=True)

    def test_limit_offset(self, evaluator):
        all_rows = rows(evaluator, "SELECT ?s WHERE { ?s ?p ?o } ORDER BY ?s")
        page = rows(evaluator, "SELECT ?s WHERE { ?s ?p ?o } ORDER BY ?s LIMIT 3 OFFSET 2")
        assert page == all_rows[2:5]

    def test_count(self, evaluator):
        result = rows(evaluator, "SELECT (COUNT(*) AS ?c) WHERE { ?s <http://ub/advisor> ?o }")
        assert result == [(Literal.integer(2),)]

    def test_count_distinct(self, evaluator):
        result = rows(
            evaluator,
            "SELECT (COUNT(DISTINCT ?c) AS ?n) WHERE { ?x <http://ub/takesCourse> ?c }",
        )
        assert int(result[0][0].lexical) == 2


class TestAsk:
    def test_ask_true(self, evaluator):
        assert evaluator.ask(parse_query("ASK { ?s <http://ub/advisor> ?o }"))

    def test_ask_false(self, evaluator):
        assert not evaluator.ask(parse_query("ASK { ?s <http://ub/nothing> ?o }"))

    def test_ask_with_constant(self, evaluator):
        assert evaluator.ask(
            parse_query("ASK { <http://u/kim> <http://ub/advisor> ?o }")
        )


class TestBatchPathContracts:
    """What the endpoint's batch paths (VALUES as a semi-join inside the
    pipeline, FILTER (NOT) EXISTS per batch, LIMIT that stops pulling)
    must keep, asserted on counters — never on a clock."""

    ADVISES_AND_TEACHES = (
        "?s <http://ub/advisor> ?p . ?p <http://ub/teacherOf> ?c"
    )

    def test_queries_never_intern(self):
        store = TripleStore(nt_parse(DATA))
        evaluator = Evaluator(store)
        size = len(store.dictionary)
        # a semi-join block naming one term the store has never seen
        bound = rows(
            evaluator,
            "SELECT ?s ?c WHERE { VALUES ?p { <http://never/seen> <http://u/tim> } "
            + self.ADVISES_AND_TEACHES + " }",
        )
        assert [(r[0].value, r[1].value) for r in bound] == [
            ("http://u/kim", "http://u/c1")
        ]
        # an EXISTS stage seeded with an outer value the store has never seen
        seeded = rows(
            evaluator,
            "SELECT ?x WHERE { VALUES ?x { <http://never/seen> <http://u/ben> } "
            "FILTER EXISTS { ?x <http://ub/teacherOf> ?c } }",
        )
        assert [r[0].value for r in seeded] == ["http://u/ben"]
        assert len(store.dictionary) == size

    @pytest.mark.parametrize("form", ["ask", "limit"])
    def test_a_check_query_stops_after_its_first_chunk(self, form):
        """A Figure-5 check whose first chunk holds a survivor touches a
        small multiple of ``batch_size`` rows, not all 10 000."""
        lines = [f"<http://u/s{i}> <http://ub/p> <http://u/o> ." for i in range(10_000)]
        lines += [f"<http://u/s{i}> <http://ub/q> <http://u/z> ." for i in range(0, 10_000, 2)]
        evaluator = Evaluator(TripleStore(nt_parse("\n".join(lines))))
        where = (
            "{ ?s <http://ub/p> <http://u/o> . "
            "FILTER NOT EXISTS { ?s <http://ub/q> ?z } }"
        )
        if form == "ask":
            assert evaluator.ask(parse_query("ASK " + where))
        else:
            found = rows(evaluator, "SELECT ?s WHERE " + where + " LIMIT 1")
            assert len(found) == 1
        assert evaluator.stats.intermediate_rows <= 4 * evaluator.batch_size

    def test_a_values_block_cuts_the_pipeline_not_just_the_answer(self):
        def touched(text):
            evaluator = Evaluator(TripleStore(nt_parse(DATA)))
            result = rows(evaluator, text)
            return len(result), evaluator.stats.intermediate_rows

        unbound = touched("SELECT * WHERE { " + self.ADVISES_AND_TEACHES + " }")
        bound = touched(
            "SELECT * WHERE { VALUES ?s { <http://u/kim> } "
            + self.ADVISES_AND_TEACHES + " }"
        )
        assert (unbound[0], bound[0]) == (2, 1)
        assert bound[1] < unbound[1]

    def test_a_check_that_proves_locality_never_expands_its_dead_matches(self):
        """The Figure-5 check with no survivor walks its whole outer
        pattern.  ``?z`` and ``?w`` are never read, so each of the 10 000
        subjects is one row however many of its 5 + 5 matches exist."""
        ub = "http://ub/"
        triples = []
        for i in range(10_000):
            subject = IRI(f"http://u/s{i}")
            triples.append(Triple(subject, IRI(RDF_TYPE), IRI(ub + "T")))
            for j in range(5):
                triples.append(Triple(subject, IRI(ub + "p"), IRI(f"http://u/o{j}")))
                triples.append(Triple(subject, IRI(ub + "q"), IRI(f"http://u/w{j}")))
        evaluator = Evaluator(TripleStore(triples))
        found = rows(
            evaluator,
            f"SELECT ?s WHERE {{ ?s a <{ub}T> . ?s <{ub}p> ?z . "
            f"FILTER NOT EXISTS {{ ?s <{ub}q> ?w }} }} LIMIT 1",
        )
        assert found == []
        assert evaluator.stats.intermediate_rows <= 45_000

    def test_count_star_decodes_nothing(self, monkeypatch):
        store = TripleStore(
            Triple(IRI(f"http://u/s{i}"), IRI("http://ub/p"), IRI(f"http://u/o{i % 7}"))
            for i in range(50_000)
        )
        decoded = []
        original = TermDictionary.decode
        monkeypatch.setattr(
            TermDictionary, "decode",
            lambda self, tid: decoded.append(tid) or original(self, tid),
        )
        result = rows(
            Evaluator(store),
            "SELECT (COUNT(*) AS ?c) WHERE { ?s <http://ub/p> ?o }",
        )
        assert result == [(Literal.integer(50_000),)]
        assert decoded == []
