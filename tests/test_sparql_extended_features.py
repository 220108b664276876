"""Tests for BIND, MINUS, GROUP BY, and the extended aggregate set."""

import pytest

from repro.core import LusailEngine
from repro.endpoint import LOCAL_CLUSTER, LocalEndpoint
from repro.federation import Federation
from repro.rdf import parse as nt_parse
from repro.sparql import Evaluator, parse_query, serialize_query
from repro.store import TripleStore

from .conftest import result_values

DATA = """
<http://x/a> <http://p/dept> <http://x/d1> .
<http://x/b> <http://p/dept> <http://x/d1> .
<http://x/c> <http://p/dept> <http://x/d2> .
<http://x/a> <http://p/age> "30"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://x/b> <http://p/age> "40"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://x/c> <http://p/age> "20"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://x/a> <http://p/flag> "yes" .
"""


@pytest.fixture(scope="module")
def evaluator():
    return Evaluator(TripleStore(nt_parse(DATA)))


class TestBind:
    def test_computed_column(self, evaluator):
        result = evaluator.select(parse_query(
            "SELECT ?s ?double WHERE { ?s <http://p/age> ?a . "
            "BIND(?a * 2 AS ?double) }"
        ))
        values = {(r[0].value, int(r[1].lexical)) for r in result.rows}
        assert ("http://x/a", 60) in values
        assert ("http://x/c", 40) in values

    def test_bind_error_leaves_unbound(self, evaluator):
        result = evaluator.select(parse_query(
            "SELECT ?s ?bad WHERE { ?s <http://p/dept> ?d . "
            "BIND(?d * 2 AS ?bad) }"
        ))
        assert all(row[1] is None for row in result.rows)

    def test_bind_feeds_filter(self, evaluator):
        result = evaluator.select(parse_query(
            "SELECT ?s WHERE { ?s <http://p/age> ?a . "
            "BIND(?a + 5 AS ?b) FILTER(?b > 40) }"
        ))
        assert {r[0].value for r in result.rows} == {"http://x/b"}

    def test_round_trip(self):
        text = "SELECT ?s ?b WHERE { ?s <http://p> ?a . BIND(STR(?a) AS ?b) . }"
        assert serialize_query(parse_query(serialize_query(parse_query(text)))) \
            == serialize_query(parse_query(text))


class TestMinus:
    def test_removes_matching_solutions(self, evaluator):
        result = evaluator.select(parse_query(
            "SELECT ?s WHERE { ?s <http://p/dept> ?d . "
            'MINUS { ?s <http://p/flag> "yes" } }'
        ))
        assert {r[0].value for r in result.rows} == {"http://x/b", "http://x/c"}

    def test_disjoint_minus_removes_nothing(self, evaluator):
        result = evaluator.select(parse_query(
            "SELECT ?s WHERE { ?s <http://p/dept> ?d . "
            "MINUS { ?x <http://p/missing> ?y } }"
        ))
        assert len(result) == 3


class TestGroupByAggregates:
    def test_count_per_group(self, evaluator):
        result = evaluator.select(parse_query(
            "SELECT ?d (COUNT(?s) AS ?n) WHERE { ?s <http://p/dept> ?d } "
            "GROUP BY ?d"
        ))
        counts = {r[0].value: int(r[1].lexical) for r in result.rows}
        assert counts == {"http://x/d1": 2, "http://x/d2": 1}

    def test_sum_avg_min_max(self, evaluator):
        result = evaluator.select(parse_query(
            "SELECT ?d (SUM(?a) AS ?s) (AVG(?a) AS ?avg) "
            "(MIN(?a) AS ?lo) (MAX(?a) AS ?hi) WHERE "
            "{ ?x <http://p/dept> ?d . ?x <http://p/age> ?a } GROUP BY ?d"
        ))
        by_dept = {r[0].value: r[1:] for r in result.rows}
        s, avg, lo, hi = by_dept["http://x/d1"]
        assert int(s.lexical) == 70
        assert float(avg.lexical) == pytest.approx(35.0)
        assert int(lo.lexical) == 30
        assert int(hi.lexical) == 40

    def test_sum_over_non_numeric_is_unbound(self, evaluator):
        result = evaluator.select(parse_query(
            "SELECT (SUM(?d) AS ?s) WHERE { ?x <http://p/dept> ?d }"
        ))
        assert result.rows == [(None,)]

    def test_count_distinct(self, evaluator):
        result = evaluator.select(parse_query(
            "SELECT (COUNT(DISTINCT ?d) AS ?n) WHERE { ?s <http://p/dept> ?d }"
        ))
        assert int(result.rows[0][0].lexical) == 2

    def test_aggregate_over_empty_solutions(self, evaluator):
        result = evaluator.select(parse_query(
            "SELECT (COUNT(*) AS ?n) WHERE { ?s <http://p/none> ?o }"
        ))
        assert int(result.rows[0][0].lexical) == 0

    def test_ungrouped_plain_variable_rejected(self, evaluator):
        with pytest.raises(NotImplementedError):
            evaluator.select(parse_query(
                "SELECT ?s (COUNT(?d) AS ?n) WHERE { ?s <http://p/dept> ?d }"
            ))

    def test_solution_modifiers_apply_after_grouping(self):
        store = TripleStore(nt_parse("\n".join(
            f"<http://x/s{i}> <http://p/g> <http://x/g{i % 3}> ." for i in range(9)
        )))
        evaluator = Evaluator(store)
        grouped = "SELECT ?g (COUNT(*) AS ?c) WHERE { ?s <http://p/g> ?g } GROUP BY ?g "

        def groups(text):
            return [r[0].value[-2:] for r in evaluator.select(parse_query(text)).rows]

        assert groups(grouped) == ["g0", "g1", "g2"]
        assert groups(grouped + "ORDER BY DESC(?g)") == ["g2", "g1", "g0"]
        assert groups(grouped + "ORDER BY DESC(?g) LIMIT 1") == ["g2"]
        assert groups(grouped + "LIMIT 1") == ["g0"]
        assert groups(grouped + "OFFSET 2") == ["g2"]
        assert evaluator.select(parse_query(
            "SELECT (COUNT(*) AS ?c) WHERE { ?s <http://p/g> ?g } LIMIT 0"
        )).rows == []

    def test_sum_star_is_syntax_error(self):
        from repro.sparql import SparqlSyntaxError

        with pytest.raises((SparqlSyntaxError, ValueError)):
            parse_query("SELECT (SUM(*) AS ?s) WHERE { ?s ?p ?o }")


# ----------------------------------------------------------------------
# Federated versions (evaluated at the Lusail federator)
# ----------------------------------------------------------------------

EP1 = """
<http://x/a> <http://p/dept> <http://x/d1> .
<http://x/a> <http://p/age> "30"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://x/a> <http://p/flag> "yes" .
"""
EP2 = """
<http://x/b> <http://p/dept> <http://x/d1> .
<http://x/b> <http://p/age> "40"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://x/c> <http://p/dept> <http://x/d2> .
<http://x/c> <http://p/age> "20"^^<http://www.w3.org/2001/XMLSchema#integer> .
"""


@pytest.fixture
def engine():
    federation = Federation(
        [
            LocalEndpoint.from_triples("ep1", nt_parse(EP1)),
            LocalEndpoint.from_triples("ep2", nt_parse(EP2)),
        ],
        network=LOCAL_CLUSTER,
    )
    return LusailEngine(federation)


class TestFederatedExtendedFeatures:
    def test_federated_group_by(self, engine):
        outcome = engine.execute(
            "SELECT ?d (COUNT(?s) AS ?n) WHERE { ?s <http://p/dept> ?d } "
            "GROUP BY ?d"
        )
        assert outcome.status == "OK", outcome.error
        counts = {r[0].value: int(r[1].lexical) for r in outcome.result.rows}
        assert counts == {"http://x/d1": 2, "http://x/d2": 1}

    def test_federated_avg(self, engine):
        outcome = engine.execute(
            "SELECT (AVG(?a) AS ?avg) WHERE { ?s <http://p/age> ?a }"
        )
        assert outcome.status == "OK", outcome.error
        assert float(outcome.result.rows[0][0].lexical) == pytest.approx(30.0)

    def test_federated_bind(self, engine):
        outcome = engine.execute(
            "SELECT ?s ?next WHERE { ?s <http://p/age> ?a . "
            "BIND(?a + 1 AS ?next) }"
        )
        assert outcome.status == "OK", outcome.error
        values = {(r[0].value, int(r[1].lexical)) for r in outcome.result.rows}
        assert ("http://x/a", 31) in values

    def test_federated_minus(self, engine):
        outcome = engine.execute(
            "SELECT ?s WHERE { ?s <http://p/dept> ?d . "
            'MINUS { ?s <http://p/flag> "yes" } }'
        )
        assert outcome.status == "OK", outcome.error
        assert {r[0] for r in result_values(outcome.result)} == {
            "http://x/b", "http://x/c",
        }

    def test_federated_minus_spans_endpoints(self, engine):
        """The MINUS side lives on ep1 only; the positive side on both."""
        outcome = engine.execute(
            "SELECT ?s ?a WHERE { ?s <http://p/age> ?a . "
            "MINUS { ?s <http://p/flag> ?f } }"
        )
        assert outcome.status == "OK", outcome.error
        names = {r[0] for r in result_values(outcome.result)}
        assert names == {"http://x/b", "http://x/c"}
