"""Engine-level feature tests: OPTIONAL, UNION, VALUES, modifiers,
disconnected subgraphs, error statuses, and ASK."""

import pytest

from repro.core import LusailEngine
from repro.endpoint import LOCAL_CLUSTER, LocalEndpoint
from repro.federation import Federation
from repro.rdf import parse as nt_parse

from .conftest import result_values

EP1 = """
<http://x/a1> <http://v/p> <http://x/b1> .
<http://x/b1> <http://v/q> <http://x/c1> .
<http://x/a1> <http://v/name> "alpha" .
<http://x/m1> <http://v/tag> "red" .
"""
EP2 = """
<http://x/a2> <http://v/p> <http://x/b2> .
<http://x/b2> <http://v/q> <http://x/c2> .
<http://x/a2> <http://v/name> "beta" .
<http://x/n1> <http://v/label> "red" .
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


class TestQueryForms:
    def test_ask_true_and_false(self, engine):
        yes = engine.execute("ASK { ?s <http://v/p> ?o }")
        assert yes.status == "OK" and yes.boolean is True
        no = engine.execute("ASK { ?s <http://v/none> ?o }")
        assert no.status == "OK" and no.boolean is False

    def test_select_distinct(self, engine):
        outcome = engine.execute(
            "SELECT DISTINCT ?p WHERE { ?s ?p ?o . ?s <http://v/p> ?b }"
        )
        assert outcome.status == "OK"
        predicates = {row[0] for row in result_values(outcome.result)}
        assert "http://v/p" in predicates

    def test_order_and_limit(self, engine):
        outcome = engine.execute(
            "SELECT ?n WHERE { ?s <http://v/name> ?n } ORDER BY ?n LIMIT 1"
        )
        assert outcome.status == "OK"
        assert result_values(outcome.result) == {("alpha",)}

    def test_order_desc(self, engine):
        outcome = engine.execute(
            "SELECT ?n WHERE { ?s <http://v/name> ?n } ORDER BY DESC(?n) LIMIT 1"
        )
        assert result_values(outcome.result) == {("beta",)}

    def test_offset(self, engine):
        outcome = engine.execute(
            "SELECT ?n WHERE { ?s <http://v/name> ?n } ORDER BY ?n OFFSET 1"
        )
        assert result_values(outcome.result) == {("beta",)}


class TestGroupFeatures:
    def test_optional_spanning_endpoints(self, engine):
        outcome = engine.execute(
            "SELECT ?s ?n WHERE { ?s <http://v/p> ?b . "
            "OPTIONAL { ?s <http://v/name> ?n } }"
        )
        assert outcome.status == "OK", outcome.error
        assert result_values(outcome.result) == {
            ("http://x/a1", "alpha"),
            ("http://x/a2", "beta"),
        }

    def test_union_across_endpoints(self, engine):
        outcome = engine.execute(
            "SELECT ?x WHERE { { ?x <http://v/tag> ?t } UNION "
            "{ ?x <http://v/label> ?t } }"
        )
        assert outcome.status == "OK", outcome.error
        assert result_values(outcome.result) == {
            ("http://x/m1",), ("http://x/n1",),
        }

    def test_values_in_query(self, engine):
        outcome = engine.execute(
            "SELECT ?s ?b WHERE { VALUES ?s { <http://x/a1> } "
            "?s <http://v/p> ?b }"
        )
        assert outcome.status == "OK", outcome.error
        assert result_values(outcome.result) == {("http://x/a1", "http://x/b1")}

    def test_disconnected_subgraphs_with_filter(self, engine):
        """The C5/B5/B6 shape: two disjoint subgraphs joined by a filter
        variable — supported by Lusail only."""
        outcome = engine.execute(
            "SELECT ?m ?n WHERE { ?m <http://v/tag> ?t . "
            "?n <http://v/label> ?l . FILTER(?t = ?l) }"
        )
        assert outcome.status == "OK", outcome.error
        assert result_values(outcome.result) == {("http://x/m1", "http://x/n1")}

    def test_filter_pushed_to_subquery(self, engine):
        outcome = engine.execute(
            'SELECT ?s WHERE { ?s <http://v/name> ?n . FILTER(?n = "alpha") }'
        )
        assert outcome.status == "OK"
        assert result_values(outcome.result) == {("http://x/a1",)}

    def test_exists_filter_unsupported_globally(self, engine):
        outcome = engine.execute(
            "SELECT ?s WHERE { ?s <http://v/p> ?b . "
            "FILTER NOT EXISTS { ?b <http://v/q> ?c } }"
        )
        # global EXISTS is outside the supported subset -> clean RE status
        assert outcome.status == "RE"


class TestStatuses:
    def test_timeout_status(self, engine):
        outcome = engine.execute(
            "SELECT ?s WHERE { ?s ?p ?o }", timeout_seconds=1e-12
        )
        assert outcome.status == "TO"
        assert outcome.result is None

    def test_memory_status(self, engine):
        outcome = engine.execute(
            "SELECT * WHERE { ?s ?p ?o . ?x <http://v/p> ?y }",
            max_intermediate_rows=1,
        )
        assert outcome.status == "OOM"

    def test_real_time_limit(self, engine):
        outcome = engine.execute(
            "SELECT ?s WHERE { ?s ?p ?o }", real_time_limit=0.0
        )
        assert outcome.status == "TO"

    def test_parse_error_is_re(self, engine):
        outcome = engine.execute("SELECT ?s WHERE { ?s ?p }")
        assert outcome.status == "RE"
        assert outcome.error

    def test_metrics_survive_failure(self, engine):
        outcome = engine.execute(
            "SELECT ?s WHERE { ?s ?p ?o }", timeout_seconds=1e-12
        )
        assert outcome.metrics is not None


class TestExplain:
    def test_explain_does_not_execute(self, engine):
        subqueries = engine.explain(
            "SELECT ?s WHERE { ?s <http://v/p> ?b . ?b <http://v/q> ?c }"
        )
        assert subqueries
        assert all(sq.sources for sq in subqueries)

    def test_explain_honours_reset_request_windows(self):
        """On a served engine (``reset_request_windows=False``) explain()
        must not clear the rate-limit windows queries in flight are
        being measured against — it used to build its context with the
        default ``reset_windows=True``."""
        limited = LocalEndpoint.from_triples(
            "ep1", nt_parse(EP1), max_requests_per_query=50
        )
        federation = Federation(
            [limited, LocalEndpoint.from_triples("ep2", nt_parse(EP2))],
            network=LOCAL_CLUSTER,
        )
        query = "SELECT ?s WHERE { ?s <http://v/p> ?b . ?b <http://v/q> ?c }"
        LusailEngine(federation).explain(query)  # resets, then probes
        probes = limited._requests_in_window
        assert probes > 0
        limited.reset_request_window()
        limited.execute("ASK { ?s ?p ?o }")  # a part-used window
        LusailEngine(federation, reset_request_windows=False).explain(query)
        assert limited._requests_in_window == 1 + probes
