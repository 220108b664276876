"""End-to-end tests on the paper's running example (Sections 1-3).

These tests pin the observable behaviour the paper describes: which
variables come out global, how Q_a decomposes, and that the federated
answer matches the three expected rows."""

import pytest

from repro.core import LusailEngine
from repro.federation import ElasticRequestHandler, SourceSelector
from repro.core.gjv import GJVDetector
from repro.rdf import UB, TriplePattern, Variable
from repro.sparql import parse_query

from .conftest import QA_EXPECTED, QUERY_QA, result_values


@pytest.fixture
def engine(paper_federation):
    return LusailEngine(paper_federation)


class TestGJVDetectionOnPaperExample:
    def detect(self, federation):
        query = parse_query(QUERY_QA)
        patterns = query.triple_patterns()
        context = federation.make_context()
        handler = ElasticRequestHandler(federation, context)
        selection = SourceSelector(handler).select_all(patterns)
        detector = GJVDetector(handler, selection)
        return detector.collect(detector.begin(patterns))

    def test_u_and_p_are_global(self, paper_federation):
        report = self.detect(paper_federation)
        names = {v.name for v in report.global_variables}
        assert "U" in names  # Tim's PhD is from a remote university
        assert "P" in names  # Ann advises but teaches nothing

    def test_s_and_c_are_local(self, paper_federation):
        report = self.detect(paper_federation)
        names = {v.name for v in report.global_variables}
        assert "S" not in names
        assert "C" not in names

    def test_forbidden_pairs_match_figure_6(self, paper_federation):
        report = self.detect(paper_federation)
        phd = TriplePattern(Variable("P"), UB.PhDDegreeFrom, Variable("U"))
        address = TriplePattern(Variable("U"), UB.address, Variable("A"))
        advisor = TriplePattern(Variable("S"), UB.advisor, Variable("P"))
        teacher = TriplePattern(Variable("P"), UB.teacherOf, Variable("C"))
        assert report.pair_forbidden(phd, address)
        assert report.pair_forbidden(advisor, teacher)
        takes = TriplePattern(Variable("S"), UB.takesCourse, Variable("C"))
        assert not report.pair_forbidden(advisor, takes)


class TestDecompositionOnPaperExample:
    def test_forbidden_pairs_are_split(self, engine):
        subqueries = engine.explain(QUERY_QA)
        assert len(subqueries) >= 2
        for subquery in subqueries:
            predicates = {p.predicate for p in subquery.patterns}
            assert not (
                UB.PhDDegreeFrom in predicates and UB.address in predicates
            )
            assert not (UB.advisor in predicates and UB.teacherOf in predicates)

    def test_all_patterns_covered_exactly_once(self, engine):
        subqueries = engine.explain(QUERY_QA)
        total = [p for sq in subqueries for p in sq.patterns]
        assert len(total) == 8
        assert len(set(total)) == 8

    def test_local_pairs_are_exploited(self, engine):
        """Figure 6: takesCourse is locally joinable with both advisor and
        teacherOf; any valid decomposition keeps it with one of them."""
        subqueries = engine.explain(QUERY_QA)
        for subquery in subqueries:
            predicates = {p.predicate for p in subquery.patterns}
            if UB.takesCourse in predicates:
                assert UB.advisor in predicates or UB.teacherOf in predicates
                break
        else:
            pytest.fail("no subquery contains the takesCourse pattern")


class TestEndToEnd:
    def test_qa_answers_match_paper(self, engine):
        outcome = engine.execute(QUERY_QA)
        assert outcome.status == "OK", outcome.error
        assert result_values(outcome.result) == QA_EXPECTED

    def test_metrics_populated(self, engine):
        outcome = engine.execute(QUERY_QA)
        assert outcome.metrics.requests > 0
        assert outcome.metrics.virtual_seconds > 0
        assert outcome.metrics.phase_seconds.get("source_selection", 0) > 0
        assert "execution" in outcome.metrics.phase_seconds

    def test_cache_reduces_requests_on_second_run(self, engine):
        first = engine.execute(QUERY_QA)
        second = engine.execute(QUERY_QA)
        assert second.metrics.requests < first.metrics.requests
        assert result_values(second.result) == QA_EXPECTED

    def test_without_cache_requests_repeat(self, paper_federation):
        engine = LusailEngine(paper_federation, use_cache=False)
        first = engine.execute(QUERY_QA)
        second = engine.execute(QUERY_QA)
        assert second.metrics.requests == first.metrics.requests

    def test_lade_only_matches_results(self, paper_federation):
        engine = LusailEngine(paper_federation, enable_sape=False)
        outcome = engine.execute(QUERY_QA)
        assert outcome.status == "OK", outcome.error
        assert result_values(outcome.result) == QA_EXPECTED

    def test_strict_checks_match_results(self, paper_federation):
        engine = LusailEngine(paper_federation, strict_checks=True)
        outcome = engine.execute(QUERY_QA)
        assert outcome.status == "OK", outcome.error
        assert result_values(outcome.result) == QA_EXPECTED

    @pytest.mark.parametrize("threshold", ["mu", "mu+sigma", "mu+2sigma", "outliers"])
    def test_all_delay_thresholds_are_correct(self, paper_federation, threshold):
        engine = LusailEngine(paper_federation, delay_threshold=threshold)
        outcome = engine.execute(QUERY_QA)
        assert outcome.status == "OK", outcome.error
        assert result_values(outcome.result) == QA_EXPECTED

    def test_naive_single_endpoint_union_misses_results(self, paper_federation):
        """Sanity check of the premise in Section 1: evaluating Q_a
        independently at each endpoint loses Tim's row."""
        from repro.sparql import Evaluator, parse_query as parse

        rows = set()
        for endpoint in paper_federation.endpoints():
            local = Evaluator(endpoint.store).select(parse(QUERY_QA))
            rows |= result_values(local)
        assert len(rows) == 2
        assert rows < QA_EXPECTED
