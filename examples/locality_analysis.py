"""Inspecting LADE's locality analysis (the paper's Section 3 machinery).

This example opens the hood: it runs source selection, global-join-
variable detection, and decomposition step by step on the LargeRDFBench
federation, printing which variables are global, which pattern pairs
caused that, and what check queries were sent — the exact artifacts of
the paper's Figures 4-6.

Run with::

    python examples/locality_analysis.py
"""

from repro.core.gjv import GJVDetector
from repro.core.decomposer import Decomposer
from repro.datasets import LargeRdfBenchGenerator, LRB_QUERIES
from repro.federation import ElasticRequestHandler, SourceSelector
from repro.sparql import parse_query


def analyze(federation, name: str, query_text: str) -> None:
    print(f"=== {name} ===")
    query = parse_query(query_text)
    patterns = query.triple_patterns()
    context = federation.make_context()
    handler = ElasticRequestHandler(federation, context)

    selection = SourceSelector(handler).select_all(patterns)
    print("source selection:")
    for pattern, sources in selection.items():
        print(f"  {pattern.n3():70s} -> {list(sources)}")

    detector = GJVDetector(handler, selection)
    report = detector.collect(detector.begin(patterns))
    print(f"check queries sent: {report.check_queries_sent}")
    if report.global_variables:
        print("global join variables:")
        for variable, pairs in report.global_variables.items():
            print(f"  ?{variable.name}  (from {len(pairs)} offending pair(s))")
            for a, b in pairs[:2]:
                print(f"     {a.predicate.n3()} x {b.predicate.n3()}")
    else:
        print("no global join variables: the whole query is one subquery")

    decomposer = Decomposer(selection, report)
    subqueries = decomposer.decompose(patterns)
    print(f"decomposition: {len(subqueries)} subquery(ies)")
    for subquery in subqueries:
        print(f"  {subquery.label} -> {list(subquery.sources)}")
        for pattern in subquery.patterns:
            print(f"     {pattern.n3()}")
    print()


def main() -> None:
    federation = LargeRdfBenchGenerator(scale=0.5).build_federation()
    print(f"federation: {len(federation)} endpoints, "
          f"{federation.total_triples()} triples\n")
    # S4 joins DrugBank and ChEBI through a CAS-number literal: the
    # sources differ per pattern, so ?cas comes out global immediately.
    analyze(federation, "S4 (cross-dataset literal join)", LRB_QUERIES["S4"])
    # C8 spans three endpoints; the enzyme variable is global.
    analyze(federation, "C8 (three-endpoint join)", LRB_QUERIES["C8"])
    # B7 joins the two TCGA stores; the patient variable joins across
    # endpoints even though both patterns share one predicate.
    analyze(federation, "B7 (same-predicate cross-endpoint join)",
            LRB_QUERIES["B7"])


if __name__ == "__main__":
    main()
