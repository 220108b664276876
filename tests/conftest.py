"""Shared fixtures: the paper's running example federation (Figures 1-6).

Two university endpoints with the LUBM-style schema:

- EP1 (MIT): grad students Lee and Sam; professors Ben (advises Lee,
  teaches c1) and Ann (advises Sam, teaches nothing — the paper's
  "extraneous computation" witness that makes ?P a GJV); Ben got his PhD
  from MIT (local); MIT's address is "XXX".
- EP2 (CMU): grad student Kim advised by Joy and Tim; Joy teaches c2,
  Tim teaches c3, Kim takes both; Joy's PhD is from CMU (local) but
  Tim's PhD is from MIT — the cross-endpoint interlink that makes ?U a
  GJV; CMU's address is "CCCC".

The paper's query Q_a over this federation has exactly three answers:
(Kim, Joy, CMU, "CCCC"), (Kim, Tim, MIT, "XXX"), (Lee, Ben, MIT, "XXX").
"""

import os

import pytest
from hypothesis import settings

from repro.endpoint import LOCAL_CLUSTER, LocalEndpoint
from repro.federation import Federation
from repro.rdf import parse as nt_parse

# `HYPOTHESIS_PROFILE=ci` deepens the property tests that size
# themselves from the loaded profile (test_property_evaluator_reference);
# unset, Hypothesis's own default profile stays loaded and tier-1 keeps
# its per-test example counts.
settings.register_profile("ci", max_examples=1000, deadline=None)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])

UB = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

EP1_TRIPLES = f"""
<http://mit.edu/Lee> <{RDF_TYPE}> <{UB}GraduateStudent> .
<http://mit.edu/Sam> <{RDF_TYPE}> <{UB}GraduateStudent> .
<http://mit.edu/Ben> <{RDF_TYPE}> <{UB}AssociateProfessor> .
<http://mit.edu/Ann> <{RDF_TYPE}> <{UB}AssociateProfessor> .
<http://mit.edu/c1> <{RDF_TYPE}> <{UB}GraduateCourse> .
<http://mit.edu/Lee> <{UB}advisor> <http://mit.edu/Ben> .
<http://mit.edu/Sam> <{UB}advisor> <http://mit.edu/Ann> .
<http://mit.edu/Ben> <{UB}teacherOf> <http://mit.edu/c1> .
<http://mit.edu/Lee> <{UB}takesCourse> <http://mit.edu/c1> .
<http://mit.edu/Sam> <{UB}takesCourse> <http://mit.edu/c1> .
<http://mit.edu/Ben> <{UB}PhDDegreeFrom> <http://mit.edu/MIT> .
<http://mit.edu/MIT> <{UB}address> "XXX" .
"""

EP2_TRIPLES = f"""
<http://cmu.edu/Kim> <{RDF_TYPE}> <{UB}GraduateStudent> .
<http://cmu.edu/Joy> <{RDF_TYPE}> <{UB}AssociateProfessor> .
<http://cmu.edu/Tim> <{RDF_TYPE}> <{UB}AssociateProfessor> .
<http://cmu.edu/c2> <{RDF_TYPE}> <{UB}GraduateCourse> .
<http://cmu.edu/c3> <{RDF_TYPE}> <{UB}GraduateCourse> .
<http://cmu.edu/Kim> <{UB}advisor> <http://cmu.edu/Joy> .
<http://cmu.edu/Kim> <{UB}advisor> <http://cmu.edu/Tim> .
<http://cmu.edu/Joy> <{UB}teacherOf> <http://cmu.edu/c2> .
<http://cmu.edu/Tim> <{UB}teacherOf> <http://cmu.edu/c3> .
<http://cmu.edu/Kim> <{UB}takesCourse> <http://cmu.edu/c2> .
<http://cmu.edu/Kim> <{UB}takesCourse> <http://cmu.edu/c3> .
<http://cmu.edu/Joy> <{UB}PhDDegreeFrom> <http://cmu.edu/CMU> .
<http://cmu.edu/Tim> <{UB}PhDDegreeFrom> <http://mit.edu/MIT> .
<http://cmu.edu/CMU> <{UB}address> "CCCC" .
"""

#: The paper's Figure-2 query.
QUERY_QA = f"""
SELECT ?S ?P ?U ?A WHERE {{
  ?S <{UB}advisor> ?P .
  ?S <{RDF_TYPE}> <{UB}GraduateStudent> .
  ?P <{UB}teacherOf> ?C .
  ?P <{RDF_TYPE}> <{UB}AssociateProfessor> .
  ?S <{UB}takesCourse> ?C .
  ?C <{RDF_TYPE}> <{UB}GraduateCourse> .
  ?P <{UB}PhDDegreeFrom> ?U .
  ?U <{UB}address> ?A .
}}
"""

QA_EXPECTED = {
    ("http://cmu.edu/Kim", "http://cmu.edu/Joy", "http://cmu.edu/CMU", "CCCC"),
    ("http://cmu.edu/Kim", "http://cmu.edu/Tim", "http://mit.edu/MIT", "XXX"),
    ("http://mit.edu/Lee", "http://mit.edu/Ben", "http://mit.edu/MIT", "XXX"),
}


def build_paper_federation(network=LOCAL_CLUSTER) -> Federation:
    return Federation(
        [
            LocalEndpoint.from_triples("ep1", nt_parse(EP1_TRIPLES)),
            LocalEndpoint.from_triples("ep2", nt_parse(EP2_TRIPLES)),
        ],
        network=network,
    )


@pytest.fixture
def paper_federation() -> Federation:
    return build_paper_federation()


def result_values(result):
    """Rows as tuples of plain strings (IRIs and literal lexical forms)."""
    values = set()
    for row in result.rows:
        values.add(tuple(
            None if cell is None
            else getattr(cell, "value", None) or getattr(cell, "lexical", None)
            for cell in row
        ))
    return values
