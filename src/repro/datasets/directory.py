"""The directory workload: a linked-data federation in the spirit of the
paper's demonstration scenario.

Universities hold students; two sharded *address* registries hold places
(mostly irrelevant noise, the classic bound-join motivation); two sharded
*email* registries hold mailboxes.  :data:`DIRECTORY_QUERY` joins all
four.  Both registry subqueries are delayed (bound ``VALUES``
evaluation) and bind on *different* variables over *different*
endpoints, so the request scheduler runs them in one overlapped wave and
the COUNT probes overlap the GJV checks — the workload where request
overlap and streaming's early first result show.
"""

from __future__ import annotations

from typing import List

from ..endpoint.local import LocalEndpoint
from ..endpoint.network import AZURE_GEO, Region
from ..federation.federation import Federation
from ..rdf.namespace import RDF_TYPE, UB
from ..rdf.term import IRI, Literal
from ..rdf.triple import Triple
from .lubm import university_iri

_UNIVERSITY_REGIONS = [
    Region("east-us"), Region("west-us"), Region("south-central-us"),
]
_ADDRESS_REGIONS = [Region("north-europe"), Region("west-europe")]
_EMAIL_REGIONS = [Region("uk-south"), Region("north-europe")]


def _student_iri(university: int, index: int) -> IRI:
    return IRI(
        f"http://www.university{university}.edu/GraduateStudent{index}"
    )


def build_directory_federation(
    universities: int = 12,
    students_per_university: int = 1,
    noise_addresses: int = 4000,
    noise_emails: int = 7000,
) -> Federation:
    """Universities (near regions) + sharded address/email registries
    (far regions), GeoNames-style: registries are big, but only the rows
    matching the universities' bindings matter."""
    endpoints: List[LocalEndpoint] = []
    students: List[IRI] = []
    for index in range(universities):
        triples: List[Triple] = []
        for s in range(students_per_university):
            student = _student_iri(index, s)
            students.append(student)
            triples.append(Triple(student, RDF_TYPE, UB.GraduateStudent))
            triples.append(Triple(
                student,
                UB.undergraduateDegreeFrom,
                university_iri((index + 1 + s) % universities),
            ))
        endpoints.append(LocalEndpoint.from_triples(
            f"university{index}",
            triples,
            region=_UNIVERSITY_REGIONS[index % len(_UNIVERSITY_REGIONS)],
        ))
    for shard, region in enumerate(_ADDRESS_REGIONS):
        triples = [
            Triple(
                university_iri(index), UB.address,
                Literal(f"{100 + index} College Road, City{index}"),
            )
            for index in range(universities)
            if index % len(_ADDRESS_REGIONS) == shard
        ]
        triples.extend(
            Triple(
                IRI(f"http://places.example.org/s{shard}/Place{n}"),
                UB.address,
                Literal(f"{n} Nowhere Lane"),
            )
            for n in range(noise_addresses // len(_ADDRESS_REGIONS))
        )
        endpoints.append(LocalEndpoint.from_triples(
            f"addresses{shard}", triples, region=region,
        ))
    for shard, region in enumerate(_EMAIL_REGIONS):
        triples = [
            Triple(student, UB.emailAddress,
                   Literal(f"student{i}@example.edu"))
            for i, student in enumerate(students)
            if i % len(_EMAIL_REGIONS) == shard
        ]
        triples.extend(
            Triple(
                IRI(f"http://people.example.org/s{shard}/Person{n}"),
                UB.emailAddress,
                Literal(f"noise{n}@example.org"),
            )
            for n in range(noise_emails // len(_EMAIL_REGIONS))
        )
        endpoints.append(LocalEndpoint.from_triples(
            f"emails{shard}", triples, region=region,
        ))
    return Federation(endpoints, network=AZURE_GEO)


#: the directory query: student + alma mater address + mailbox.  The
#: address subquery binds on ?u, the email subquery on ?x — disjoint
#: variables over disjoint endpoints, so the scheduler evaluates both
#: delayed subqueries in one wave.
DIRECTORY_QUERY = f"""
SELECT ?x ?u ?a ?e WHERE {{
  ?x <{RDF_TYPE.value}> <{UB.base}GraduateStudent> .
  ?x <{UB.base}undergraduateDegreeFrom> ?u .
  ?u <{UB.base}address> ?a .
  ?x <{UB.base}emailAddress> ?e .
}}
"""
