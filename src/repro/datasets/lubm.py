"""LUBM-style synthetic university data (Guo, Pan & Heflin 2005).

The paper generates 256 universities (~138k triples each) and places each
in its own endpoint, with interlinks through degrees: some professors and
graduate students earned earlier degrees at *other* universities.  This
generator reproduces that structure at a configurable scale: departments,
professors (full/associate/assistant), courses, graduate and
undergraduate students, advisor / teacherOf / takesCourse edges, and
cross-university ``*DegreeFrom`` interlinks.

Benchmark queries follow the paper's Section 5.1 naming: Q1/Q2/Q3
correspond to LUBM Q2/Q9/Q13 and Q4 is the Q9 variant that additionally
fetches the advisor's alma-mater address (the running example Q_a).
"""

from __future__ import annotations

import random
from typing import Dict, List

from ..endpoint.local import LocalEndpoint
from ..endpoint.network import LOCAL_CLUSTER, NetworkModel, Region
from ..federation.federation import Federation
from ..rdf.namespace import RDF_TYPE, UB
from ..rdf.term import IRI, Literal
from ..rdf.triple import Triple

UB_PREFIX = UB.base


def university_iri(index: int) -> IRI:
    return IRI(f"http://www.university{index}.edu/University{index}")


class LubmGenerator:
    """Deterministic generator for one federation of universities."""

    def __init__(
        self,
        universities: int = 2,
        departments_per_university: int = 2,
        professors_per_department: int = 4,
        courses_per_department: int = 6,
        graduate_students_per_department: int = 12,
        undergraduate_students_per_department: int = 18,
        interlink_ratio: float = 0.3,
        seed: int = 7,
    ):
        if universities < 1:
            raise ValueError("need at least one university")
        if courses_per_department < professors_per_department:
            raise ValueError(
                "need at least as many courses as professors per department "
                "(every professor teaches, as in LUBM)"
            )
        self.universities = universities
        self.departments = departments_per_university
        self.professors = professors_per_department
        self.courses = courses_per_department
        self.graduate_students = graduate_students_per_department
        self.undergraduates = undergraduate_students_per_department
        self.interlink_ratio = interlink_ratio
        self.seed = seed

    # ------------------------------------------------------------------

    def generate_university(self, index: int) -> List[Triple]:
        rng = random.Random(f"{self.seed}:{index}")
        base = f"http://www.university{index}.edu"
        university = university_iri(index)
        triples: List[Triple] = [
            Triple(university, RDF_TYPE, UB.University),
            Triple(university, UB.name, Literal(f"University{index}")),
            Triple(
                university, UB.address,
                Literal(f"{100 + index} College Road, City{index}"),
            ),
        ]

        def other_university() -> IRI:
            if self.universities == 1:
                return university
            choice = rng.randrange(self.universities - 1)
            if choice >= index:
                choice += 1
            return university_iri(choice)

        def degree_university() -> IRI:
            if rng.random() < self.interlink_ratio:
                return other_university()
            return university

        for dept in range(self.departments):
            department = IRI(f"{base}/Department{dept}")
            triples.append(Triple(department, RDF_TYPE, UB.Department))
            triples.append(Triple(department, UB.subOrganizationOf, university))

            professors: List[IRI] = []
            courses: List[IRI] = []
            graduate_courses: List[IRI] = []

            for c in range(self.courses):
                course = IRI(f"{base}/Department{dept}/Course{c}")
                graduate = c % 2 == 0
                courses.append(course)
                if graduate:
                    graduate_courses.append(course)
                triples.append(Triple(
                    course, RDF_TYPE,
                    UB.GraduateCourse if graduate else UB.Course,
                ))
                triples.append(Triple(course, UB.name, Literal(f"Course{dept}-{c}")))

            ranks = [UB.FullProfessor, UB.AssociateProfessor, UB.AssistantProfessor]
            for p in range(self.professors):
                professor = IRI(f"{base}/Department{dept}/Professor{p}")
                professors.append(professor)
                rank = ranks[p % len(ranks)]
                triples.append(Triple(professor, RDF_TYPE, rank))
                triples.append(Triple(professor, UB.worksFor, department))
                triples.append(Triple(
                    professor, UB.name, Literal(f"Professor{dept}-{p}")
                ))
                triples.append(Triple(
                    professor, UB.emailAddress,
                    Literal(f"prof{dept}.{p}@university{index}.edu"),
                ))
                triples.append(Triple(
                    professor, UB.PhDDegreeFrom, degree_university()
                ))

            # Every course is taught (as in LUBM), round-robin over the
            # department's professors; every professor teaches something.
            for c, course in enumerate(courses):
                triples.append(Triple(
                    professors[c % len(professors)], UB.teacherOf, course
                ))

            for s in range(self.graduate_students):
                student = IRI(f"{base}/Department{dept}/GraduateStudent{s}")
                triples.append(Triple(student, RDF_TYPE, UB.GraduateStudent))
                triples.append(Triple(student, UB.memberOf, department))
                triples.append(Triple(
                    student, UB.name, Literal(f"GradStudent{dept}-{s}")
                ))
                advisor = professors[s % len(professors)]
                triples.append(Triple(student, UB.advisor, advisor))
                triples.append(Triple(
                    student, UB.undergraduateDegreeFrom, degree_university()
                ))
                # the student takes 2 courses; one is taught by the advisor
                advisor_course = courses[
                    professors.index(advisor) % len(courses)
                ]
                triples.append(Triple(student, UB.takesCourse, advisor_course))
                second = graduate_courses[s % len(graduate_courses)]
                if second != advisor_course:
                    triples.append(Triple(student, UB.takesCourse, second))

            for s in range(self.undergraduates):
                student = IRI(f"{base}/Department{dept}/UndergradStudent{s}")
                triples.append(Triple(student, RDF_TYPE, UB.UndergraduateStudent))
                triples.append(Triple(student, UB.memberOf, department))
                triples.append(Triple(
                    student, UB.takesCourse, courses[s % len(courses)]
                ))
        return triples

    # ------------------------------------------------------------------

    def build_federation(
        self,
        network: NetworkModel = LOCAL_CLUSTER,
        regions: Dict[int, Region] = None,
    ) -> Federation:
        """One endpoint per university."""
        endpoints = []
        for index in range(self.universities):
            region = (regions or {}).get(index, Region("local"))
            endpoints.append(LocalEndpoint.from_triples(
                f"university{index}",
                self.generate_university(index),
                region=region,
            ))
        return Federation(endpoints, network=network)


# ----------------------------------------------------------------------
# Benchmark queries (paper Section 5.1 naming)
# ----------------------------------------------------------------------

RDF_TYPE_IRI = RDF_TYPE.value

#: Q1 = LUBM Q2: graduate students with their department and university,
#: where the student got the undergraduate degree from that university.
QUERY_Q1 = f"""
SELECT ?x ?y ?z WHERE {{
  ?x <{RDF_TYPE_IRI}> <{UB_PREFIX}GraduateStudent> .
  ?y <{RDF_TYPE_IRI}> <{UB_PREFIX}University> .
  ?z <{RDF_TYPE_IRI}> <{UB_PREFIX}Department> .
  ?x <{UB_PREFIX}memberOf> ?z .
  ?z <{UB_PREFIX}subOrganizationOf> ?y .
  ?x <{UB_PREFIX}undergraduateDegreeFrom> ?y .
}}
"""

#: Q2 = LUBM Q9: the student/advisor/course triangle.
QUERY_Q2 = f"""
SELECT ?x ?y ?z WHERE {{
  ?x <{RDF_TYPE_IRI}> <{UB_PREFIX}GraduateStudent> .
  ?y <{RDF_TYPE_IRI}> <{UB_PREFIX}FullProfessor> .
  ?z <{RDF_TYPE_IRI}> <{UB_PREFIX}GraduateCourse> .
  ?x <{UB_PREFIX}advisor> ?y .
  ?y <{UB_PREFIX}teacherOf> ?z .
  ?x <{UB_PREFIX}takesCourse> ?z .
}}
"""

#: Q3 = LUBM Q13: people with a degree from University0.
QUERY_Q3 = f"""
SELECT ?x WHERE {{
  ?x <{RDF_TYPE_IRI}> <{UB_PREFIX}GraduateStudent> .
  ?x <{UB_PREFIX}undergraduateDegreeFrom>
     <http://www.university0.edu/University0> .
}}
"""

#: Q4 = the paper's Q9 variant fetching remote-university info (Q_a).
QUERY_Q4 = f"""
SELECT ?x ?y ?u ?a WHERE {{
  ?x <{RDF_TYPE_IRI}> <{UB_PREFIX}GraduateStudent> .
  ?x <{UB_PREFIX}advisor> ?y .
  ?y <{UB_PREFIX}teacherOf> ?z .
  ?x <{UB_PREFIX}takesCourse> ?z .
  ?y <{UB_PREFIX}PhDDegreeFrom> ?u .
  ?u <{UB_PREFIX}address> ?a .
}}
"""

LUBM_QUERIES: Dict[str, str] = {
    "Q1": QUERY_Q1,
    "Q2": QUERY_Q2,
    "Q3": QUERY_Q3,
    "Q4": QUERY_Q4,
}
