"""Store-level statistics snapshots.

These summaries are what an *index-based* federated system (SPLENDID,
HiBISCuS) precomputes in its preprocessing phase.  Index-free systems
(Lusail, FedX) never touch them; they are built here so that the
baselines' preprocessing cost and pruning behaviour can be reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet

from ..rdf.namespace import RDF_TYPE
from ..rdf.term import GroundTerm, IRI, Variable
from ..rdf.triple import TriplePattern
from .triplestore import TripleStore


@dataclass(frozen=True)
class PredicateStats:
    """VOID-style per-predicate statistics."""

    triples: int
    distinct_subjects: int
    distinct_objects: int


@dataclass
class VoidDescription:
    """A VOID-like dataset description, as used by SPLENDID.

    ``predicate_stats`` drives cardinality estimation and predicate-based
    source selection; ``classes`` drives ``rdf:type``-based selection.
    """

    total_triples: int = 0
    predicate_stats: Dict[GroundTerm, PredicateStats] = field(default_factory=dict)
    classes: Dict[GroundTerm, int] = field(default_factory=dict)

    @classmethod
    def from_store(cls, store: TripleStore) -> "VoidDescription":
        description = cls(total_triples=len(store))
        for predicate in store.predicates():
            description.predicate_stats[predicate] = PredicateStats(
                triples=store.predicate_count(predicate),
                distinct_subjects=store.distinct_subject_count(predicate),
                distinct_objects=store.distinct_object_count(predicate),
            )
        type_pattern = TriplePattern(Variable("s"), RDF_TYPE, Variable("c"))
        for _s, _p, cls_term in store.match_terms(type_pattern):
            description.classes[cls_term] = description.classes.get(cls_term, 0) + 1
        return description


@dataclass
class AuthoritySummary:
    """HiBISCuS-style capability summary.

    For each predicate, the sets of URI *authorities* (scheme+host) of its
    subjects and objects.  HiBISCuS prunes an endpoint for a join when the
    authority sets of the joined positions cannot intersect.
    """

    subject_authorities: Dict[GroundTerm, FrozenSet[str]] = field(default_factory=dict)
    object_authorities: Dict[GroundTerm, FrozenSet[str]] = field(default_factory=dict)

    @classmethod
    def from_store(cls, store: TripleStore) -> "AuthoritySummary":
        summary = cls()
        for predicate in store.predicates():
            subject_auths = set()
            object_auths = set()
            pattern = TriplePattern(Variable("s"), predicate, Variable("o"))
            for subject, _p, obj in store.match_terms(pattern):
                if isinstance(subject, IRI):
                    subject_auths.add(subject.authority)
                if isinstance(obj, IRI):
                    object_auths.add(obj.authority)
            summary.subject_authorities[predicate] = frozenset(subject_auths)
            summary.object_authorities[predicate] = frozenset(object_auths)
        return summary
