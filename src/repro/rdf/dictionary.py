"""Dictionary encoding of ground terms: the interned-ID layer.

The endpoint's hot kernels — the store's SPO/POS/OSP index walks and
the batched BGP executor — hash and compare RDF terms.  Terms cache their hashes, but
every probe still pays a Python-level ``__hash__``/``__eq__`` dispatch
per cell.  A :class:`TermDictionary` interns each distinct
:class:`~repro.rdf.term.GroundTerm` once and hands out a dense ``int``
ID, so the kernels run on machine integers (C-level hashing and
equality) and every term's lexical payload is stored exactly once.

IDs are assigned in intern order and never reused or remapped, which
gives two properties the engine relies on:

- **deterministic decode ordering** — ``decode`` is a list index, and
  two stores loaded with the same triple sequence assign the same IDs,
  so ID-native execution enumerates matches in exactly the order the
  term-native code would (independent of ``PYTHONHASHSEED``);
- **append-only stability** — compiled BGP plans may cache encoded
  query constants: interning new terms (or removing triples) never
  invalidates an existing ID.

``terms_interned`` / ``hits`` make the encode boundary observable.
Endpoint stores intern at load only — evaluation goes through
:meth:`TermDictionary.lookup`.  The federator's global joins do not use a
dictionary: they join terms directly (:mod:`repro.core.joins`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from .term import GroundTerm

TermId = int


class TermDictionary:
    """Bidirectional intern table mapping ground terms to dense int IDs."""

    __slots__ = ("_ids", "_terms", "terms_interned", "hits")

    def __init__(self) -> None:
        self._ids: Dict[GroundTerm, TermId] = {}
        self._terms: List[GroundTerm] = []
        #: terms interned so far (== len(self)); monotone counter kept
        #: separate so per-request deltas survive future eviction schemes
        self.terms_interned: int = 0
        #: encode/lookup calls answered from the table
        self.hits: int = 0

    # -- encode ---------------------------------------------------------

    def encode(self, term: GroundTerm) -> TermId:
        """Intern ``term`` (idempotent) and return its dense ID."""
        tid = self._ids.get(term)
        if tid is not None:
            self.hits += 1
            return tid
        tid = len(self._terms)
        self._ids[term] = tid
        self._terms.append(term)
        self.terms_interned += 1
        return tid

    def encode_triple(
        self, s: GroundTerm, p: GroundTerm, o: GroundTerm
    ) -> Tuple[TermId, TermId, TermId]:
        return (self.encode(s), self.encode(p), self.encode(o))

    def lookup(self, term: GroundTerm) -> Optional[TermId]:
        """The ID of an already-interned term, or ``None`` — never interns.

        Read paths (counts, membership, statistics) use this so that
        querying for unknown terms does not grow the table.
        """
        tid = self._ids.get(term)
        if tid is not None:
            self.hits += 1
        return tid

    # -- decode ---------------------------------------------------------

    def decode(self, tid: TermId) -> GroundTerm:
        return self._terms[tid]

    def decode_many(self, ids: Iterable[TermId]) -> List[GroundTerm]:
        terms = self._terms
        return [terms[tid] for tid in ids]

    # -- introspection --------------------------------------------------

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, term: GroundTerm) -> bool:
        return term in self._ids

    def __repr__(self) -> str:
        return f"TermDictionary({len(self._terms)} terms)"
