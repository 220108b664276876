"""An in-memory triple store with three-way nested-hash indexes.

The store keeps SPO, POS, and OSP indexes so that every triple-pattern
shape resolves with at most one dictionary walk plus iteration over the
matching leaves.  Per-predicate counts (and per-predicate distinct
subject counts) are maintained incrementally — these are exactly the
"lightweight per-triple statistics" the paper's cost model relies on
(Section 4.1), and what the compile-once BGP planner orders patterns by.

**Dictionary encoding.** Every ground term is interned into a
:class:`~repro.rdf.dictionary.TermDictionary` at :meth:`add` and the
three indexes are keyed by dense ``int`` IDs, so index walks, batch
probes, and membership tests hash and compare machine integers instead
of term objects.  Terms are decoded back only at the public term-level
surfaces (:meth:`match`, :meth:`match_terms`, :meth:`triples`, the
statistics accessors).  All index levels are insertion-ordered dicts, so
enumeration order is a function of the load order alone.  Read paths
resolve ground terms with ``lookup``, never ``encode``: asking about a
term the data never mentions answers empty and leaves the dictionary as
it was.

Two lookup surfaces exist:

- :meth:`match` / :meth:`match_terms` — classic single-pattern matching;
- :meth:`extend_id_rows` — the ID-native batch kernel: vectors of
  slot-mapped integer rows go in and come out, rows agreeing on the
  pattern's bound slots share one index walk (build/probe), with no term
  objects, binding dicts, or :class:`Triple` allocations anywhere in the
  loop.  This is what :class:`~repro.sparql.plan.BGPPlan` drives.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..rdf.dictionary import TermDictionary
from ..rdf.term import GroundTerm, Variable
from ..rdf.triple import Triple, TriplePattern

#: all three index levels are dicts keyed by dense term IDs, so iteration
#: order is insertion order.
_Index = Dict[int, Dict[int, Dict[int, None]]]
_Terms = Tuple[GroundTerm, GroundTerm, GroundTerm]

#: returned by ``_key`` for a ground term the dictionary has never seen —
#: distinct from ``None``, which the raw matchers treat as a wildcard.
_ABSENT = object()


def _index_add(index: _Index, a, b, c) -> None:
    index.setdefault(a, {}).setdefault(b, {})[c] = None


def _index_remove(index: _Index, a, b, c) -> None:
    level_b = index.get(a)
    if level_b is None:
        return
    level_c = level_b.get(b)
    if level_c is None:
        return
    level_c.pop(c, None)
    if not level_c:
        del level_b[b]
        if not level_b:
            del index[a]


class TripleStore:
    """Indexed set of ground triples with pattern matching and counting."""

    def __init__(self, triples: Optional[Iterable[Triple]] = None):
        #: the intern table every index key comes from
        self.dictionary = TermDictionary()
        self._spo: _Index = {}
        self._pos: _Index = {}
        self._osp: _Index = {}
        self._size = 0
        self._predicate_counts: Dict[int, int] = {}
        #: per (predicate, subject) triple counts — len() per predicate
        #: gives distinct subjects in O(1)
        self._pred_subjects: Dict[int, Dict[int, int]] = {}
        #: bumped on every successful add/remove; cached BGP plans carry
        #: the version their statistics reflect
        self._version = 0
        if triples is not None:
            self.add_all(triples)

    # ------------------------------------------------------------------
    # Encode/decode boundary
    # ------------------------------------------------------------------

    def _key(self, term: GroundTerm):
        """Index key for a ground term; ``_ABSENT`` when it cannot match."""
        tid = self.dictionary.lookup(term)
        return _ABSENT if tid is None else tid

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add(self, triple: Triple) -> bool:
        """Add a triple; return ``True`` if it was not already present."""
        encode = self.dictionary.encode
        s = encode(triple.subject)
        p = encode(triple.predicate)
        o = encode(triple.object)
        existing = self._spo.get(s, {}).get(p)
        if existing is not None and o in existing:
            return False
        _index_add(self._spo, s, p, o)
        _index_add(self._pos, p, o, s)
        _index_add(self._osp, o, s, p)
        self._size += 1
        self._version += 1
        self._predicate_counts[p] = self._predicate_counts.get(p, 0) + 1
        by_subject = self._pred_subjects.setdefault(p, {})
        by_subject[s] = by_subject.get(s, 0) + 1
        return True

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Add many triples; return the number actually inserted."""
        inserted = 0
        for triple in triples:
            if self.add(triple):
                inserted += 1
        return inserted

    def remove(self, triple: Triple) -> bool:
        """Remove a triple; return ``True`` if it was present.

        The dictionary entry itself is never evicted — IDs are stable
        for the lifetime of the store, so cached plans survive removals
        (the version bump still invalidates their statistics).
        """
        s = self._key(triple.subject)
        p = self._key(triple.predicate)
        o = self._key(triple.object)
        if s is _ABSENT or p is _ABSENT or o is _ABSENT:
            return False
        existing = self._spo.get(s, {}).get(p)
        if existing is None or o not in existing:
            return False
        _index_remove(self._spo, s, p, o)
        _index_remove(self._pos, p, o, s)
        _index_remove(self._osp, o, s, p)
        self._size -= 1
        self._version += 1
        remaining = self._predicate_counts[p] - 1
        if remaining:
            self._predicate_counts[p] = remaining
        else:
            del self._predicate_counts[p]
        by_subject = self._pred_subjects[p]
        left = by_subject[s] - 1
        if left:
            by_subject[s] = left
        else:
            del by_subject[s]
            if not by_subject:
                del self._pred_subjects[p]
        return True

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    @property
    def version(self) -> int:
        """Mutation counter (plan-cache invalidation token)."""
        return self._version

    def __len__(self) -> int:
        return self._size

    def __contains__(self, triple: Triple) -> bool:
        s = self._key(triple.subject)
        if s is _ABSENT:
            return False
        p = self._key(triple.predicate)
        o = self._key(triple.object)
        if p is _ABSENT or o is _ABSENT:
            return False
        return self._has_match(s, p, o)

    def _has_match(self, s, p, o) -> bool:
        """Whether any triple matches raw keys (``None`` positions are
        wildcards): at most three dict lookups, no walk.  Empty index
        levels are deleted on removal, so a present level is non-empty."""
        if s is not None:
            by_predicate = self._spo.get(s)
            if by_predicate is None:
                return False
            if p is not None:
                objects = by_predicate.get(p)
                return objects is not None and (o is None or o in objects)
            return o is None or s in self._osp.get(o, ())
        if p is not None:
            by_object = self._pos.get(p)
            return by_object is not None and (o is None or o in by_object)
        return bool(self._spo) if o is None else o in self._osp

    def __iter__(self) -> Iterator[Triple]:
        return self.triples()

    def triples(self) -> Iterator[Triple]:
        dec = self.dictionary.decode
        for s, by_predicate in self._spo.items():
            subject = dec(s)
            for p, objects in by_predicate.items():
                predicate = dec(p)
                for o in objects:
                    yield Triple(subject, predicate, dec(o))

    def match(self, pattern: TriplePattern) -> Iterator[Triple]:
        """Yield all triples matching the pattern.

        Terms that are :class:`Variable` act as wildcards; a variable used
        in two positions additionally forces those positions to be equal.
        """
        for terms in self.match_terms(pattern):
            yield Triple(*terms)

    def match_terms(self, pattern: TriplePattern) -> Iterator[_Terms]:
        """Like :meth:`match` but yields raw ``(s, p, o)`` term tuples,
        skipping the :class:`Triple` allocation.  This is the term-level
        compatibility surface: the walk runs on IDs and each match is
        decoded exactly here."""
        s = None if isinstance(pattern.subject, Variable) else self._key(pattern.subject)
        p = None if isinstance(pattern.predicate, Variable) else self._key(pattern.predicate)
        o = None if isinstance(pattern.object, Variable) else self._key(pattern.object)
        if s is _ABSENT or p is _ABSENT or o is _ABSENT:
            return iter(())
        stream = self._match_raw(s, p, o)
        constraints = _equality_constraints(pattern)
        if constraints:
            # Keys are equal iff the terms are, so constraints apply pre-decode.
            stream = (
                keys
                for keys in stream
                if all(keys[i] == keys[j] for i, j in constraints)
            )
        dec = self.dictionary.decode
        return ((dec(a), dec(b), dec(c)) for a, b, c in stream)

    def _match_raw(self, s, p, o) -> Iterator[Tuple[int, int, int]]:
        """Index walk over raw keys; ``None`` positions are wildcards."""
        if s is not None:
            by_predicate = self._spo.get(s)
            if by_predicate is None:
                return
            if p is not None:
                objects = by_predicate.get(p)
                if objects is None:
                    return
                if o is not None:
                    if o in objects:
                        yield (s, p, o)
                    return
                for obj in objects:
                    yield (s, p, obj)
                return
            if o is not None:
                predicates = self._osp.get(o, {}).get(s)
                if predicates is None:
                    return
                for pred in predicates:
                    yield (s, pred, o)
                return
            for pred, objects in by_predicate.items():
                for obj in objects:
                    yield (s, pred, obj)
            return
        if p is not None:
            by_object = self._pos.get(p)
            if by_object is None:
                return
            if o is not None:
                subjects = by_object.get(o)
                if subjects is None:
                    return
                for subj in subjects:
                    yield (subj, p, o)
                return
            for obj, subjects in by_object.items():
                for subj in subjects:
                    yield (subj, p, obj)
            return
        if o is not None:
            by_subject = self._osp.get(o)
            if by_subject is None:
                return
            for subj, predicates in by_subject.items():
                for pred in predicates:
                    yield (subj, pred, o)
            return
        for s_, by_predicate in self._spo.items():
            for p_, objects in by_predicate.items():
                for o_ in objects:
                    yield (s_, p_, o_)

    # ------------------------------------------------------------------
    # Batch matching (the planned executor's path)
    # ------------------------------------------------------------------

    def extend_id_rows(
        self,
        stage: tuple,
        rows: Iterable[List[Optional[int]]],
    ) -> Iterator[List[Optional[int]]]:
        """ID-native batch kernel: extend slot-mapped integer rows.

        ``stage`` is a compiled descriptor (see
        :attr:`~repro.sparql.plan.BGPPlan.stages`) —
        ``(consts, bound_positions, key_slots, free, checks)``:

        - ``consts``: per position, the ground term's interned ID or
          ``None`` for a variable position;
        - ``bound_positions``: ``(pos, key_index)`` pairs filling
          variable positions whose slot is bound in every input row;
        - ``key_slots``: the distinct bound slots the pattern reads —
          rows agreeing on them share one index walk (build/probe);
        - ``free``: ``(pos, slot)`` for each distinct unbound slot the
          pattern binds;
        - ``checks``: ``(pos_a, pos_b)`` equality constraints from a
          repeated free variable.

        A stage with no ``free`` slot is an *existence test*: each row
        of a group passes on once if the pattern has any match (with
        its dead variables as wildcards), else not at all.

        The contract mirrors the plan's static dataflow: every
        ``key_slots`` slot is non-``None`` in every row and every
        ``free`` slot is ``None`` — which lets all shape analysis happen
        at compile time and the per-group work here collapse to a
        3-element list copy.  Rows are lists of interned IDs; output
        rows are fresh lists (inputs never mutated); everything in the
        loop hashes machine integers — no terms, dicts, or Triples.
        """
        consts, bound_positions, key_slots, free, checks = stage
        groups: Dict[object, list]
        if not key_slots:
            # Pattern reads nothing from the rows: one shared walk.
            groups = {None: rows if isinstance(rows, list) else list(rows)}
            single_key = True
        elif len(key_slots) == 1:
            ks = key_slots[0]
            groups = {}
            for row in rows:
                key = row[ks]
                group = groups.get(key)
                if group is None:
                    groups[key] = [row]
                else:
                    group.append(row)
            single_key = True
        else:
            groups = {}
            for row in rows:
                key = tuple([row[s] for s in key_slots])
                group = groups.get(key)
                if group is None:
                    groups[key] = [row]
                else:
                    group.append(row)
            single_key = False
        for key, members in groups.items():
            query = list(consts)
            if single_key:
                for pos, _ in bound_positions:
                    query[pos] = key
            else:
                for pos, ki in bound_positions:
                    query[pos] = key[ki]
            if not free:
                if checks:
                    # a repeated dead variable: walk to the first match
                    hit = any(
                        all(t[a] == t[b] for a, b in checks)
                        for t in self._match_raw(query[0], query[1], query[2])
                    )
                else:
                    hit = self._has_match(query[0], query[1], query[2])
                if hit:
                    yield from members
                continue
            stream = self._match_raw(query[0], query[1], query[2])
            if checks:
                stream = (
                    t for t in stream
                    if all(t[a] == t[b] for a, b in checks)
                )
            if len(members) == 1:
                row = members[0]
                if len(free) == 1:
                    pos, slot = free[0]
                    for ids in stream:
                        extended = list(row)
                        extended[slot] = ids[pos]
                        yield extended
                else:
                    for ids in stream:
                        extended = list(row)
                        for pos, slot in free:
                            extended[slot] = ids[pos]
                        yield extended
            else:
                extensions = [
                    tuple([ids[pos] for pos, _ in free]) for ids in stream
                ]
                free_slots = [slot for _, slot in free]
                for row in members:
                    for extension in extensions:
                        extended = list(row)
                        for slot, value in zip(free_slots, extension):
                            extended[slot] = value
                        yield extended

    def count(self, pattern: TriplePattern) -> int:
        """Count triples matching the pattern.

        Fast paths avoid materializing matches for the common shapes used
        by the cost model (fully unbound, predicate-bound, etc.).
        """
        s_var = isinstance(pattern.subject, Variable)
        p_var = isinstance(pattern.predicate, Variable)
        o_var = isinstance(pattern.object, Variable)
        distinct_vars = len(pattern.variables())
        bound_count = 3 - (s_var + p_var + o_var)
        # Repeated variables force equality constraints; fall back to scan.
        if distinct_vars != (3 - bound_count):
            return sum(1 for _ in self.match_terms(pattern))
        if s_var and p_var and o_var:
            return self._size
        if not s_var and not p_var and not o_var:
            return 1 if Triple(pattern.subject, pattern.predicate, pattern.object) in self else 0
        if s_var and o_var:  # only predicate bound
            return self._predicate_counts.get(self._key(pattern.predicate), 0)
        if p_var and o_var:  # only subject bound
            by_predicate = self._spo.get(self._key(pattern.subject), {})
            return sum(len(objects) for objects in by_predicate.values())
        if s_var and p_var:  # only object bound
            by_subject = self._osp.get(self._key(pattern.object), {})
            return sum(len(predicates) for predicates in by_subject.values())
        if s_var:  # predicate and object bound
            return len(
                self._pos.get(self._key(pattern.predicate), {})
                .get(self._key(pattern.object), ())
            )
        if o_var:  # subject and predicate bound
            return len(
                self._spo.get(self._key(pattern.subject), {})
                .get(self._key(pattern.predicate), ())
            )
        # subject and object bound, predicate free
        return len(
            self._osp.get(self._key(pattern.object), {})
            .get(self._key(pattern.subject), ())
        )

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def _decode_keys(self, keys: Iterable[int]) -> Set[GroundTerm]:
        return set(self.dictionary.decode_many(keys))

    def predicates(self) -> Set[GroundTerm]:
        return self._decode_keys(self._predicate_counts)

    def predicate_count(self, predicate: GroundTerm) -> int:
        key = self._key(predicate)
        if key is _ABSENT:
            return 0
        return self._predicate_counts.get(key, 0)

    def subjects(self, predicate: Optional[GroundTerm] = None) -> Set[GroundTerm]:
        if predicate is None:
            return self._decode_keys(self._spo)
        key = self._key(predicate)
        if key is _ABSENT:
            return set()
        return self._decode_keys(self._pred_subjects.get(key, ()))

    def objects(self, predicate: Optional[GroundTerm] = None) -> Set[GroundTerm]:
        if predicate is None:
            return self._decode_keys(self._osp)
        key = self._key(predicate)
        if key is _ABSENT:
            return set()
        return self._decode_keys(self._pos.get(key, ()))

    def subject_predicate_count(self, subject: GroundTerm, predicate: GroundTerm) -> int:
        """Exact triple count for a ground (subject, predicate) pair, O(1)."""
        ks, kp = self._key(subject), self._key(predicate)
        if ks is _ABSENT or kp is _ABSENT:
            return 0
        return len(self._spo.get(ks, {}).get(kp, ()))

    def predicate_object_count(self, predicate: GroundTerm, object: GroundTerm) -> int:
        """Exact triple count for a ground (predicate, object) pair, O(1)."""
        kp, ko = self._key(predicate), self._key(object)
        if kp is _ABSENT or ko is _ABSENT:
            return 0
        return len(self._pos.get(kp, {}).get(ko, ()))

    def distinct_subject_count(self, predicate: GroundTerm) -> int:
        key = self._key(predicate)
        if key is _ABSENT:
            return 0
        return len(self._pred_subjects.get(key, ()))

    def distinct_object_count(self, predicate: GroundTerm) -> int:
        key = self._key(predicate)
        if key is _ABSENT:
            return 0
        return len(self._pos.get(key, ()))

    def distinct_subjects_total(self) -> int:
        return len(self._spo)

    def distinct_objects_total(self) -> int:
        return len(self._osp)

    def distinct_predicates_total(self) -> int:
        return len(self._predicate_counts)


def _equality_constraints(pattern: TriplePattern) -> List[Tuple[int, int]]:
    """Position pairs a repeated variable forces to be equal."""
    seen: Dict[Variable, int] = {}
    constraints: List[Tuple[int, int]] = []
    for index, term in enumerate(pattern.as_tuple()):
        if isinstance(term, Variable):
            first = seen.get(term)
            if first is None:
                seen[term] = index
            else:
                constraints.append((first, index))
    return constraints
