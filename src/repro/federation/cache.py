"""Caches for source selection and locality checks.

The paper: "Lusail caches the results of both the source selection phase
and the check queries" (Section 2).  Cache keys canonicalize variable
names so structurally identical patterns from different queries hit.

Every entry additionally keys by the endpoint store's ``version``
counter (see :attr:`repro.store.triplestore.TripleStore.version`), the
same mechanism the endpoint plan cache uses: mutating a store bumps the
version, so stale ASK/COUNT/check answers become unreachable instead of
being served for data that no longer looks like that.  Callers that
predate versioning pass nothing and get the compatible ``version=0``
namespace.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional, Tuple

from ..rdf.term import Variable
from ..rdf.triple import TriplePattern


def canonical_pattern_key(pattern: TriplePattern) -> str:
    """A key invariant under variable renaming."""
    names: Dict[Variable, str] = {}
    parts = []
    for term in pattern.as_tuple():
        if isinstance(term, Variable):
            name = names.setdefault(term, f"?v{len(names)}")
            parts.append(name)
        else:
            parts.append(term.n3())
    return " ".join(parts)


def check_signature(
    pattern_i: TriplePattern,
    pattern_j: TriplePattern,
    type_constraint: Optional[TriplePattern],
) -> str:
    """Key of one GJV check: the ordered pattern pair (plus the type
    constraint narrowing it), invariant under variable renaming."""
    parts = [canonical_pattern_key(pattern_i), canonical_pattern_key(pattern_j)]
    if type_constraint is not None:
        parts.append(canonical_pattern_key(type_constraint))
    return " | ".join(parts)


class ProbeCache:
    """What one endpoint answered one analysis probe, at one store version.

    Key: ``(endpoint id, store version, canonical probe key)``.  The
    engine keeps three instances, one per probe kind: ASK answers keyed
    by :func:`canonical_pattern_key` (source selection), GJV check
    outcomes keyed by :func:`check_signature` (``True`` = the endpoint
    has witnesses making the variable global for that pair), and COUNT
    results keyed by the cardinality estimator's pattern-plus-filters
    key (the Fig. 12(b,c) cache knob).  Because keys are canonical,
    structurally identical probes from *different queries* hit.

    Engine-lifetime and shared across concurrent queries (the serving
    layer); the lock keeps the hit/miss counters exact under threads.
    """

    def __init__(self):
        self._entries: Dict[Tuple[str, int, str], Any] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, endpoint_id: str, key: str, version: int = 0) -> Optional[Any]:
        with self._lock:
            value = self._entries.get((endpoint_id, version, key))
            if value is None:
                self.misses += 1
            else:
                self.hits += 1
            return value

    def put(self, endpoint_id: str, key: str, value: Any, version: int = 0) -> None:
        with self._lock:
            self._entries[(endpoint_id, version, key)] = value

    def contains(self, endpoint_id: str, key: str, version: int = 0) -> bool:
        """Membership without touching the hit/miss counters."""
        return (endpoint_id, version, key) in self._entries

    def __len__(self) -> int:
        return len(self._entries)
