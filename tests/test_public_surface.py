"""The knob budget and the row-order contract of the one store / one
evaluator.

``src/`` used to keep every superseded storage and evaluation path behind
an ablation knob (``use_columnar``, ``shards``, ``use_dictionary``,
``use_planner``, ``vectorized_joins``).  They are gone; the signatures
below are pinned so one cannot come back without a diff to this file.

Row *order* used to be pinned only by mode-vs-mode identity tests.  With
one mode left, it is pinned by digests of LUBM Q1–Q4 taken at the commit
that still had the other modes (``b0fdb09``).
"""

import hashlib
import inspect

import pytest

from repro.core import LusailEngine
from repro.datasets.lubm import LUBM_QUERIES, LubmGenerator
from repro.endpoint import LocalEndpoint
from repro.federation import Federation
from repro.sparql import Evaluator, parse_query
from repro.store import TripleStore


def _parameters(function):
    return [
        name
        for name in inspect.signature(function).parameters
        if name not in ("self", "cls")
    ]


@pytest.mark.parametrize("function,expected", [
    (TripleStore.__init__, ["triples"]),
    (Evaluator.__init__, ["store", "batch_size"]),
    (LocalEndpoint.from_triples, ["endpoint_id", "triples", "region", "kwargs"]),
    # from_triples forwards **kwargs here
    (LocalEndpoint.__init__, [
        "endpoint_id", "store", "region", "max_requests_per_query",
        "failure_rate", "failure_seed", "faults",
    ]),
    (LubmGenerator.build_federation, ["network", "regions"]),
    (Federation.make_context, [
        "timeout_seconds", "max_intermediate_rows", "join_threads",
        "real_time_limit", "partial_results", "deadline", "reset_windows",
    ]),
])
def test_exact_parameter_names(function, expected):
    assert _parameters(function) == expected


def test_engine_knob_budget():
    knobs = _parameters(LusailEngine.__init__)
    assert knobs[0] == "federation"
    assert len(knobs) - 1 <= 26, knobs


def _digest(result):
    h = hashlib.sha256(" ".join(v.name for v in result.variables).encode())
    for row in result.rows:
        h.update(b"\n")
        h.update("\t".join("" if c is None else c.n3() for c in row).encode())
    return h.hexdigest()[:16], len(result.rows)


#: query -> (digest, rows) of the federated answer, then of each
#: endpoint's own evaluation, all in emitted order
_GOLDEN = {
    "Q1": [("e3ee632ddbdb91ca", 30), ("eca940c21a3124f3", 16), ("46be51354b0ed2db", 14)],
    "Q2": [("007114d4da3fac4e", 16), ("6d05e493a492f18b", 8), ("61b98e583dd91573", 8)],
    "Q3": [("84a34ddfa5c10c32", 26), ("421f0b43085e1630", 16), ("c62319ac22ac501c", 10)],
    "Q4": [("e8fe3ed0a5cec21d", 48), ("c89f752dd6ab7deb", 16), ("1467ca0f89f38dcc", 16)],
}


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_lubm_rows_in_golden_order(name):
    federation = LubmGenerator(universities=2).build_federation()
    outcome = LusailEngine(federation).execute(LUBM_QUERIES[name])
    assert outcome.status == "OK"
    query = parse_query(LUBM_QUERIES[name])
    observed = [_digest(outcome.result)] + [
        _digest(Evaluator(federation.endpoint(endpoint_id).store).select(query))
        for endpoint_id in federation.endpoint_ids
    ]
    assert observed == _GOLDEN[name]
