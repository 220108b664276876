"""Replay one cold round's endpoint requests on the endpoints' evaluators.

Builds a LUBM federation of the given size, answers LUBM Q1-Q4 each on a
fresh engine (so every ASK, Figure-5 locality check and COUNT probe is
paid), and records every request text the engine sends to every
endpoint.  Each text is then evaluated again on a fresh evaluator over
its endpoint's store, ``--repeats`` times, and the script prints the
endpoint milliseconds per request shape (best repeat) and one digest of
every answer, rows *and* order.

Run it in two checkouts at one size: equal digests mean both answered
every request identically, and the shape table says where the endpoint
time went.  ``--workload`` takes the size, the network model and the
query texts from a ledger workload's stream instead (``--rounds``
rounds of it, drawn from ``--seed``).  Not a test; standard library,
``src/`` and ``ledger/workloads.py`` only::

    PYTHONPATH=src python tests/request_replay.py --universities 16 \\
        --departments 15 --graduates 100 --repeats 3
    PYTHONPATH=src python tests/request_replay.py --workload cold_analysis \\
        --seed 3 --rounds 2 --repeats 5
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

from repro.core import LusailEngine
from repro.datasets.lubm import LUBM_QUERIES, LubmGenerator
from repro.sparql import Evaluator, parse_query

SHAPES = ("ask", "check", "count", "select", "values")


def request_shape(text: str) -> str:
    """Which of the engine's five request kinds a SPARQL text is."""
    if text.lstrip()[:8].upper().startswith("ASK"):
        return "ask"
    if "NOT EXISTS" in text:
        return "check"  # the Figure-5 locality check
    if "COUNT(" in text:
        return "count"
    if "VALUES" in text:
        return "values"
    return "select"


def capture(federation, queries: List[str]) -> List[Tuple[str, str]]:
    """``(endpoint id, request text)`` for every request a fresh engine
    per query sends, sorted so thread timing cannot reorder them."""
    sent: List[Tuple[str, str]] = []
    originals = {}
    for endpoint_id in federation.endpoint_ids:
        endpoint = federation.endpoint(endpoint_id)
        originals[endpoint_id] = endpoint.execute

        def recording(text, *args, _id=endpoint_id, _run=endpoint.execute, **kwargs):
            sent.append((_id, text))
            return _run(text, *args, **kwargs)

        endpoint.execute = recording
    try:
        for text in queries:
            outcome = LusailEngine(federation).execute(text)
            if outcome.status != "OK":
                raise SystemExit(f"query failed: {outcome.status} {outcome.error}")
    finally:
        for endpoint_id, execute in originals.items():
            federation.endpoint(endpoint_id).execute = execute
    return sorted(sent)


def _answer_text(answer) -> str:
    if isinstance(answer, bool):
        return "true" if answer else "false"
    lines = [" ".join(v.name for v in answer.variables)]
    lines += [
        "\t".join("" if cell is None else cell.n3() for cell in row)
        for row in answer.rows
    ]
    return "\n".join(lines)


def replay(federation, sent, repeats: int):
    """Best-of-``repeats`` seconds per shape, request counts per shape,
    and the digest of every answer in ``sent`` order."""
    parsed = [(endpoint_id, text, parse_query(text)) for endpoint_id, text in sent]
    best: Dict[str, float] = {}
    digest = ""
    for _ in range(max(1, repeats)):
        evaluators = {
            endpoint_id: Evaluator(federation.endpoint(endpoint_id).store)
            for endpoint_id in federation.endpoint_ids
        }
        seconds: Dict[str, float] = defaultdict(float)
        answers = hashlib.sha256()
        for endpoint_id, text, query in parsed:
            evaluator = evaluators[endpoint_id]
            started = time.perf_counter()
            answer = evaluator.evaluate(query)
            seconds[request_shape(text)] += time.perf_counter() - started
            answers.update(f"{endpoint_id}\n{text}\n{_answer_text(answer)}\n".encode())
        digest = answers.hexdigest()[:16]
        for shape, spent in seconds.items():
            best[shape] = min(best.get(shape, spent), spent)
    counts: Dict[str, int] = defaultdict(int)
    for _, text in sent:
        counts[request_shape(text)] += 1
    return best, counts, digest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--universities", type=int, default=8)
    parser.add_argument("--departments", type=int, default=4)
    parser.add_argument("--graduates", type=int, default=40)
    parser.add_argument("--queries", default="Q1,Q2,Q3,Q4")
    parser.add_argument("--workload", help="a ledger workload name")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    if args.workload:
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "ledger"))
        import workloads

        params = workloads.WORKLOADS[args.workload]
        size = (params.universities, params.departments, params.graduates)
        stream = workloads.QueryStream(args.workload, params, args.seed, fixed=False)
        texts = [text for _ in range(args.rounds) for text in stream.next_round()]
        federation = workloads.generator(params).build_federation(
            network=workloads.AZURE_GEO
        )
        label = f"{args.rounds} {args.workload} rounds, seed {args.seed}"
    else:
        size = (args.universities, args.departments, args.graduates)
        texts = [LUBM_QUERIES[q] for q in args.queries.split(",")]
        federation = LubmGenerator(
            universities=size[0],
            departments_per_university=size[1],
            graduate_students_per_department=size[2],
        ).build_federation()
        label = args.queries
    triples = sum(len(federation.endpoint(e).store) for e in federation.endpoint_ids)
    sent = capture(federation, texts)
    best, counts, digest = replay(federation, sent, args.repeats)
    print(
        "LUBM {} x {} x {}: {} triples, {} queries ({}), {} requests".format(
            *size, triples, len(texts), label, len(sent)
        )
    )
    print(f"{'shape':<8}{'requests':>10}{'ms':>12}{'ms/request':>12}{'ms/query':>10}")
    for shape in SHAPES:
        if counts.get(shape):
            ms = best[shape] * 1000
            print(
                f"{shape:<8}{counts[shape]:>10}{ms:>12.1f}"
                f"{ms / counts[shape]:>12.3f}{ms / len(texts):>10.2f}"
            )
    total = sum(best.values()) * 1000
    probes = (best.get("check", 0.0) + best.get("count", 0.0)) * 1000
    print(f"{'total':<8}{len(sent):>10}{total:>12.1f}")
    print(f"check + count ms: {probes:.1f}")
    print(f"answer digest: {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
