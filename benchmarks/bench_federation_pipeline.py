"""The pipelined Elastic Request Handler on the LUBM figure queries and
the delayed-subquery-heavy directory workload.

Shape asserted: the directory workload — two bound VALUES subqueries on
disjoint variables over disjoint registries — keeps both subqueries
delayed and dispatches them in one overlapped wave, visible as absolute
floors on the scheduler counters (in-flight high water, submission
waves).  The payload is also written to ``BENCH_federation.json`` at
the repo root.

Run standalone (no pytest) with
``python benchmarks/bench_federation_pipeline.py``; ``--check`` runs the
<30 s smoke mode with smaller federations.
"""

from repro.bench.federation_bench import (
    MAX_DIRECTORY_SCHEDULER_WAVES,
    MIN_DIRECTORY_INFLIGHT_HIGH_WATER,
    check,
    format_report,
    run_federation,
    write_results,
)


def bench_federation_pipeline(benchmark, record_table):
    payload = benchmark.pedantic(run_federation, rounds=1, iterations=1)
    record_table(format_report(payload))
    write_results(payload)
    directory = next(
        row for row in payload["queries"] if row["query"] == "directory"
    )
    assert directory["delayed_subqueries"] >= 2
    counters = directory["pipelined"]
    assert counters["inflight_high_water"] >= MIN_DIRECTORY_INFLIGHT_HIGH_WATER
    assert counters["scheduler_waves"] <= MAX_DIRECTORY_SCHEDULER_WAVES


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="fast smoke mode: smaller federations, same shape assertions",
    )
    parser.add_argument("--output", default=None, help="where to write the JSON")
    args = parser.parse_args(argv)
    payload = check() if args.check else run_federation()
    print(format_report(payload))
    target = write_results(payload, args.output)
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
