"""Section 5.1: preprocessing cost of index-based vs index-free systems."""

from repro.bench.experiments import preprocessing_costs
from repro.bench.reporting import format_table


def bench_preprocessing(benchmark, record_table):
    rows = benchmark.pedantic(preprocessing_costs, rounds=1, iterations=1)
    record_table(format_table(
        rows, ["benchmark", "system", "preprocessing_s"],
        title="Preprocessing cost (Section 5.1)",
    ))
    cost = {(r["benchmark"], r["system"]): r["preprocessing_s"] for r in rows}
    # index-free systems pay nothing; SPLENDID pays proportionally to size
    assert cost[("QFed", "Lusail")] == 0.0
    assert cost[("QFed", "FedX")] == 0.0
    assert cost[("QFed", "SPLENDID")] > 0.0
    assert cost[("LargeRDFBench", "SPLENDID")] > cost[("QFed", "SPLENDID")]

