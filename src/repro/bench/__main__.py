"""CLI for the experiment harness.

Usage::

    python -m repro.bench --experiment fig9
    python -m repro.bench --experiment fig10 --scale 0.5
    python -m repro.bench --list
"""

from __future__ import annotations

import argparse
import sys

from . import experiments
from .reporting import format_runs, format_table


def _print_runs(runs, title):
    print(format_runs(runs, title, value="runtime"))
    print()
    print(format_runs(runs, title + " — requests", value="requests"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench",
        description="Reproduce the paper's tables and figures.",
    )
    parser.add_argument("--experiment", "-e", default=None)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="LargeRDFBench-mini scale factor")
    parser.add_argument("--timeout", type=float, default=3600.0,
                        help="virtual-time budget per query (seconds)")
    parser.add_argument("--list", action="store_true", help="list experiments")
    args = parser.parse_args(argv)

    registry = {
        "table1": lambda: print(format_table(
            experiments.table1_datasets(lrb_scale=args.scale),
            ["benchmark", "endpoint", "triples"],
            title="Table 1: dataset statistics",
        )),
        "preprocessing": lambda: print(format_table(
            experiments.preprocessing_costs(lrb_scale=args.scale),
            ["benchmark", "system", "preprocessing_s"],
            title="Preprocessing cost (Section 5.1)",
        )),
        "fig8": lambda: _print_runs(
            experiments.fig8_qfed(timeout_seconds=args.timeout),
            "Figure 8: QFed, local cluster",
        ),
        "fig9": lambda: _print_runs(
            experiments.fig9_lubm(timeout_seconds=args.timeout),
            "Figure 9: LUBM, 2 and 4 endpoints",
        ),
        "fig10": lambda: _print_runs(
            experiments.fig10_largerdfbench(
                scale=args.scale, timeout_seconds=args.timeout
            ),
            "Figure 10: LargeRDFBench, local cluster",
        ),
        "fig11": lambda: _print_runs(
            experiments.fig11_geo(scale=args.scale, timeout_seconds=args.timeout)
            + experiments.fig11c_lubm_geo(timeout_seconds=args.timeout),
            "Figure 11: geo-distributed federation",
        ),
        "table2": lambda: _print_runs(
            experiments.table2_real_endpoints(timeout_seconds=args.timeout),
            "Table 2: real endpoints (Bio2RDF + LargeRDFBench subset)",
        ),
        "fig12a": lambda: print(format_table(
            experiments.fig12a_profiling(scale=args.scale),
            ["query", "source_selection_s", "analysis_s", "execution_s", "total_s"],
            title="Figure 12(a): phase profiling",
        )),
        "fig12bc": lambda: print(format_table(
            experiments.fig12bc_scaling(),
            ["query", "endpoints", "source_selection_s", "analysis_s",
             "execution_s", "total_no_cache_s", "total_with_cache_s"],
            title="Figure 12(b,c): endpoint scaling with/without cache",
        )),
        "fig13": lambda: print(format_table(
            experiments.fig13_thresholds(
                scale=args.scale, timeout_seconds=args.timeout
            ),
            ["threshold", "category", "total_runtime_s"],
            title="Figure 13: delay-threshold sensitivity",
        )),
        "fig14": lambda: print(format_table(
            experiments.fig14_ablation(
                timeout_seconds=args.timeout, lrb_scale=args.scale
            ),
            ["benchmark", "query", "FedX", "LADE", "LADE+SAPE"],
            title="Figure 14: LADE / SAPE ablation",
        )),
        "qerror": lambda: print(format_table(
            [experiments.qerror_study(scale=args.scale)],
            ["subqueries_measured", "median_qerror", "max_qerror"],
            title="Cardinality estimation quality (Section 4.1)",
        )),
    }

    if args.list or args.experiment is None:
        print("available experiments:")
        for name in registry:
            print(f"  {name}")
        return 0
    runner = registry.get(args.experiment)
    if runner is None:
        print(f"unknown experiment {args.experiment!r}", file=sys.stderr)
        return 2
    runner()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
