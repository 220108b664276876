"""Set the ledger's bounds from measured noise and write BENCHMARK.json.

::

    python3 ledger/calibrate.py            # ~45 min: 2 sets x 4 workloads x 10 seeds
    python3 ledger/calibrate.py --reuse    # recompute from ledger/out/calibration_runs.json

Runs every workload untraced at ten seeds, twice (seeds 1-10 and 11-20),
exactly as the driver invokes it.  For each (workload, end-to-end
metric) the spread is the interquartile range of the ten values over
their median; a metric's bound is three times its widest spread over
workloads and sets, rounded up to a twentieth, floored at 10 % for
timings and memory and 5 % for the request / byte / virtual-time counts,
and capped at the contract's 25 %.  ``setup_s`` takes the cap.

Fails loudly (exit 1, nothing written) when

- a count that must repeat exactly on the simulated network differs
  between two runs of the same seed,
- a spread is wider than the metric's bound even at the cap: that metric
  has to be demoted to a per-layer metric by hand, or
- the second set's median is worse than the first's by more than the
  bound.

A spread between a third of the bound and the bound is printed as a
warning: the driver accepts it, but with little room.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path

LEDGER_DIR = Path(__file__).resolve().parent
REPO_DIR = LEDGER_DIR.parent
sys.path.insert(0, str(REPO_DIR / "src"))
sys.path.insert(0, str(LEDGER_DIR))

import run as ledger_run  # noqa: E402
import workloads  # noqa: E402

RUNS_FILE = LEDGER_DIR / "out" / "calibration_runs.json"
#: runs per workload in each of the two sets, as the driver makes them
SEEDS = 10
CAP = 0.25
EXACT = ("endpoint_requests_per_query", "endpoint_bytes_per_query",
         "virtual_ms_per_query")
SIMULATED = ("cold_analysis", "probe_warm_stream", "repeat_mix")


def one_run(name: str, seed: int) -> dict:
    result = ledger_run.run_in_fresh_process(
        name, seed, ledger_run.RUN_SECONDS, 0
    )
    if result is None or result["failed"]:
        sys.exit(f"calibrate: {name} seed {seed} died or gave wrong answers")
    return {k: v["value"] for k, v in result["metrics"].items()}


def measure() -> dict:
    runs = {"sets": [], "repeat": {}}
    for first in (1, 1 + SEEDS):
        one_set = {}
        for name in workloads.WORKLOADS:
            one_set[name] = [
                one_run(name, seed) for seed in range(first, first + SEEDS)
            ]
        runs["sets"].append(one_set)
    for name in SIMULATED:
        runs["repeat"][name] = one_run(name, 1)
    return runs


def spread(values) -> float:
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def main() -> int:
    if sys.argv[1:] == ["--reuse"]:
        runs = json.loads(RUNS_FILE.read_text())
    elif sys.argv[1:]:
        sys.exit(__doc__)
    else:
        runs = measure()
        RUNS_FILE.parent.mkdir(exist_ok=True)
        RUNS_FILE.write_text(json.dumps(runs))

    problems = []
    for name, again in runs["repeat"].items():
        first = runs["sets"][0][name][0]
        for metric in EXACT:
            if first[metric] != again[metric]:
                problems.append(
                    f"{name}.{metric} must repeat exactly at one seed but "
                    f"read {first[metric]!r} then {again[metric]!r}"
                )

    spreads = {
        name: {
            metric: max(
                spread([run[metric] for run in one_set[name]])
                for one_set in runs["sets"]
            )
            for metric, _, _ in ledger_run.END_TO_END
        }
        for name in workloads.WORKLOADS
    }
    bounds = {}
    for metric, _, _ in ledger_run.END_TO_END:
        widest = max(spreads[name][metric] for name in spreads)
        floor = 0.05 if metric in EXACT else 0.10
        bound = max(floor, math.ceil(3 * widest * 20 - 1e-9) / 20)
        bound = CAP if metric == "setup_s" else min(bound, CAP)
        bounds[metric] = bound
        if metric == "setup_s":
            continue  # the driver checks its median, not its spread
        if widest > bound:
            problems.append(
                f"{metric}: spread {widest:.1%} exceeds even the "
                f"{bound:.0%} bound — demote it"
            )
        elif 3 * widest > bound:
            print(f"warning: {metric} spread {widest:.1%} is over a third "
                  f"of its {bound:.0%} bound")

    print(f"\n{'metric':30s} {'bound':>6s}  spread (IQR / median) per workload")
    for metric, _, _ in ledger_run.END_TO_END:
        cells = "  ".join(
            f"{name} {spreads[name][metric]:6.2%}" for name in spreads
        )
        print(f"{metric:30s} {bounds[metric]:6.2f}  {cells}")

    print("\nsecond set's median against the first's:")
    for name in workloads.WORKLOADS:
        for metric, _, better in ledger_run.END_TO_END:
            first, second = (
                statistics.median(run[metric] for run in one_set[name])
                for one_set in runs["sets"]
            )
            worsening = (second - first) / first
            if better == "higher":
                worsening = -worsening
            flag = ""
            if worsening > bounds[metric]:
                flag = "  <-- beyond the bound"
                problems.append(
                    f"{name}.{metric}: second median worse by {worsening:.1%}"
                )
            print(f"  {name:18s} {metric:30s} {first:14.4f} {second:14.4f} "
                  f"{worsening:+7.1%}{flag}")

    if problems:
        print("\ncalibration FAILED:\n  " + "\n  ".join(problems))
        return 1

    benchmark = {
        "command": ["python3", "ledger/run.py"],
        "paths": ["ledger"],
        "run_seconds": ledger_run.RUN_SECONDS,
        "workloads": [
            {"name": name, "why": params.why}
            for name, params in workloads.WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": metric, "unit": unit, "better": better,
             "bound": bounds[metric]}
            for metric, unit, better in ledger_run.END_TO_END
        ],
        "per_layer": [
            {"name": metric, "unit": unit, "better": better}
            for metric, unit, better in ledger_run.PER_LAYER
        ],
    }
    (REPO_DIR / "BENCHMARK.json").write_text(
        json.dumps(benchmark, indent=2) + "\n"
    )
    (LEDGER_DIR / "calibration.json").write_text(json.dumps({
        "run_seconds": ledger_run.RUN_SECONDS,
        "seeds_per_set": SEEDS,
        **ledger_run.provenance(),
        "spread": spreads,
        "bounds": bounds,
    }, indent=2) + "\n")
    print("\nwrote BENCHMARK.json and ledger/calibration.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
