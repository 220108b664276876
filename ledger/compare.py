"""Two ledger runs side by side.

::

    python3 ledger/compare.py A B

``A`` and ``B`` pick lines of ``ledger/history.jsonl``: an index (``0``
is the first run, ``-1`` the latest) or a commit prefix (its latest
run).  One row per (workload, end-to-end metric), marked

- ``within bound`` — B is no worse and no better than A by more than
  the bound ``BENCHMARK.json`` fixes for the metric;
- ``better`` / ``worse`` — it moved by more than the bound;
- ``unresolved`` — the calibration measured a run-to-run spread for
  this pair that is wider than the bound, so one pair of runs cannot
  tell a change from noise.

A single pair of runs is a screen, not a claim: a gain is claimed from
ten alternating pairs (see the README).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

LEDGER_DIR = Path(__file__).resolve().parent


def load_history() -> list:
    with open(LEDGER_DIR / "history.jsonl", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def pick(history: list, key: str) -> dict:
    try:
        return history[int(key)]
    except ValueError:
        matches = [run for run in history if run["commit"].startswith(key)]
        if not matches:
            sys.exit(f"compare: no run of commit {key!r} in the history")
        return matches[-1]
    except IndexError:
        sys.exit(f"compare: the history has {len(history)} runs, no {key}")


def verdict(before: float, after: float, better: str, bound: float,
            spread: float) -> str:
    if spread > bound:
        return "unresolved"
    worsening = (after - before) / before if before else 0.0
    if better == "higher":
        worsening = -worsening
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "within bound"


def main() -> int:
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    history = load_history()
    run_a, run_b = pick(history, sys.argv[1]), pick(history, sys.argv[2])
    with open(LEDGER_DIR.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]
    with open(LEDGER_DIR / "calibration.json", encoding="utf-8") as handle:
        spreads = json.load(handle)["spread"]

    for label, run in (("A", run_a), ("B", run_b)):
        print(f"{label}: {run['time']} commit {run['commit'][:12]}"
              f"{' (dirty)' if run['dirty'] else ''} seed {run['seed']} "
              f"python {run['python']} numpy {run['numpy']} "
              f"nproc {run['nproc']}")
    if run_a["parameters"] != run_b["parameters"]:
        print("!! the frozen parameters differ: these runs are not comparable")
    print(f"\n{'workload':18s} {'metric':28s} {'A':>14s} {'B':>14s} "
          f"{'change':>8s} {'bound':>6s}  verdict")
    counts = {}
    for workload in run_a["workloads"]:
        a = run_a["workloads"][workload].get("end_to_end")
        b = run_b["workloads"].get(workload, {}).get("end_to_end")
        if a is None or b is None:
            print(f"{workload:18s} (missing in one of the runs)")
            continue
        for metric in metrics:
            name = metric["name"]
            outcome = verdict(
                a[name], b[name], metric["better"], metric["bound"],
                spreads.get(workload, {}).get(name, 0.0),
            )
            counts[outcome] = counts.get(outcome, 0) + 1
            change = (b[name] - a[name]) / a[name] if a[name] else 0.0
            print(f"{workload:18s} {name:28s} {a[name]:14.4f} {b[name]:14.4f} "
                  f"{change:+8.1%} {metric['bound']:6.2f}  {outcome}")
        failed_a = run_a["workloads"][workload].get("failed", 0)
        failed_b = run_b["workloads"][workload].get("failed", 0)
        if failed_a or failed_b:
            print(f"{workload:18s} wrong answers: A {failed_a}, B {failed_b}")
    print("\n" + ", ".join(f"{n} {kind}" for kind, n in sorted(counts.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
