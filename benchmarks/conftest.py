"""Shared helpers for the benchmark suite.

Each ``bench_*`` file regenerates one of the paper's tables or figures:
it runs the corresponding experiment once under pytest-benchmark, prints
the paper-style table, appends it to ``benchmarks/results/summary.txt``
(this session's tables only — untracked scratch; EXPERIMENTS.md is the
record), and asserts the *shape* of the result (who wins, what fails)
rather than absolute numbers.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def record_table(results_dir):
    """Print a rendered table and append it to the session summary."""
    summary = results_dir / "summary.txt"
    summary.write_text("")

    def _record(text: str) -> None:
        print()
        print(text)
        with summary.open("a") as handle:
            handle.write(text + "\n\n")

    return _record


def runs_by_system(runs):
    grouped = {}
    for run in runs:
        grouped.setdefault(run.system, []).append(run)
    return grouped


def total_runtime(runs, system):
    return sum(r.runtime_seconds for r in runs if r.system == system)


def ok_count(runs, system):
    return sum(1 for r in runs if r.system == system and r.status == "OK")
