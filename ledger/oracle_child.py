"""The union-graph oracle of one workload, in its own short-lived
process: prints ``{query text: sorted rows of n3 cells}`` as one JSON
document (see ``workloads.Oracle``)."""

from __future__ import annotations

import json
import sys
from pathlib import Path

LEDGER_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(LEDGER_DIR.parent / "src"), str(LEDGER_DIR)]

from workloads import oracle_answers  # noqa: E402

if __name__ == "__main__":
    json.dump(oracle_answers(sys.argv[1]), sys.stdout)
