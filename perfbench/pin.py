"""Regenerate ``expected.json``: the pinned outputs of each default seed.

Usage (from the repository root)::

    python3 perfbench/pin.py

Pins every cell the default seed runs at the ``run_seconds`` of
``BENCHMARK.json`` (a shorter run checks a prefix of them), plus the
digest of the sweep's aggregate report for exactly that cell list.  Run it only when a change means to alter the
program's outputs, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from check import EXPECTED_PATH, cell_record, report_digest  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, run_workload  # noqa: E402


def main() -> int:
    benchmark = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    seconds = float(benchmark["run_seconds"])
    expected = {}
    for name, workload in WORKLOADS.items():
        seeds = workload.cell_seeds(DEFAULT_SEED, seconds)
        results, report, errors = run_workload(workload, seeds, Tracer())
        if errors:
            print("\n".join(errors), file=sys.stderr)
            return 1
        entry = {
            "seed": DEFAULT_SEED,
            "cells": {str(s): cell_record(r) for s, r in zip(seeds, results)},
        }
        if report is not None:
            entry["aggregate"] = {"seeds": seeds, "sha256": report_digest(report)}
        expected[name] = entry
        print(f"{name}: pinned {len(seeds)} cells", file=sys.stderr)
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
