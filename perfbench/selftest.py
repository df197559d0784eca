"""Exact-count self-test: two same-seed traced runs must count the same.

Usage (from the repository root)::

    python3 perfbench/selftest.py

Runs ``run.py --trace 1`` twice per workload on the default seed and the
``run_seconds`` of ``BENCHMARK.json`` -- the benchmark's own runs -- each
in a fresh process, and requires every ``<layer>.calls``,
``engine.events`` and count ratio to be identical.  Those numbers are pure functions of the seed, which is what
lets a later change cite a count instead of a timing.  Exits non-zero on
any difference or failed run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Dict

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

RUN_SECONDS = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["run_seconds"]

# Ratios of counts: deterministic, unlike every *_s, *_ms and overhead.
EXACT_RATIOS = (
    "tracker.reject_frac",
    "identify.success_frac",
    "dht_crawler.lookup.queries_per_lookup",
    "dht_crawler.lookup.peers_frac",
    "dht.drop_frac",
)


def traced_counts(workload: str) -> Dict[str, float]:
    command = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
        "--seed", str(DEFAULT_SEED), "--seconds", str(RUN_SECONDS), "--trace", "1",
    ]
    child = subprocess.run(command, capture_output=True, text=True, check=False)
    if child.returncode != 0:
        raise RuntimeError(f"{workload}: traced run failed:\n{child.stderr[-2000:]}")
    metrics = json.loads(child.stdout.strip().splitlines()[-1])["metrics"]
    return {
        name: entry["value"]
        for name, entry in metrics.items()
        if name.endswith(".calls") or name == "engine.events" or name in EXACT_RATIOS
    }


def main() -> int:
    failures = 0
    for workload in WORKLOADS:
        first = traced_counts(workload)
        second = traced_counts(workload)
        differ = sorted(n for n in first if first[n] != second.get(n))
        if differ:
            failures += 1
            for name in differ:
                print(f"{workload}: {name} {first[name]} != {second.get(name)}")
        else:
            print(f"{workload}: {len(first)} counts identical across two runs "
                  f"(engine.events={first['engine.events']:.0f})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
