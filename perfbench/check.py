"""Output check: pinned outputs on the default seed, invariants on every seed.

For the default workload seed, ``expected.json`` pins each cell's headline
statistics, dataset summary and sim-domain counts, and on ``sweep`` the
digest of the aggregate report; they were generated from the program
by ``pin.py`` and must repeat bit for bit.  Every seed is also held to what
is true of every cell: it finished, every published torrent was found, the
scores are shares, and only the workload's own discovery channel worked.
Every run's identification precision, pooled over its cells, is at least
``MIN_PRECISION``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# Floor of a run's identification precision: the share of identified
# publisher IPs that are right, over all of the run's cells.  The
# repository's discovery integration test asserts the same floor.  Exactly
# 1.0 does not hold on every seed, and a single 0.5+0.5-day trackerless
# cell (about 50 identifications) has scored as low as 0.93.
MIN_PRECISION = 0.9

# Sim-domain counters pinned per cell (totals over their labels).
COUNTERS = ("engine.events_run", "crawler.announces", "dht.lookups")


def counter_total(snapshot: Dict[str, Any], name: str) -> Optional[float]:
    entry = snapshot.get(name)
    if entry is None:
        return None
    return float(sum(entry["values"].values()))


def cell_record(result: Any) -> Dict[str, Any]:
    """The part of one cell's output that is pinned."""
    return {
        "headline": dict(sorted(result.headline.items())),
        "summary": dict(sorted(result.summary.items())),
        "counts": {name: counter_total(result.metrics, name) for name in COUNTERS},
    }


def report_digest(report: Dict[str, Any]) -> str:
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def load_expected() -> Dict[str, Any]:
    with EXPECTED_PATH.open(encoding="utf-8") as handle:
        return json.load(handle)


def _share(value: Any) -> bool:
    return isinstance(value, float) and 0.0 <= value <= 1.0


def invariant_problems(channel: str, record: Dict[str, Any]) -> List[str]:
    headline, summary, counts = record["headline"], record["summary"], record["counts"]
    problems = []
    if summary["num_torrents"] <= 0:
        problems.append("no torrents measured")
    if summary["num_torrents"] != summary["num_true_swarms"]:
        problems.append(
            f"num_torrents {summary['num_torrents']} != "
            f"num_true_swarms {summary['num_true_swarms']}"
        )
    for key in ("identification.coverage", "identification.precision", "download.coverage"):
        if not _share(headline.get(key)):
            problems.append(f"{key} = {headline.get(key)!r} is not a share")
    if not counts["engine.events_run"]:
        problems.append("no simulated events")
    # Only the workload's own channel may carry traffic.
    live, dead = (
        ("crawler.announces", "dht.lookups")
        if channel == "tracker"
        else ("dht.lookups", "crawler.announces")
    )
    if not counts[live]:
        problems.append(f"{live} is zero on the {channel} channel")
    if counts[dead]:
        problems.append(f"{dead} = {counts[dead]} but the channel is {channel}")
    return problems


def _diff(expected: Dict[str, Any], actual: Dict[str, Any]) -> List[str]:
    problems = []
    for section, pinned in expected.items():
        got = actual.get(section, {})
        for key in sorted(set(pinned) | set(got)):
            if pinned.get(key) != got.get(key):
                problems.append(
                    f"{section}.{key}: expected {pinned.get(key)!r}, got {got.get(key)!r}"
                )
    return problems


def check_cells(
    workload: Any,
    seed: int,
    cell_seeds: List[int],
    results: List[Any],
    report: Optional[Dict[str, Any]],
) -> Dict[str, Any]:
    """Check every cell of a ``workloads.Workload`` run; returns the
    failing-cell count and problem messages."""
    expected = load_expected().get(workload.name, {})
    pinned = expected.get("cells", {}) if expected.get("seed") == seed else {}
    failed = 0
    problems: List[str] = []
    identified = correct = 0.0
    for cell_seed, result in zip(cell_seeds, results):
        if result is None:
            failed += 1
            continue
        record = cell_record(result)
        cell_identified = record["summary"]["num_with_publisher_ip"]
        identified += cell_identified
        correct += record["headline"]["identification.precision"] * cell_identified
        cell_problems = invariant_problems(workload.channel, record)
        if str(cell_seed) in pinned:
            cell_problems += _diff(pinned[str(cell_seed)], record)
        if cell_problems:
            failed += 1
            problems += [f"cell seed={cell_seed}: {p}" for p in cell_problems]
    if identified and correct / identified < MIN_PRECISION:
        problems.append(
            f"identification precision {correct / identified:.4f} over the run's "
            f"cells < {MIN_PRECISION}"
        )
        failed += 1
    if report is not None:
        if report.get("num_cells") != len(cell_seeds):
            problems.append(
                f"sweep report has {report.get('num_cells')} cells, ran {len(cell_seeds)}"
            )
            failed += 1
        aggregate = expected.get("aggregate") if expected.get("seed") == seed else None
        if aggregate and aggregate["seeds"] == cell_seeds:
            digest = report_digest(report)
            if digest != aggregate["sha256"]:
                problems.append(f"sweep report digest {digest} != pinned {aggregate['sha256']}")
                failed += 1
    return {"failed": min(failed, len(cell_seeds)), "problems": problems}
