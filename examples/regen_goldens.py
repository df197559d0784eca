#!/usr/bin/env python3
"""Regenerate the golden-dataset regression fixtures in tests/golden/.

Run this ONLY when a change intentionally alters campaign results (a new
world-generation feature, a crawler behaviour change, a fixed analysis bug).
Commit the regenerated JSON together with the change so reviewers see the
numeric drift explicitly.

    PYTHONPATH=src python examples/regen_goldens.py

Each golden pins one small campaign: the scenario name, seed, top-k and
measurement window, plus every headline statistic (identification
coverage/precision, coverage, session error, mapping and publisher-class
shares), the Table-1 counts, and the totals of a few sim-domain counters
that move with the crawl's mechanics (one more KRPC query per lookup, say)
even when every statistic stays put.  ``tiny`` pins the tracker channel,
``trackerless`` the DHT channel alone and ``hybrid`` both at once; the two
DHT goldens use a half-day window so each costs seconds.  ``pb09`` pins the
single-query crawl (``monitor_swarms=False``) that the Section 7 monitor
also runs on, at a tenth of its population and a one-day window.
``tests/test_golden_campaign.py`` recomputes them and fails with a readable
per-metric diff on any drift.
"""

import json
import sys
from pathlib import Path
from typing import NamedTuple, Optional

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.campaign import headline_stats  # noqa: E402
from repro.core.collector import run_measurement_with_world  # noqa: E402
from repro.simulation import build_scenario  # noqa: E402

GOLDEN_DIR = REPO_ROOT / "tests" / "golden"

# Keep in sync with tests/conftest.py: the tiny golden campaign IS the
# session fixture campaign, so its regression test costs no extra crawl.
GOLDEN_SEED = 7
GOLDEN_TOP_K = 20
# Pinned as totals over their labels; a scenario pins those it registers.
GOLDEN_COUNTERS = (
    "crawler.announces",
    "dht.lookup_queries",
    "dht.lookups",
    "dht.messages",
    "engine.events_run",
)


class GoldenSpec(NamedTuple):
    scenario: str
    # None keeps the scenario's own window (and keeps the key out of the
    # golden file); so does the default scale.
    window_days: Optional[float] = None
    post_window_days: Optional[float] = None
    scale: float = 1.0

    @property
    def filename(self) -> str:
        return f"{self.scenario}_seed{GOLDEN_SEED}.json"


GOLDENS = (
    GoldenSpec("tiny"),
    GoldenSpec("trackerless", window_days=0.5, post_window_days=0.5),
    GoldenSpec("hybrid", window_days=0.5, post_window_days=0.5),
    GoldenSpec("pb09", window_days=1.0, post_window_days=1.0, scale=0.1),
)


def build_golden(spec: GoldenSpec) -> dict:
    config = build_scenario(
        spec.scenario,
        scale=spec.scale,
        window_days=spec.window_days,
        post_window_days=spec.post_window_days,
    )
    dataset, world = run_measurement_with_world(config, seed=GOLDEN_SEED)
    payload = {
        "scenario": spec.scenario,
        "seed": GOLDEN_SEED,
        "top_k": GOLDEN_TOP_K,
        "headline": headline_stats(dataset, world, top_k=GOLDEN_TOP_K),
        "summary": dataset.summary_dict(),
        "counts": {
            name: sum(dataset.metrics[name]["values"].values())
            for name in GOLDEN_COUNTERS
            if name in dataset.metrics
        },
    }
    if spec.window_days is not None:
        payload["window_days"] = spec.window_days
        payload["post_window_days"] = spec.post_window_days
    if spec.scale != 1.0:
        payload["scale"] = spec.scale
    return payload


def main() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for spec in GOLDENS:
        path = GOLDEN_DIR / spec.filename
        payload = build_golden(spec)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {path} ({len(payload['headline'])} headline metrics)")


if __name__ == "__main__":
    main()
