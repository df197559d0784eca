"""Golden-dataset regression: the pinned-seed campaigns' headline stats.

The golden files (tests/golden/*_seed7.json, written by
``examples/regen_goldens.py``) pin every headline statistic of three seed-7
campaigns, one per discovery channel:

- ``tiny`` (tracker) -- the same campaign the session-scoped ``tiny_run``
  fixture builds, so its check costs no extra crawl;
- ``trackerless`` (DHT only) and ``hybrid`` (tracker and DHT) on the
  half-day window each golden records, so each costs seconds.

Each golden also pins the totals of a few sim-domain counters (events run,
announces, DHT lookups, queries and messages), which move when the crawl's
mechanics move even if no statistic does.  Any unintentional drift in
world generation, the crawler, the DHT lookup path, identification,
session reconstruction or the analysis pipeline fails here with a
per-metric diff; intentional drift is recorded by
re-running the regeneration script and committing the new goldens
alongside the change.
"""

import json
import math
from pathlib import Path

import pytest

from repro.campaign import headline_stats
from repro.core.collector import run_measurement_with_world
from repro.simulation import build_scenario

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_SCENARIOS = ("tiny", "trackerless", "hybrid")

# Tight but not bit-exact: every value is a deterministic float computation,
# the tolerance only forgives last-ulp differences across platforms.
REL_TOL = 1e-9
ABS_TOL = 1e-12


@pytest.fixture(scope="module", params=GOLDEN_SCENARIOS)
def golden(request):
    path = GOLDEN_DIR / f"{request.param}_seed7.json"
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def golden_run(golden, request):
    """(dataset, world) of the campaign ``golden`` pins."""
    if golden["scenario"] == "tiny":
        return request.getfixturevalue("tiny_run")
    config = build_scenario(
        golden["scenario"],
        window_days=golden["window_days"],
        post_window_days=golden["post_window_days"],
    )
    return run_measurement_with_world(config, seed=golden["seed"])


def _diff_lines(expected: dict, actual: dict, label: str) -> list:
    """Readable per-key drift report between two flat numeric dicts."""
    lines = []
    for key in sorted(set(expected) | set(actual)):
        if key not in actual:
            lines.append(f"  {label}.{key}: MISSING (golden={expected[key]!r})")
            continue
        if key not in expected:
            lines.append(
                f"  {label}.{key}: UNEXPECTED (got={actual[key]!r}; "
                "regenerate goldens if intentional)"
            )
            continue
        want, got = expected[key], actual[key]
        if not math.isclose(want, got, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            drift = got - want
            lines.append(
                f"  {label}.{key}: golden={want!r} got={got!r} "
                f"(drift {drift:+.3e})"
            )
    return lines


class TestGoldenCampaign:
    def test_fixture_matches_golden_pin(self, golden):
        """Guard the pin itself: conftest and the golden must agree."""
        from tests.conftest import TINY_SEED, TINY_TOP_K

        assert golden["seed"] == TINY_SEED
        assert golden["top_k"] == TINY_TOP_K
        assert golden["scenario"] in GOLDEN_SCENARIOS
        # Only the tiny golden reuses the session fixture's full window.
        assert ("window_days" in golden) == (golden["scenario"] != "tiny")

    def test_headline_stats_match_golden(self, golden, golden_run):
        dataset, world = golden_run
        actual = headline_stats(dataset, world, top_k=golden["top_k"])
        counts = {
            name: sum(dataset.metrics[name]["values"].values())
            for name in golden["counts"]
            if name in dataset.metrics
        }
        diff = _diff_lines(golden["headline"], actual, "headline")
        diff += _diff_lines(golden["summary"], dataset.summary_dict(), "summary")
        diff += _diff_lines(golden["counts"], counts, "counts")
        if diff:
            pytest.fail(
                "golden campaign drifted "
                f"({len(diff)} metrics; regen with "
                "`python examples/regen_goldens.py` if intentional):\n"
                + "\n".join(diff)
            )

    def test_golden_covers_every_headline_family(self, golden):
        """The golden must keep covering all headline stat families and its
        channel's counters; a key family silently vanishing would hollow the
        regression out."""
        assert {"crawler.announces", "engine.events_run"} <= set(golden["counts"])
        if golden["scenario"] != "tiny":
            assert "dht.lookup_queries" in golden["counts"]
        families = {key.split(".")[0] for key in golden["headline"]}
        assert {
            "identification",
            "download",
            "session",
            "contribution",
            "mapping",
            "classes",
        } <= families
