"""Campaign orchestration: build a world, crawl it, return the dataset.

This is the one-call entry point the examples and benchmarks use::

    from repro.core import run_measurement
    from repro.simulation import pb10_scenario

    dataset = run_measurement(pb10_scenario(scale=0.4), seed=2010)

Each run records into the :class:`~repro.observability.MetricsRegistry`
passed as ``metrics=``, or into a fresh one, so telemetry never bleeds
between campaigns and two same-seed runs produce byte-identical
sim-clock snapshots.  The final snapshot rides on ``dataset.metrics``; wall
timers (``campaign.build_world_wall_ms``, ``campaign.crawl_wall_ms``) carry
the real performance numbers.
"""

from __future__ import annotations

import random
from typing import Callable, Optional, Tuple

from repro.core.crawler import Crawler
from repro.core.datasets import Dataset
from repro.observability import MetricsRegistry
from repro.simulation.engine import EventScheduler
from repro.simulation.scenarios import ScenarioConfig
from repro.simulation.world import World


def _run(
    config: ScenarioConfig,
    seed: int,
    metrics: Optional[MetricsRegistry],
    report: Callable[[str], None],
) -> Tuple[Dataset, World]:
    registry = metrics if metrics is not None else MetricsRegistry()
    report(f"[{config.name}] building world (seed={seed})")
    with registry.timer("campaign.build_world_wall_ms"):
        world = World.build(config, seed, metrics=registry)
    report(
        f"[{config.name}] world ready: {world.portal.num_items} torrents, "
        f"{len(world.population.agents)} agents"
    )

    scheduler = EventScheduler(metrics=registry)
    crawler_rng = random.Random(random.Random(seed).getrandbits(64) ^ 0xC4A31)
    crawler = Crawler(world, scheduler, crawler_rng)
    crawler.start()
    with registry.timer("campaign.crawl_wall_ms"):
        scheduler.run_until(config.horizon_minutes)
    report(
        f"[{config.name}] crawl finished: {scheduler.events_run} events, "
        f"{int(registry.counter('crawler.announces').total())} announces"
    )
    return crawler.build_dataset(), world


def run_measurement(
    config: ScenarioConfig,
    seed: int = 2010,
    progress: Optional[Callable[[str], None]] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> Dataset:
    """Run one full measurement campaign against a freshly built world."""

    def report(message: str) -> None:
        if progress is not None:
            progress(message)

    dataset, _world = _run(config, seed, metrics, report)
    return dataset


def run_measurement_with_world(
    config: ScenarioConfig,
    seed: int = 2010,
    metrics: Optional[MetricsRegistry] = None,
) -> Tuple[Dataset, World]:
    """Like :func:`run_measurement` but also return the world (ground truth).

    Tests use this to validate the measurement pipeline against the truth;
    analysis code must only ever receive the :class:`Dataset`.
    """
    return _run(config, seed, metrics, lambda message: None)
