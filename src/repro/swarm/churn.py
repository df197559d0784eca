"""Downloader arrival and behaviour model (churn).

Arrivals follow a flash-crowd process: interest is highest right after
publication and decays exponentially with time constant ``decay_tau`` --
with an expected total of ``total_downloads`` arrivals.  Equivalently, each
downloader's arrival offset is an independent exponential draw, which is the
shape repeatedly measured for real torrent lifetimes.

Behaviour after arrival depends on whether the content is real:

- *real content*: the peer leeches for roughly ``size / rate`` minutes
  (possibly aborting), may stay to seed for a while after completing, and is
  behind a NAT with some probability;
- *fake content*: the peer discovers the file is bogus (anti-piracy decoy or
  malware wrapper) and leaves after a short disappointed leeching interval,
  never completing and never seeding.  This is exactly why fake publishers
  remain the only seed of their swarms in the paper (Section 4.3).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.observability import MetricsRegistry
from repro.swarm.peer import PeerSession


@dataclass(frozen=True)
class PopularityModel:
    """How many downloaders a torrent attracts, and how fast they arrive."""

    total_downloads: int
    decay_tau: float  # minutes; mean arrival offset after publication
    cutoff: Optional[float] = None  # absolute time after which nobody arrives

    def __post_init__(self) -> None:
        if self.total_downloads < 0:
            raise ValueError("total_downloads must be >= 0")
        if self.decay_tau <= 0:
            raise ValueError("decay_tau must be > 0")


@dataclass(frozen=True)
class DownloaderBehavior:
    """Per-peer behaviour knobs."""

    mean_download_minutes: float = 180.0
    abort_probability: float = 0.15
    seed_probability: float = 0.35
    mean_seed_minutes: float = 240.0
    nat_probability: float = 0.55
    fake_content: bool = False
    mean_fake_linger_minutes: float = 25.0

    def __post_init__(self) -> None:
        for name in ("abort_probability", "seed_probability", "nat_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        for name in (
            "mean_download_minutes",
            "mean_seed_minutes",
            "mean_fake_linger_minutes",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")


def generate_downloader_sessions(
    rng: random.Random,
    birth_time: float,
    popularity: PopularityModel,
    behavior: DownloaderBehavior,
    mint_ip: Callable[[], int],
    metrics: Optional[MetricsRegistry] = None,
) -> List[PeerSession]:
    """Generate every downloader session a torrent will ever have.

    ``mint_ip`` supplies a fresh consumer-ISP address per downloader (distinct
    downloaders have distinct IPs; the analysis counts distinct IPs exactly
    like the paper does).

    Generation outcomes feed the ``swarm.sessions_generated`` counter
    (labeled ``kind=fake|aborted|seeder|hit_and_run``) and the suppressed-
    by-moderation count feeds ``swarm.arrivals_suppressed``.
    """
    registry = metrics if metrics is not None else MetricsRegistry()
    generated = registry.counter("swarm.sessions_generated")
    fake = generated.labels(kind="fake")
    aborted = generated.labels(kind="aborted")
    seeder = generated.labels(kind="seeder")
    hit_and_run = generated.labels(kind="hit_and_run")
    suppressed = registry.counter("swarm.arrivals_suppressed").labels()
    sessions: List[PeerSession] = []
    for _ in range(popularity.total_downloads):
        offset = rng.expovariate(1.0 / popularity.decay_tau)
        join = birth_time + offset
        if popularity.cutoff is not None and join > popularity.cutoff:
            suppressed.inc()
            continue  # content removed / forgotten before this arrival
        ip = mint_ip()
        natted = rng.random() < behavior.nat_probability

        if behavior.fake_content:
            # Disappointed victim: partial download, quick exit, no seeding.
            fake.inc()
            linger = rng.expovariate(1.0 / behavior.mean_fake_linger_minutes)
            sessions.append(
                PeerSession(
                    ip=ip,
                    join_time=join,
                    leave_time=join + max(linger, 1.0),
                    complete_time=None,
                    natted=natted,
                )
            )
            continue

        download = max(rng.expovariate(1.0 / behavior.mean_download_minutes), 2.0)
        if rng.random() < behavior.abort_probability:
            # Leaves before completing, uniformly within the download.
            aborted.inc()
            leave = join + download * rng.uniform(0.05, 0.95)
            sessions.append(
                PeerSession(
                    ip=ip,
                    join_time=join,
                    leave_time=leave,
                    complete_time=None,
                    natted=natted,
                )
            )
            continue

        complete = join + download
        if rng.random() < behavior.seed_probability:
            seeder.inc()
            seed_for = rng.expovariate(1.0 / behavior.mean_seed_minutes)
            leave = complete + seed_for
        else:
            # Hit-and-run: leave almost immediately after completing.
            hit_and_run.inc()
            leave = complete + rng.uniform(0.5, 5.0)
        sessions.append(
            PeerSession(
                ip=ip,
                join_time=join,
                leave_time=leave,
                complete_time=complete,
                natted=natted,
            )
        )
    return sessions
