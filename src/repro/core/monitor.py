"""Section 7: the continuous content-publishing monitoring application.

Unlike the full measurement campaign, the monitor "makes only one connection
to the tracker just after we learn of a new torrent from The Pirate Bay RSS
feed": it tracks publishers, not downloaders.  That one first contact is the
crawler's own (:class:`~repro.core.crawler.Crawler` with
``monitor_swarms=False``), so it goes through the scenario's channels -- the
tracker and/or the DHT, by .torrent or by magnet link.  Each new publication
is enriched with GeoIP data (ISP, city, country) and stored in the database;
profit-driven publishers found by the incentives analysis get an annotated
publisher page, and fake publishers can be flagged so that client-facing
queries filter them out (the feature the paper says it is working on).
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Optional

from repro.core.crawler import Crawler
from repro.core.storage import MonitorStore, PublicationRow, PublisherRow
from repro.geoip import format_ip
from repro.peerwire.verification import ContentVerdict, verify_content
from repro.portal.rss import RssEntry
from repro.simulation.engine import EventScheduler
from repro.simulation.world import World
from repro.torrent import TorrentMeta


class ContentPublishingMonitor(Crawler):
    """Live monitor feeding the :class:`MonitorStore`: a crawler that stops
    at first contact and stores one row per discovered publication."""

    def __init__(
        self,
        world: World,
        scheduler: EventScheduler,
        store: Optional[MonitorStore] = None,
        poll_interval: float = 5.0,
        max_probe_peers: int = 20,
        verify_content_fraction: float = 0.0,
    ) -> None:
        """``verify_content_fraction`` enables the fake-content filter the
        paper announces as future work: that fraction of new torrents gets a
        sample of pieces downloaded and hash-checked an hour after
        publication; a failed check flags the publishing account as fake."""
        if not 0.0 <= verify_content_fraction <= 1.0:
            raise ValueError("verify_content_fraction must be in [0, 1]")
        super().__init__(
            world,
            scheduler,
            random.Random(0x5EC7),
            settings=replace(
                world.config.crawler,
                monitor_swarms=False,
                rss_poll_interval=poll_interval,
                max_probe_peers=max_probe_peers,
            ),
        )
        self.store = store if store is not None else MonitorStore()
        self.verify_content_fraction = verify_content_fraction
        # Kept apart from the crawler's rng so that the verification draws
        # do not depend on which discovery channels the world has.
        self._verify_rng = random.Random(0xB17)
        self.contents_verified = 0
        self.fakes_caught = 0

    @property
    def publications_seen(self) -> int:
        return len(self.records)

    @property
    def publishers_located(self) -> int:
        return sum(
            record.publisher_ip is not None for record in self.records.values()
        )

    # ------------------------------------------------------------------
    # Live operation
    # ------------------------------------------------------------------
    def run_until(self, end_time: float) -> None:
        """Monitor until ``end_time`` (simulated minutes); the feed itself
        is polled up to the end of the scenario's window."""
        self.start()
        self.scheduler.run_until(end_time)

    def _discover(self, entry: RssEntry, now: float) -> Optional[TorrentMeta]:
        meta = super()._discover(entry, now)
        if (
            meta is not None
            and self._verify_rng.random() < self.verify_content_fraction
        ):
            # Verify an hour after publication, when the (sole) seeder of a
            # decoy is still around but honest swarms have finished peers.
            self.scheduler.schedule(
                now + 60.0, self._verify_content, entry, meta
            )

        record = self.records[entry.torrent_id]
        publisher_ip = record.publisher_ip
        isp = kind = city = country = None
        if publisher_ip is not None:
            geo = self.world.geoip.lookup(publisher_ip)
            if geo is not None:
                isp, kind = geo.isp, geo.kind.value
                city, country = geo.city, geo.country
        self.store.insert_publication(
            PublicationRow(
                torrent_id=record.torrent_id,
                title=record.title,
                category=record.category.value,
                size_bytes=record.size_bytes,
                username=record.username,
                publish_time=record.publish_time,
                publisher_ip=(
                    format_ip(publisher_ip) if publisher_ip is not None else None
                ),
                isp=isp,
                isp_kind=kind,
                city=city,
                country=country,
            )
        )
        return meta

    def _verify_content(self, entry: RssEntry, meta: TorrentMeta) -> None:
        """The realised fake filter: sample pieces, hash-check, flag."""
        swarm = self.world.swarm_for(entry.torrent_id)
        result = verify_content(
            swarm, meta, self.scheduler.clock.now, self._verify_rng
        )
        if result.verdict is ContentVerdict.UNREACHABLE:
            return
        self.contents_verified += 1
        if result.verdict is ContentVerdict.CORRUPT and entry.username:
            self.fakes_caught += 1
            self.flag_fake(
                entry.username,
                note=f"piece hash check failed on torrent {entry.torrent_id}",
            )

    # ------------------------------------------------------------------
    # Annotations (fed by the offline analysis)
    # ------------------------------------------------------------------
    def annotate_profit_driven(
        self, username: str, promoted_url: str, business_type: str
    ) -> None:
        """Create the per-publisher page for a profit-driven publisher."""
        self.store.annotate_publisher(
            PublisherRow(
                username=username,
                promoted_url=promoted_url,
                business_type=business_type,
                profit_driven=True,
                fake=False,
                note=None,
            )
        )

    def ingest_analysis(self, incentives, fake_usernames) -> int:
        """Feed an offline analysis back into the live database.

        ``incentives`` is a
        :class:`~repro.core.analysis.incentives.IncentivesReport`;
        ``fake_usernames`` the detected fake set.  Creates the per-publisher
        pages for profit-driven publishers and flags fake accounts; returns
        the number of annotations written.
        """
        written = 0
        for key in incentives.profit_driven():
            publisher = incentives.publishers[key]
            url = publisher.website.url if publisher.website else (
                publisher.evidence.urls[0] if publisher.evidence.urls else ""
            )
            business = (
                publisher.website.business_type.value
                if publisher.website
                else publisher.publisher_class
            )
            self.annotate_profit_driven(key, url, business)
            written += 1
        for username in fake_usernames:
            self.flag_fake(username)
            written += 1
        return written

    def flag_fake(self, username: str, note: str = "") -> None:
        """Flag a fake publisher so client queries can filter it out."""
        self.store.annotate_publisher(
            PublisherRow(
                username=username,
                promoted_url=None,
                business_type=None,
                profit_driven=False,
                fake=True,
                note=note or "detected fake publisher",
            )
        )
