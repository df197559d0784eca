"""The measurement crawler (Section 2).

One crawler instance drives a whole campaign on the event scheduler:

1. **Discovery** -- poll the portal's RSS feed every few minutes; each new
   entry yields the username (where the feed carries it) and triggers an
   immediate .torrent download (or magnet resolution) and first contact --
   a tracker announce and/or a DHT lookup -- usually within minutes of the
   swarm's birth.  With ``monitor_swarms=False`` this first contact is all
   the crawler does: pb09's single query, and the Section 7 monitor
   (:mod:`repro.core.monitor`), which runs on this class.
2. **Identification** -- apply the single-seeder/bitfield rule
   (:mod:`repro.core.identification`); successfully identified publisher
   IPs join a global *watchlist*.
3. **Monitoring** -- several geographically distributed vantage machines
   each re-announce at the tracker-advertised interval (10--15 min),
   staggered so the aggregate sampling resolution is higher than any single
   client could achieve without being blacklisted.  Monitoring stops after
   ``empty_replies_to_stop`` consecutive empty replies or at the horizon,
   by one rule (:meth:`Crawler._continue_monitoring`) whichever channel
   drives it.

Every tracker response is processed into the campaign's
:class:`~repro.core.datasets.TorrentRecord`: distinct downloader IPs,
sightings of watched (publisher) IPs, query times and the peak population
used by the Appendix A estimator.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Optional, Set

from repro.core.datasets import Dataset, IdentificationOutcome, TorrentRecord
from repro.core.dht_crawler import DhtCrawler
from repro.core.identification import identify_publisher
from repro.peerwire import BitfieldProber
from repro.portal.rss import RssEntry
from repro.simulation.engine import EventScheduler
from repro.simulation.scenarios import CrawlerSettings, ScenarioConfig
from repro.simulation.world import World
from repro.torrent import MagnetError, TorrentMeta, parse_magnet, parse_torrent
from repro.torrent.metainfo import DEFAULT_PIECE_LENGTH
from repro.tracker import (
    AnnounceRequest,
    TrackerError,
    WireRoundTripError,
    decode_announce_response,
)
from repro.websites import default_monitor_panel

_CRAWLER_PEER_ID = b"-RP1000-repro-crawl1"
# Vantage machines live outside the synthetic address plan (10.66.x.x), so
# they can never collide with a world address.
_VANTAGE_BASE_IP = (10 << 24) | (66 << 16)


class Crawler:
    """One measurement campaign against one world."""

    def __init__(
        self,
        world: World,
        scheduler: EventScheduler,
        rng: random.Random,
        settings: Optional[CrawlerSettings] = None,
    ) -> None:
        self.world = world
        self.scheduler = scheduler
        self.rng = rng
        self.settings = settings if settings is not None else world.config.crawler
        self.records: Dict[int, TorrentRecord] = {}
        self.watchlist: Set[int] = set()
        self._vantage_ips = [
            _VANTAGE_BASE_IP + index for index in range(self.settings.vantage_count)
        ]
        self._probers: Dict[int, BitfieldProber] = {}
        # AnnounceRequests are immutable and identical for every poll of one
        # (torrent, vantage) pair, so they are built once and reused -- a
        # monitoring campaign issues tens of thousands of them.
        self._announce_requests: Dict[tuple, AnnounceRequest] = {}
        self._last_rss_time = float("-inf")
        self._hard_stop = world.config.horizon_minutes
        # The registry is the only tally of what the crawler did;
        # build_dataset derives ``crawler_stats`` from it.
        self.metrics = registry = world.metrics
        self._m_rss_polls = registry.counter("crawler.rss_polls").labels()
        self._m_announces = registry.counter("crawler.announces")
        self._m_announce_ok = self._m_announces.labels(outcome="ok")
        self._m_announce_failure = self._m_announces.labels(outcome="failure")
        self._m_discovered = registry.counter("crawler.torrents_discovered").labels()
        identification = registry.counter("crawler.identification")
        self._m_identification = {
            outcome: identification.labels(outcome=outcome.name)
            for outcome in IdentificationOutcome
        }
        stops = registry.counter("crawler.monitor_stops")
        self._m_stop_empty = stops.labels(reason="empty_replies")
        self._m_stop_horizon = stops.labels(reason="horizon")
        self._m_watchlist = registry.gauge("crawler.watchlist_size").labels()
        self._m_lag = registry.histogram("crawler.discovery_lag_minutes").labels()
        self._m_probes = registry.gauge("crawler.probes").labels()
        # Discovery channels.  The tracker is used unless the scenario
        # disables it; the DHT client exists only when the world built an
        # overlay.
        config = world.config
        self._use_tracker = config.uses_tracker
        self.dht_crawler: Optional[DhtCrawler] = None
        if config.uses_dht and world.dht is not None:
            self.dht_crawler = DhtCrawler(
                world.dht,
                random.Random(rng.getrandbits(64)),
                metrics=registry,
            )

    # ------------------------------------------------------------------
    # Campaign control
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule the first RSS poll; everything else cascades from it."""
        self.scheduler.schedule(self.scheduler.clock.now, self._poll_rss)

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------
    def _poll_rss(self) -> None:
        now = self.scheduler.clock.now
        self._m_rss_polls.inc()
        entries = self.world.portal.feed.entries_between(self._last_rss_time, now)
        self._last_rss_time = now
        for entry in entries:
            self._discover(entry, now)
        if now + self.settings.rss_poll_interval <= self.world.config.window_minutes:
            self.scheduler.schedule_after(self.settings.rss_poll_interval, self._poll_rss)

    def _discover(self, entry: RssEntry, now: float) -> Optional[TorrentMeta]:
        """Record a new feed entry and make first contact with its swarm.

        Returns the parsed .torrent metainfo, or ``None`` when the torrent
        was reached through its magnet link or not at all.
        """
        record = TorrentRecord(
            torrent_id=entry.torrent_id,
            infohash=b"\x00" * 20,  # filled in after the .torrent download
            title=entry.title,
            category=entry.category,
            size_bytes=entry.size_bytes,
            publish_time=entry.published_time,
            username=entry.username,
            discovered_time=now,
        )
        self.records[entry.torrent_id] = record
        self._m_discovered.inc()
        self._m_lag.observe(now - entry.published_time)
        self.metrics.trace.record(
            now, "crawler.discover", torrent_id=entry.torrent_id
        )

        torrent_bytes = self.world.portal.get_torrent_file(entry.torrent_id, now)
        meta = parse_torrent(torrent_bytes) if torrent_bytes is not None else None
        if not self._acquire_metadata(record, meta, now):
            record.identification = IdentificationOutcome.TORRENT_GONE
            self._m_identification[IdentificationOutcome.TORRENT_GONE].inc()
            record.done = True
            return None

        # Immediate first contact: tracker announce (vantage 0) and/or an
        # iterative DHT lookup, depending on the scenario's channels.
        response = None
        if self._use_tracker:
            response = self._announce(record, vantage=0, now=now)
        dht_result = None
        if self.dht_crawler is not None:
            dht_result = self._dht_lookup(record, now)
        observation = response if response is not None else dht_result
        if observation is not None:
            record.first_contact_time = now
            record.first_seeders = observation.seeders
            record.first_leechers = observation.leechers
            self._attempt_identification(record, observation, now)

        if self.settings.monitor_swarms:
            if self._use_tracker:
                self._schedule_vantage_polls(record, now, response)
            if self.dht_crawler is not None:
                at = now + self.settings.dht_poll_interval
                if at <= self._hard_stop:
                    self.scheduler.schedule(
                        at, self._dht_monitor_poll, record.torrent_id
                    )
        else:
            record.done = True
            record.monitoring_ended = now
        return meta

    def _acquire_metadata(
        self, record: TorrentRecord, meta: Optional[TorrentMeta], now: float
    ) -> bool:
        """Learn the infohash and piece count: .torrent first, magnet second.

        ``meta`` is the parsed .torrent, if the portal served one.  The
        magnet path models a BEP 9 metadata fetch: the infohash comes from
        the link; the piece count is derived from the advertised content
        size exactly as ``build_torrent`` derives it, so bitfield probing
        works identically on magnet-only publications.
        """
        if meta is not None:
            record.infohash = meta.infohash
            record.bundled_files = tuple(
                f.path for f in meta.files if f.path != meta.name
            )
            num_pieces = meta.num_pieces
        else:
            magnet_uri = self.world.portal.get_magnet(record.torrent_id, now)
            if magnet_uri is None:
                return False
            try:
                record.infohash = parse_magnet(magnet_uri).infohash
            except MagnetError:
                return False
            record.via_magnet = True
            num_pieces = max(
                1, math.ceil(record.size_bytes / DEFAULT_PIECE_LENGTH)
            )
        self._probers[record.torrent_id] = BitfieldProber(
            self.world.swarm_for(record.torrent_id),
            num_pieces,
            _CRAWLER_PEER_ID,
        )
        return True

    # ------------------------------------------------------------------
    # Tracker interaction
    # ------------------------------------------------------------------
    def _announce(self, record: TorrentRecord, vantage: int, now: float):
        request_key = (record.torrent_id, vantage)
        request = self._announce_requests.get(request_key)
        if request is None:
            request = self._announce_requests[request_key] = AnnounceRequest(
                infohash=record.infohash,
                client_ip=self._vantage_ips[vantage],
                numwant=self.settings.numwant,
            )
        tracker = self.world.tracker
        if tracker.config.wire_fidelity == "sampled":
            # Object path: the tracker hands back the response dataclass and
            # only round-trips 1-in-N messages through the codec itself.
            try:
                response = tracker.announce_object(request, now)
            except WireRoundTripError:
                raise  # a codec defect, not a tracker reply
            except TrackerError:
                self._m_announce_failure.inc()
                return None
        else:
            raw = tracker.announce(request, now)
            try:
                response = decode_announce_response(raw)
            except TrackerError:
                self._m_announce_failure.inc()
                return None
        self._m_announce_ok.inc()
        self._process_response(record, response, now)
        return response

    def _process_response(
        self, record: TorrentRecord, response, now: float, channel: str = "tracker"
    ) -> None:
        record.query_times.append(now)
        record.seeder_counts.append(response.seeders)
        record.leecher_counts.append(response.leechers)
        record.max_population = max(record.max_population, response.total_peers)
        channel_ips = record.tracker_ips if channel == "tracker" else record.dht_ips
        watchlist = self.watchlist
        downloader_ips = record.downloader_ips
        publisher_ip = record.publisher_ip
        for ip, _port in response.peers:
            channel_ips.add(ip)
            if ip in watchlist:
                record.record_sighting(ip, now)
            if ip != publisher_ip:
                downloader_ips.add(ip)

    # ------------------------------------------------------------------
    # DHT interaction
    # ------------------------------------------------------------------
    def _dht_lookup(self, record: TorrentRecord, now: float):
        result = self.dht_crawler.lookup(record.infohash, now)
        self._process_response(record, result, now, channel="dht")
        return result

    def _dht_monitor_poll(self, torrent_id: int) -> None:
        record = self.records[torrent_id]
        if record.done:
            return
        now = self.scheduler.clock.now
        result = self._dht_lookup(record, now)
        at = now + self.settings.dht_poll_interval
        if self._use_tracker:
            # The tracker drives identification and the stop rule; the DHT
            # only adds sightings until the horizon.
            polling = at <= self._hard_stop
        else:
            polling = self._continue_monitoring(record, result, now, at)
        if polling:
            self.scheduler.schedule(at, self._dht_monitor_poll, torrent_id)

    # ------------------------------------------------------------------
    # Identification
    # ------------------------------------------------------------------
    def _attempt_identification(self, record: TorrentRecord, response, now: float) -> None:
        prober = self._probers.get(record.torrent_id)
        if prober is None:
            return
        result = identify_publisher(
            response, prober, now, max_probe_peers=self.settings.max_probe_peers
        )
        record.identification = result.outcome
        self._m_identification[result.outcome].inc()
        if result.publisher_ip is not None:
            record.publisher_ip = result.publisher_ip
            record.identified_time = now
            self.watchlist.add(result.publisher_ip)
            self._m_watchlist.set(len(self.watchlist))
            self.metrics.trace.record(
                now,
                "crawler.publisher_identified",
                torrent_id=record.torrent_id,
                ip=result.publisher_ip,
            )
            # The publisher's own sightings start with this observation, and
            # it must not be counted as a downloader of its own torrent.
            record.downloader_ips.discard(result.publisher_ip)
            record.record_sighting(result.publisher_ip, now)

    def _identification_pending(self, record: TorrentRecord, now: float) -> bool:
        if record.identification is not IdentificationOutcome.NO_SEEDER:
            return False
        deadline = record.discovered_time + self.settings.identification_retry_minutes
        return now <= deadline

    # ------------------------------------------------------------------
    # Monitoring
    # ------------------------------------------------------------------
    def _schedule_vantage_polls(self, record: TorrentRecord, now: float, response) -> None:
        interval = (
            response.interval_seconds / 60.0
            if response is not None
            else self.world.tracker.config.max_interval
        )
        for vantage in range(self.settings.vantage_count):
            # Stagger vantages across one interval for higher aggregate
            # resolution (the paper's multi-machine trick).  Every vantage
            # waits at least one full interval before its first poll so no
            # vantage ever violates the tracker's per-client rate limit
            # (vantage 0 already announced at discovery time).
            offset = interval * (1.0 + vantage / self.settings.vantage_count)
            at = now + offset
            if at <= self._hard_stop:
                self.scheduler.schedule(at, self._monitor_poll, record.torrent_id, vantage)

    def _monitor_poll(self, torrent_id: int, vantage: int) -> None:
        record = self.records[torrent_id]
        if record.done:
            return
        now = self.scheduler.clock.now
        response = self._announce(record, vantage=vantage, now=now)
        if response is None:
            # Rate-limited or tracker hiccup: retry after the safe interval.
            at = now + self.world.tracker.config.max_interval
            if at <= self._hard_stop:
                self.scheduler.schedule(at, self._monitor_poll, torrent_id, vantage)
            return

        interval = max(response.interval_seconds / 60.0,
                       self.world.tracker.config.min_interval)
        at = now + interval
        if self._continue_monitoring(record, response, now, at):
            self.scheduler.schedule(at, self._monitor_poll, torrent_id, vantage)

    def _continue_monitoring(
        self, record: TorrentRecord, observation, now: float, next_poll: float
    ) -> bool:
        """The stop rule of whichever channel drives monitoring.

        Retries identification while it is pending, then stops the record
        after ``empty_replies_to_stop`` consecutive empty replies, or when
        ``next_poll`` would fall past the horizon.  Returns whether to poll
        again at ``next_poll``.
        """
        if self._identification_pending(record, now):
            self._attempt_identification(record, observation, now)
        if observation.total_peers == 0:
            record.empty_streak += 1
        else:
            record.empty_streak = 0
        if record.empty_streak >= self.settings.empty_replies_to_stop:
            record.done = True
            record.monitoring_ended = now
            self._m_stop_empty.inc()
            self.metrics.trace.record(
                now, "crawler.monitor_stop", torrent_id=record.torrent_id,
                reason="empty_replies",
            )
            return False
        if next_poll <= self._hard_stop:
            return True
        record.done = True
        record.monitoring_ended = self._hard_stop
        self._m_stop_horizon.inc()
        return False

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def build_dataset(self) -> Dataset:
        config: ScenarioConfig = self.world.config
        probes = sum(prober.probes_sent for prober in self._probers.values())
        self._m_probes.set(probes)
        # Final identification outcome per torrent (idempotent gauge, unlike
        # the attempt counter which counts every retry).
        final = self.metrics.gauge("crawler.identification_final")
        outcomes: Dict[str, int] = {}
        for record in self.records.values():
            name = record.identification.name
            outcomes[name] = outcomes.get(name, 0) + 1
        for name, count in outcomes.items():
            final.labels(outcome=name).set(count)
        crawler_stats = {
            "rss_polls": int(self._m_rss_polls.value()),
            "announces": int(self._m_announces.total()),
            "announce_failures": int(self._m_announce_failure.value()),
            "probes": probes,
            "torrents_discovered": int(self._m_discovered.value()),
            # Looked up only if present: creating it would add an empty
            # instrument to tracker-only snapshots.
            "dht_lookups": int(self.metrics.counter("dht.lookups").total())
            if "dht.lookups" in self.metrics
            else 0,
            "magnet_resolutions": sum(
                record.via_magnet for record in self.records.values()
            ),
        }
        return Dataset(
            name=config.name,
            config=config,
            start_time=0.0,
            end_time=config.window_minutes,
            analysis_time=config.horizon_minutes,
            records=self.records,
            geoip=self.world.geoip,
            portal=self.world.portal,
            web_directory=self.world.web_directory,
            monitor_panel=default_monitor_panel(),
            crawler_stats=crawler_stats,
            metrics=self.metrics.snapshot(),
        )
