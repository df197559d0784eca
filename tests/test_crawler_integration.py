"""Integration tests: the crawler against the tiny world, validated against
ground truth (the one place truth may be consulted)."""

from collections import Counter

import pytest

from repro.core.datasets import IdentificationOutcome
from repro.simulation.clock import DAY


class TestDiscovery:
    def test_every_published_torrent_discovered(self, dataset, world):
        assert dataset.num_torrents == len(world.truth.torrents)

    def test_usernames_match_truth(self, dataset, world):
        truth_by_id = {t.torrent_id: t for t in world.truth.torrents}
        for record in dataset.torrents():
            assert record.username == truth_by_id[record.torrent_id].username

    def test_infohash_matches_truth(self, dataset, world):
        truth_by_id = {t.torrent_id: t for t in world.truth.torrents}
        for record in dataset.torrents():
            if record.identification is not IdentificationOutcome.TORRENT_GONE:
                assert record.infohash == truth_by_id[record.torrent_id].infohash

    def test_discovery_latency_small(self, dataset):
        polls = dataset.config.crawler.rss_poll_interval
        for record in dataset.torrents():
            assert 0 <= record.discovered_time - record.publish_time <= polls + 1


class TestIdentification:
    def test_identification_precision_high(self, dataset, world):
        """Identified IPs almost always belong to the publishing agent.

        The method has a genuine (rare) false-positive mode the paper's
        variant shares: when the real publisher never shows up as a seeder
        (NATed/absent) and an early downloader finishes, the lone complete
        bitfield belongs to that downloader.
        """
        from repro.core.validation import score_identification

        score = score_identification(dataset, world)
        assert score.identified > 0
        assert score.precision >= 0.97

    def test_identification_rate_plausible(self, dataset):
        rate = dataset.num_with_publisher_ip / dataset.num_torrents
        assert 0.35 < rate < 0.90  # paper: ~40% at full swarm scale

    def test_natted_publishers_rarely_identified(self, dataset, world):
        """A NATed publisher's own IP is never probe-able; at most a handful
        of its torrents get a (false) identification via the early-finisher
        mode described above."""
        truth_by_id = {t.torrent_id: t for t in world.truth.torrents}
        agents = {a.agent_id: a for a in world.population.agents}
        natted_total = 0
        natted_identified = 0
        for record in dataset.torrents():
            truth = truth_by_id[record.torrent_id]
            agent = agents[truth.agent_id]
            if agent.natted:
                natted_total += 1
                if record.publisher_ip is not None:
                    natted_identified += 1
                    # And never with the publisher's own address.
                    assert record.publisher_ip not in agent.ips
        assert natted_total > 0
        assert natted_identified <= max(2, natted_total * 0.05)

    def test_nat_outcome_reported(self, dataset):
        outcomes = Counter(r.identification for r in dataset.torrents())
        assert outcomes[IdentificationOutcome.NAT_UNREACHABLE] > 0

    def test_stealth_fakes_show_no_seeder(self, dataset, world):
        """Stealth decoys are the torrents whose tracker never reports a
        seeder (footnote 2 case ii)."""
        truth_by_id = {t.torrent_id: t for t in world.truth.torrents}
        no_seeder = [
            truth_by_id[r.torrent_id]
            for r in dataset.torrents()
            if r.identification is IdentificationOutcome.NO_SEEDER
        ]
        assert no_seeder
        fake_fraction = sum(1 for t in no_seeder if t.is_fake) / len(no_seeder)
        assert fake_fraction > 0.5


class TestMonitoring:
    def test_query_times_monotone(self, dataset):
        for record in dataset.torrents():
            assert record.query_times == sorted(record.query_times)

    def test_downloader_counts_track_truth(self, dataset, world):
        """Observed distinct IPs correlate with generated downloads."""
        truth_by_id = {t.torrent_id: t for t in world.truth.torrents}
        observed = []
        generated = []
        for record in dataset.torrents():
            truth = truth_by_id[record.torrent_id]
            observed.append(record.num_downloaders)
            generated.append(truth.generated_downloads)
        total_obs = sum(observed)
        total_gen = sum(generated)
        assert total_obs > 0.4 * total_gen  # bulk of downloads observed
        assert total_obs <= total_gen * 1.05  # plus consumption injections

    def test_no_vantage_ips_recorded_as_downloaders(self, dataset):
        for record in dataset.torrents():
            for ip in record.downloader_ips:
                assert (ip >> 16) != ((10 << 8) | 66)

    def test_publisher_ip_not_a_downloader_of_own_torrent(self, dataset):
        for record in dataset.torrents():
            if record.publisher_ip is not None:
                assert record.publisher_ip not in record.downloader_ips

    def test_watched_publishers_have_sightings(self, dataset):
        with_sightings = 0
        for record in dataset.torrents():
            if record.publisher_ip is not None:
                times = record.watched_sightings.get(record.publisher_ip, [])
                if len(times) >= 2:
                    with_sightings += 1
        assert with_sightings > dataset.num_with_publisher_ip * 0.5

    def test_monitoring_stops(self, dataset):
        """Every monitored torrent eventually stops being polled."""
        horizon = dataset.config.horizon_minutes
        for record in dataset.torrents():
            assert record.done or record.monitoring_ended is None
            if record.query_times:
                assert record.query_times[-1] <= horizon

    def test_tracker_never_blacklisted_crawler(self, dataset):
        assert dataset.crawler_stats["announce_failures"] == 0

    def test_sightings_subset_of_query_times(self, dataset):
        for record in dataset.torrents():
            queries = set(record.query_times)
            for times in record.watched_sightings.values():
                assert set(times) <= queries


class TestDatasetAccessors:
    def test_counts_consistent(self, dataset):
        assert dataset.num_with_username == dataset.num_torrents  # pb-style feed
        assert 0 < dataset.num_with_publisher_ip <= dataset.num_torrents

    def test_total_distinct_ips_positive(self, dataset):
        assert dataset.total_distinct_ips() > 500

    def test_records_by_username_partition(self, dataset):
        by_username = dataset.records_by_username()
        assert sum(len(v) for v in by_username.values()) == dataset.num_torrents

    def test_publisher_ips_of(self, dataset):
        by_username = dataset.records_by_username()
        for username, records in by_username.items():
            ips = dataset.publisher_ips_of(username)
            expected = {
                r.publisher_ip for r in records if r.publisher_ip is not None
            }
            assert ips == expected

    def test_analysis_time_after_window(self, dataset):
        assert dataset.analysis_time >= dataset.end_time


# Measured at seed 7 before the crawler's own tallies were removed; the
# registry-derived ``crawler_stats`` must repeat them exactly.
_HALF_DAY = {"window_days": 0.5, "post_window_days": 0.5}
_CRAWLER_STATS_SEED7 = [
    ("tiny", {}, {
        "rss_polls": 865, "announces": 39344, "announce_failures": 0,
        "probes": 225, "torrents_discovered": 283, "dht_lookups": 0,
        "magnet_resolutions": 0,
    }),
    ("trackerless", _HALF_DAY, {
        "rss_polls": 73, "announces": 0, "announce_failures": 0,
        "probes": 130, "torrents_discovered": 135, "dht_lookups": 4270,
        "magnet_resolutions": 135,
    }),
    ("hybrid", _HALF_DAY, {
        "rss_polls": 73, "announces": 4966, "announce_failures": 0,
        "probes": 120, "torrents_discovered": 135, "dht_lookups": 3539,
        "magnet_resolutions": 0,
    }),
]


class TestCrawlerStatsFromRegistry:
    @pytest.mark.parametrize(
        "name, overrides, expected",
        _CRAWLER_STATS_SEED7,
        ids=[case[0] for case in _CRAWLER_STATS_SEED7],
    )
    def test_crawler_stats_pinned(self, name, overrides, expected):
        from repro.core import run_measurement
        from repro.simulation import build_scenario

        dataset = run_measurement(build_scenario(name, **overrides), seed=7)
        assert dataset.crawler_stats == expected
        assert all(type(value) is int for value in dataset.crawler_stats.values())
