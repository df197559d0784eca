"""Tests for the Section 7 monitoring application and its database."""

import hashlib
import json

import pytest

from repro.core.monitor import ContentPublishingMonitor
from repro.core.storage import MonitorStore, PublicationRow, PublisherRow
from repro.portal.categories import Category
from repro.simulation import World, build_scenario, tiny_scenario
from repro.simulation.engine import EventScheduler


@pytest.fixture(scope="module")
def monitor_run():
    world = World.build(tiny_scenario("monitor"), seed=55)
    scheduler = EventScheduler()
    monitor = ContentPublishingMonitor(world, scheduler, poll_interval=10.0)
    monitor.run_until(world.config.window_minutes)
    return world, monitor


class TestStore:
    def _row(self, tid=1, username="alice", category="Video/Movies"):
        return PublicationRow(
            torrent_id=tid, title=f"t{tid}", category=category,
            size_bytes=100, username=username, publish_time=1.0,
            publisher_ip="1.2.3.4", isp="OVH", isp_kind="Hosting Provider",
            city="Roubaix", country="FR",
        )

    def test_insert_and_query_by_username(self):
        with MonitorStore() as store:
            store.insert_publication(self._row(1))
            store.insert_publication(self._row(2))
            store.insert_publication(self._row(3, username="bob"))
            rows = store.publications_by_username("alice")
            assert [r.torrent_id for r in rows] == [1, 2]
            assert store.count_publications() == 3

    def test_query_by_category(self):
        with MonitorStore() as store:
            store.insert_publication(self._row(1, category="Other/E-books"))
            store.insert_publication(self._row(2, category="Video/Movies"))
            rows = store.publications_by_category("Other/E-books")
            assert [r.torrent_id for r in rows] == [1]

    def test_category_excluding_fake(self):
        with MonitorStore() as store:
            store.insert_publication(self._row(1, username="evil"))
            store.insert_publication(self._row(2, username="good"))
            store.annotate_publisher(
                PublisherRow("evil", None, None, False, True, "fake")
            )
            rows = store.publications_by_category(
                "Video/Movies", exclude_fake=True
            )
            assert [r.username for r in rows] == ["good"]

    def test_top_publishers_ranking(self):
        with MonitorStore() as store:
            for tid in range(5):
                store.insert_publication(self._row(tid, username="heavy"))
            store.insert_publication(self._row(99, username="light"))
            assert store.top_publishers(limit=1) == [("heavy", 5)]

    def test_publishers_for_category(self):
        """The paper's use case: find the big e-book publishers."""
        with MonitorStore() as store:
            for tid in range(4):
                store.insert_publication(
                    self._row(tid, username="bookworm", category="Other/E-books")
                )
            store.insert_publication(
                self._row(50, username="casual", category="Other/E-books")
            )
            hits = store.publishers_for_category("Other/E-books", min_torrents=2)
            assert hits == [("bookworm", 4)]

    def test_publisher_annotations(self):
        with MonitorStore() as store:
            store.annotate_publisher(
                PublisherRow("mois20", "divxatope.com",
                             "private BitTorrent portal/tracker", True, False,
                             None)
            )
            row = store.publisher("mois20")
            assert row.profit_driven
            assert row.promoted_url == "divxatope.com"
            assert store.publisher("missing") is None

    def test_fake_usernames_listing(self):
        with MonitorStore() as store:
            store.annotate_publisher(PublisherRow("z", None, None, False, True, ""))
            store.annotate_publisher(PublisherRow("a", None, None, False, True, ""))
            assert store.fake_usernames() == ["a", "z"]

    def test_isp_breakdown(self):
        with MonitorStore() as store:
            store.insert_publication(self._row(1))
            store.insert_publication(self._row(2))
            assert store.isp_breakdown()[0] == ("OVH", 2)


class TestMonitor:
    def test_ingests_every_publication(self, monitor_run):
        world, monitor = monitor_run
        assert monitor.publications_seen == world.portal.num_items
        assert monitor.store.count_publications() == world.portal.num_items

    def test_locates_a_good_fraction_of_publishers(self, monitor_run):
        _world, monitor = monitor_run
        assert monitor.publishers_located > monitor.publications_seen * 0.3

    def test_geoip_enrichment(self, monitor_run):
        world, monitor = monitor_run
        enriched = [
            row
            for username, _count in monitor.store.top_publishers(limit=50)
            for row in monitor.store.publications_by_username(username)
            if row.isp is not None
        ]
        assert enriched
        for row in enriched:
            assert row.country
            assert row.isp_kind in ("Hosting Provider", "Commercial ISP")

    def test_single_tracker_connection_per_torrent(self, monitor_run):
        """Section 7: one connection to the tracker per new torrent."""
        world, monitor = monitor_run
        served = world.metrics.counter("tracker.announces").labels(result="served")
        assert served.value() <= monitor.publications_seen

    def test_flag_fake_flows_to_queries(self, monitor_run):
        _world, monitor = monitor_run
        top = monitor.store.top_publishers(limit=1)[0][0]
        monitor.flag_fake(top, note="test flag")
        assert top in monitor.store.fake_usernames()

    def test_annotate_profit_driven(self, monitor_run):
        _world, monitor = monitor_run
        monitor.annotate_profit_driven("somebody", "example.com", "forum")
        row = monitor.store.publisher("somebody")
        assert row.profit_driven and row.promoted_url == "example.com"

    def test_poll_interval_validation(self, monitor_run):
        world, _monitor = monitor_run
        with pytest.raises(ValueError):
            ContentPublishingMonitor(world, EventScheduler(), poll_interval=0)

    def test_rows_pinned(self, monitor_run):
        """Seen/located counts and the (torrent, publisher IP) rows of the
        seed-55 run, as the monitor produced them before it ran on the
        crawler: moving first contact into the crawler changed no row."""
        _world, monitor = monitor_run
        assert monitor.publications_seen == 300
        assert monitor.publishers_located == 154
        rows = sorted(
            [row.torrent_id, row.publisher_ip]
            for category in Category
            for row in monitor.store.publications_by_category(category.value)
        )
        assert len(rows) == 300
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]
        assert digest == "afd0e52a6b822a6f"


def _dht_monitor_run(scenario, announces=None):
    """A monitor over a half-day ``scenario`` world at seed 7; with
    ``announces``, every tracker announce's client address is appended."""
    world = World.build(
        build_scenario(scenario, window_days=0.5, post_window_days=0.5), seed=7
    )
    if announces is not None:
        tracker = world.tracker
        for name in ("announce", "announce_object"):
            method = getattr(tracker, name)

            def wrapped(request, now, _method=method):
                announces.append(request.client_ip)
                return _method(request, now)

            setattr(tracker, name, wrapped)
    monitor = ContentPublishingMonitor(world, EventScheduler(), poll_interval=10.0)
    monitor.run_until(world.config.window_minutes)
    return world, monitor


class TestMonitorChannels:
    """First contact goes through the scenario's channels, as the crawler's."""

    def test_trackerless_locates_publishers(self):
        """Magnet-only publications reach their swarm over the DHT."""
        _world, monitor = _dht_monitor_run("trackerless")
        assert monitor.publications_seen > 0
        assert monitor.publishers_located > 0

    def test_hybrid_announces_from_no_dht_node_address(self):
        announces = []
        world, monitor = _dht_monitor_run("hybrid", announces)
        assert monitor.publishers_located > 0
        assert announces
        node_ips = {node.ip for node in world.dht.nodes}
        assert not node_ips.intersection(announces)


class TestContentVerificationFilter:
    """The paper's §7 future-work feature, realised via piece hash checks."""

    def test_fakes_caught_by_hash_verification(self):
        from repro.simulation import World, tiny_scenario
        from repro.simulation.engine import EventScheduler

        world = World.build(tiny_scenario("verify-filter"), seed=66)
        scheduler = EventScheduler()
        monitor = ContentPublishingMonitor(
            world, scheduler, poll_interval=10.0, verify_content_fraction=1.0
        )
        monitor.run_until(world.config.window_minutes)
        assert monitor.contents_verified > 50
        assert monitor.fakes_caught > 0
        # The seed-66 counts as the monitor produced them before it ran on
        # the crawler: the verification draws did not move.
        assert (monitor.contents_verified, monitor.fakes_caught) == (113, 33)
        assert len(monitor.store.fake_usernames()) == 16

        # Every flagged username truly published fake content.
        truth_fake = {
            t.username for t in world.truth.torrents if t.is_fake
        }
        flagged = set(monitor.store.fake_usernames())
        assert flagged
        assert flagged <= truth_fake

        # And the filter catches a substantial share of fake usernames whose
        # content was verifiable (the stealthy NATed ones stay invisible).
        assert len(flagged) >= len(truth_fake) * 0.3

    def test_fraction_validation(self):
        from repro.simulation import World, tiny_scenario
        from repro.simulation.engine import EventScheduler

        world = World.build(tiny_scenario("verify-val"), seed=1)
        with pytest.raises(ValueError):
            ContentPublishingMonitor(
                world, EventScheduler(), verify_content_fraction=1.5
            )
