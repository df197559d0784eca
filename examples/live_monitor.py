#!/usr/bin/env python3
"""The Section 7 application: live content-publishing monitoring.

Runs the continuous monitor against a synthetic Pirate Bay: one tracker
connection per new torrent, GeoIP enrichment, a SQLite database, and the
query interface the paper exposes -- including the e-books use case ("an
e-books consumer could find publishers responsible for publishing large
numbers of e-books") and the planned fake-publisher filter.

    python examples/live_monitor.py
"""

from repro.core.analysis.mapping import detect_fake_publishers
from repro.core.collector import run_measurement_with_world
from repro.core.monitor import ContentPublishingMonitor
from repro.simulation import World, tiny_scenario
from repro.simulation.engine import EventScheduler
from repro.stats.tables import format_table


def main() -> None:
    config = tiny_scenario("live-monitor")
    world = World.build(config, seed=77)
    scheduler = EventScheduler(metrics=world.metrics)
    monitor = ContentPublishingMonitor(
        world, scheduler, poll_interval=5.0,
        # The paper's future-work fake filter, realised: verify a sample of
        # pieces of every 4th new torrent against its metainfo hashes.
        verify_content_fraction=0.25,
    )
    print(f"Monitoring '{config.portal_name}' for "
          f"{config.window_days:.0f} simulated days...")
    monitor.run_until(config.window_minutes)
    print(f"Ingested {monitor.publications_seen} publications; located the "
          f"publisher's IP for {monitor.publishers_located} of them.")
    print(f"Hash-verified {monitor.contents_verified} contents in-protocol; "
          f"caught {monitor.fakes_caught} fakes automatically.")

    store = monitor.store
    print()
    print(
        format_table(
            ["username", "publications"],
            store.top_publishers(limit=8),
            title="Top publishers (live view)",
        )
    )

    print()
    ebook_publishers = store.publishers_for_category("Other/E-books",
                                                     min_torrents=2)
    print(
        format_table(
            ["username", "e-books published"],
            ebook_publishers[:8] or [["(none at this scale)", 0]],
            title="The paper's use case: who publishes lots of e-books?",
        )
    )

    print()
    print(
        format_table(
            ["ISP", "publications"],
            store.isp_breakdown()[:8],
            title="Publisher ISP breakdown (GeoIP-enriched)",
        )
    )

    # Feed the offline fake detection back into the live system -- the
    # filtering feature the paper says it is implementing.
    dataset, _world = run_measurement_with_world(config, seed=77)
    _fake_ips, fake_usernames, _banned = detect_fake_publishers(dataset)
    for username in fake_usernames:
        monitor.flag_fake(username)
    print(f"\nFlagged {len(fake_usernames)} fake usernames in the database.")
    movies_all = store.publications_by_category("Video/Movies")
    movies_clean = store.publications_by_category("Video/Movies",
                                                  exclude_fake=True)
    print(f"Video/Movies listings: {len(movies_all)} raw -> "
          f"{len(movies_clean)} after filtering fake publishers.")


if __name__ == "__main__":
    main()
