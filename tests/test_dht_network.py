"""Tests for the simulated overlay and the crawler's iterative lookups."""

import random

import pytest

from repro.core.dht_crawler import CRAWLER_DHT_IP, DhtCrawler, _Candidate
from repro.dht import (
    DhtConfig,
    DhtNetwork,
    KrpcResponse,
    decode_message,
    encode_query,
    encode_response,
    node_id_to_bytes,
    pack_compact_nodes,
    xor_distance,
)
from repro.observability import MetricsRegistry

INFOHASH = b"\x77" * 20


def build_network(seed=11, metrics=None, **overrides):
    config = DhtConfig(num_nodes=overrides.pop("num_nodes", 64), **overrides)
    return DhtNetwork.build(
        config, seed=seed, rng=random.Random(seed),
        metrics=metrics if metrics is not None else MetricsRegistry(),
    )


class TestDhtConfig:
    def test_defaults_valid(self):
        DhtConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_nodes": 1},
            {"bootstrap_count": 0},
            {"num_nodes": 4, "bootstrap_count": 5},
            {"alpha": 0},
            {"message_loss": 1.0},
            {"message_loss": -0.1},
            {"per_hop_rtt_minutes": -1.0},
        ],
    )
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DhtConfig(**kwargs)


class TestBuild:
    def test_deterministic_per_seed(self):
        a = build_network(seed=5)
        b = build_network(seed=5)
        assert [n.node_id for n in a.nodes] == [n.node_id for n in b.nodes]
        assert [len(n.table) for n in a.nodes] == [len(n.table) for n in b.nodes]
        c = build_network(seed=6)
        assert [n.node_id for n in a.nodes] != [n.node_id for n in c.nodes]

    def test_unique_ids_and_ips(self):
        network = build_network()
        assert len({n.node_id for n in network.nodes}) == len(network.nodes)
        assert len({n.ip for n in network.nodes}) == len(network.nodes)

    def test_duplicate_node_ids_rejected(self):
        network = build_network(num_nodes=4)
        twin = network.nodes[:2] + [network.nodes[0]]
        with pytest.raises(ValueError, match="unique"):
            DhtNetwork(network.config, twin, random.Random(1))

    def test_tables_are_kademlia_partial(self):
        network = build_network(num_nodes=64, k=8)
        for node in network.nodes:
            # Far buckets saturate at k; every node knows somebody.
            assert 0 < len(node.table) < 63
            assert all(size <= 8 for size in node.table.bucket_sizes().values())

    def test_bootstrap_ips(self):
        network = build_network()
        ips = network.bootstrap_ips()
        assert len(ips) == network.config.bootstrap_count
        for ip in ips:
            assert network.node_at(ip) is not None


class TestDataPlane:
    def test_send_routes_to_node(self):
        network = build_network()
        dest = network.nodes[0]
        query = encode_query(
            b"t1", "ping", {"id": node_id_to_bytes(network.nodes[1].node_id)}
        )
        raw = network.send(dest.ip, query, network.nodes[1].ip, 6881, now=0.0)
        reply = decode_message(raw)
        assert isinstance(reply, KrpcResponse)
        assert reply.values[b"id"] == node_id_to_bytes(dest.node_id)

    def test_unknown_ip_is_dropped(self):
        network = build_network()
        assert network.send(0x01010101, b"x", 0x02020202, 1, now=0.0) is None

    def test_message_loss_is_seed_deterministic(self):
        def outcomes(seed):
            network = build_network(seed=seed, message_loss=0.5)
            query = encode_query(b"t1", "ping", {"id": b"\x01" * 20})
            return [
                network.send(network.nodes[0].ip, query, 99, 1, now=0.0) is None
                for _ in range(50)
            ]

        assert outcomes(3) == outcomes(3)
        assert True in outcomes(3) and False in outcomes(3)


class TestBatchPlane:
    def test_announce_lands_on_globally_closest(self):
        network = build_network()
        stored_on = network.announce_session(
            INFOHASH, ip=123, port=456, start=0.0, end=100.0, seed_from=10.0
        )
        assert stored_on == network.config.k
        target = int.from_bytes(INFOHASH, "big")
        ranked = sorted(
            network.nodes, key=lambda n: xor_distance(n.node_id, target)
        )
        for node in ranked[: network.config.k]:
            assert node.stored_intervals(INFOHASH) == 1
        for node in ranked[network.config.k :]:
            assert node.stored_intervals(INFOHASH) == 0


class TestIterativeLookup:
    def _crawler(self, network, seed=21):
        return DhtCrawler(
            network, random.Random(seed), metrics=MetricsRegistry()
        )

    def test_lookup_finds_all_active_peers(self):
        network = build_network()
        for i in range(5):
            network.announce_session(
                INFOHASH, ip=1000 + i, port=6881, start=0.0, end=500.0,
                seed_from=0.0 if i == 0 else None,
            )
        result = self._crawler(network).lookup(INFOHASH, now=50.0)
        assert result.found_peers
        assert sorted(result.peer_ips) == [1000, 1001, 1002, 1003, 1004]
        assert (result.seeders, result.leechers) == (1, 4)
        assert result.total_peers == 5
        assert 0 < result.hops <= 32
        assert result.nodes_queried >= network.config.bootstrap_count
        assert result.nodes_with_values >= 1

    def test_lookup_respects_announce_window(self):
        network = build_network()
        network.announce_session(INFOHASH, ip=5, port=1, start=100.0, end=200.0)
        crawler = self._crawler(network)
        assert not crawler.lookup(INFOHASH, now=50.0).found_peers
        assert crawler.lookup(INFOHASH, now=150.0).found_peers
        assert not crawler.lookup(INFOHASH, now=250.0).found_peers

    def test_lookup_deterministic_per_seed(self):
        def run(seed):
            network = build_network(seed=9)
            network.announce_session(INFOHASH, ip=5, port=1, start=0.0, end=99.0)
            result = DhtCrawler(
                network, random.Random(seed), metrics=MetricsRegistry()
            ).lookup(INFOHASH, now=10.0)
            return (result.peers, result.hops, result.nodes_queried)

        assert run(4) == run(4)

    def test_lookup_survives_message_loss(self):
        registry = MetricsRegistry()
        network = build_network(metrics=registry, message_loss=0.3)
        network.announce_session(INFOHASH, ip=5, port=1, start=0.0, end=99.0)
        crawler = DhtCrawler(network, random.Random(21), metrics=registry)
        # A single lookup can die at the bootstraps (no retransmit), so
        # judge over several: replication across k nodes must make the
        # channel usable despite 30% loss.
        found = sum(
            crawler.lookup(INFOHASH, now=10.0).found_peers for _ in range(10)
        )
        assert found >= 5
        messages = registry.counter("dht.messages")
        assert messages.labels(outcome="lost").value() > 0

    def test_latency_scales_with_hops(self):
        network = build_network(per_hop_rtt_minutes=0.5)
        result = self._crawler(network).lookup(INFOHASH, now=0.0)
        assert result.latency_minutes == pytest.approx(result.hops * 0.5)

    def test_lookup_metrics_recorded(self):
        registry = MetricsRegistry()
        network = build_network(metrics=registry)
        network.announce_session(INFOHASH, ip=5, port=1, start=0.0, end=99.0)
        crawler = DhtCrawler(network, random.Random(1), metrics=registry)
        crawler.lookup(INFOHASH, now=10.0)
        snapshot = registry.snapshot(include_wall=False)
        assert snapshot["dht.lookups"]["values"]["outcome=peers"] == 1
        # Every get_peers query the lookup sent went through the network.
        assert (
            snapshot["dht.lookup_queries"]["values"][""]
            == sum(snapshot["dht.messages"]["values"].values())
        )
        assert snapshot["dht.lookup_hops"]["values"][""]["count"] == 1


class TestMalformedReplies:
    """A reply that fails to decode counts as a dropped packet: the lookup
    goes on exactly as if that node were unreachable."""

    BAD_REPLIES = {
        "not-bencode": b"\xffnot bencode",
        "ragged-nodes": encode_response(
            b"\x00\x00\x00\x01", {b"id": b"\x01" * 20, b"nodes": b"\x00" * 25}
        ),
        # A well-formed nodes blob next to a ragged value: all or nothing.
        "ragged-value": encode_response(
            b"\x00\x00\x00\x01",
            {
                b"id": b"\x01" * 20,
                b"nodes": pack_compact_nodes([(b"\x02" * 20, 7, 6881)]),
                b"values": [b"\x00" * 6, b"\x00" * 5],
            },
        ),
    }

    def _lookup(self, break_node):
        registry = MetricsRegistry()
        network = build_network(metrics=registry)
        network.announce_session(INFOHASH, ip=5, port=1, start=0.0, end=99.0)
        break_node(network, network.nodes[0])
        result = DhtCrawler(network, random.Random(3), metrics=registry).lookup(
            INFOHASH, now=10.0
        )
        return result, registry.snapshot(include_wall=False)

    @pytest.mark.parametrize("kind", sorted(BAD_REPLIES))
    def test_bad_reply_is_a_dropped_packet(self, kind):
        def garble(network, node):
            node.handle_query = lambda *args: self.BAD_REPLIES[kind]

        def unplug(network, node):
            del network._by_ip[node.ip]

        bad, snapshot = self._lookup(garble)
        dropped, _ = self._lookup(unplug)
        assert bad == dropped
        assert bad.found_peers
        assert snapshot["dht.lookup_bad_replies"]["values"] == {"": 1.0}

    @pytest.mark.parametrize("kind", sorted(BAD_REPLIES))
    def test_bad_reply_merges_nothing(self, kind):
        network = build_network()
        node = network.nodes[0]
        node.handle_query = lambda *args: self.BAD_REPLIES[kind]
        crawler = DhtCrawler(network, random.Random(3), metrics=MetricsRegistry())
        candidate = _Candidate(ip=node.ip, port=6881)
        candidates = {node.ip: candidate}
        assert crawler._query_one(candidate, INFOHASH, candidates, now=10.0) is None
        assert not candidate.responded
        assert candidate.node_id is None
        assert list(candidates) == [node.ip]

    def test_clean_run_registers_no_bad_reply_counter(self):
        _result, snapshot = self._lookup(lambda network, node: None)
        assert "dht.lookup_bad_replies" not in snapshot
