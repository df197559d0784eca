"""Tests for one simulated DHT node (repro.dht.node)."""

import pytest

from repro.bencode.reference import bdecode_reference, bencode_reference
from repro.dht.krpc import (
    ERROR_PROTOCOL,
    ERROR_UNKNOWN_METHOD,
    KrpcErrorMessage,
    KrpcResponse,
    decode_message,
    encode_query,
    encode_response,
    pack_compact_nodes,
    unpack_compact_nodes,
    unpack_compact_peers,
)
from repro.dht.node import DhtNode, StoredPeer
from repro.dht.routing import Contact, derive_node_id, node_id_to_bytes

CLIENT_ID = node_id_to_bytes(derive_node_id("client"))
CLIENT_IP = 0x0A420001
INFOHASH = b"\x5a" * 20


def make_node(**kwargs):
    return DhtNode(node_id=derive_node_id("node"), ip=0x0A4D0001, **kwargs)


def ask(node, method, args, now=0.0, tid=b"t1", ip=CLIENT_IP, port=6881):
    args = {"id": CLIENT_ID, **args}
    return decode_message(
        node.handle_query(encode_query(tid, method, args), ip, port, now)
    )


class TestStoredPeer:
    def test_interval_visibility(self):
        peer = StoredPeer(ip=1, port=2, start=10.0, end=20.0)
        assert not peer.active_at(9.9)
        assert peer.active_at(10.0)
        assert peer.active_at(19.9)
        assert not peer.active_at(20.0)

    def test_seed_flip(self):
        peer = StoredPeer(ip=1, port=2, start=0.0, end=50.0, seed_from=30.0)
        assert not peer.is_seed_at(29.0)
        assert peer.is_seed_at(30.0)
        assert not StoredPeer(ip=1, port=2, start=0.0, end=50.0).is_seed_at(40.0)


class TestPeerStore:
    def test_store_and_query_window(self):
        node = make_node()
        node.store_announce(INFOHASH, ip=7, port=100, start=5.0, end=15.0)
        assert node.peers_for(INFOHASH, 4.0) == []
        assert len(node.peers_for(INFOHASH, 10.0)) == 1
        assert node.peers_for(INFOHASH, 15.0) == []
        assert node.stored_intervals(INFOHASH) == 1

    def test_zero_length_sessions_dropped(self):
        node = make_node()
        node.store_announce(INFOHASH, ip=7, port=100, start=5.0, end=5.0)
        assert node.stored_intervals(INFOHASH) == 0

    def test_bad_infohash_rejected(self):
        with pytest.raises(ValueError):
            make_node().store_announce(b"short", ip=1, port=2, start=0.0, end=1.0)


class TestPing:
    def test_ping_returns_own_id(self):
        node = make_node()
        reply = ask(node, "ping", {})
        assert isinstance(reply, KrpcResponse)
        assert reply.values[b"id"] == node_id_to_bytes(node.node_id)

    def test_querier_lands_in_routing_table(self):
        node = make_node()
        ask(node, "ping", {}, now=3.0)
        contact = node.table.find(derive_node_id("client"))
        assert contact is not None
        assert contact.ip == CLIENT_IP and contact.last_seen == 3.0


class TestFindNode:
    def test_returns_closest_contacts(self):
        node = make_node(k=4)
        for i in range(20):
            node.table.observe(
                Contact(derive_node_id("other", i), ip=i + 1, port=6881), now=0.0
            )
        reply = ask(node, "find_node", {"target": b"\x11" * 20})
        nodes = unpack_compact_nodes(reply.values[b"nodes"])
        assert 0 < len(nodes) <= 4

    def test_missing_target_is_protocol_error(self):
        reply = ask(make_node(), "find_node", {})
        assert isinstance(reply, KrpcErrorMessage)
        assert reply.code == ERROR_PROTOCOL


class TestGetPeers:
    def test_empty_swarm_returns_nodes_and_token_only(self):
        node = make_node()
        reply = ask(node, "get_peers", {"info_hash": INFOHASH})
        assert isinstance(reply, KrpcResponse)
        assert b"token" in reply.values
        assert b"values" not in reply.values

    def test_values_and_scrape_counts(self):
        node = make_node()
        node.store_announce(INFOHASH, ip=1, port=10, start=0.0, end=60.0,
                            seed_from=0.0)
        node.store_announce(INFOHASH, ip=2, port=20, start=0.0, end=60.0)
        node.store_announce(INFOHASH, ip=3, port=30, start=0.0, end=60.0)
        reply = ask(node, "get_peers", {"info_hash": INFOHASH}, now=30.0)
        peers = [
            peer
            for compact in reply.values[b"values"]
            for peer in unpack_compact_peers(compact)
        ]
        assert sorted(peers) == [(1, 10), (2, 20), (3, 30)]
        assert reply.values[b"seeds"] == 1
        assert reply.values[b"peers"] == 2

    def test_large_swarms_sampled_to_max_values(self):
        node = make_node(max_values=10)
        for i in range(50):
            node.store_announce(INFOHASH, ip=i + 1, port=1, start=0.0, end=60.0)
        reply = ask(node, "get_peers", {"info_hash": INFOHASH}, now=1.0)
        assert len(reply.values[b"values"]) == 10
        # Scrape counts still cover the full store.
        assert reply.values[b"peers"] == 50

    def test_token_is_ip_bound(self):
        node = make_node()
        assert node.token_for(1) != node.token_for(2)
        assert node.token_for(1) == node.token_for(1)


class TestAnnouncePeer:
    def _token(self, node, ip=CLIENT_IP):
        reply = ask(node, "get_peers", {"info_hash": INFOHASH}, ip=ip)
        return reply.values[b"token"]

    def test_announce_with_valid_token_stores(self):
        node = make_node(announce_ttl=45.0)
        token = self._token(node)
        reply = ask(
            node,
            "announce_peer",
            {"info_hash": INFOHASH, "token": token, "port": 51413, "seed": 1},
            now=100.0,
        )
        assert isinstance(reply, KrpcResponse)
        (stored,) = node.peers_for(INFOHASH, 100.0)
        assert (stored.ip, stored.port) == (CLIENT_IP, 51413)
        assert stored.is_seed_at(100.0)
        assert stored.end == pytest.approx(145.0)

    def test_bad_token_rejected(self):
        node = make_node()
        reply = ask(
            node,
            "announce_peer",
            {"info_hash": INFOHASH, "token": b"forged!", "port": 51413},
        )
        assert isinstance(reply, KrpcErrorMessage)
        assert reply.code == ERROR_PROTOCOL
        assert node.peers_for(INFOHASH, 0.0) == []

    def test_foreign_token_rejected(self):
        node = make_node()
        token = self._token(node, ip=0x01020304)  # someone else's token
        reply = ask(
            node,
            "announce_peer",
            {"info_hash": INFOHASH, "token": token, "port": 51413},
        )
        assert isinstance(reply, KrpcErrorMessage)

    def test_bad_port_rejected(self):
        node = make_node()
        token = self._token(node)
        for port in (0, -5, 70000, "80"):
            reply = ask(
                node,
                "announce_peer",
                {"info_hash": INFOHASH, "token": token, "port": port},
            )
            assert isinstance(reply, KrpcErrorMessage)


class TestDispatchEdges:
    def test_malformed_bytes_get_protocol_error(self):
        reply = decode_message(
            make_node().handle_query(b"garbage", CLIENT_IP, 6881, 0.0)
        )
        assert isinstance(reply, KrpcErrorMessage)
        assert reply.code == ERROR_PROTOCOL

    def test_response_instead_of_query_rejected(self):
        raw = encode_response(b"t9", {"id": CLIENT_ID})
        reply = decode_message(make_node().handle_query(raw, CLIENT_IP, 6881, 0.0))
        assert isinstance(reply, KrpcErrorMessage)

    def test_unknown_method_rejected(self):
        # Bypass encode_query's own validation with hand-rolled bencode.
        # The strict codec refuses the method at decode time, so the node
        # answers with a protocol error rather than half-serving it.
        from repro.bencode import bencode

        raw = bencode({"t": b"tx", "y": "q", "q": "vote", "a": {"id": CLIENT_ID}})
        reply = decode_message(make_node().handle_query(raw, CLIENT_IP, 6881, 0.0))
        assert isinstance(reply, KrpcErrorMessage)
        assert reply.code in (ERROR_PROTOCOL, ERROR_UNKNOWN_METHOD)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_node(announce_ttl=0.0)
        with pytest.raises(ValueError):
            make_node(max_values=0)


class TestCanonicalReplies:
    """Replies are built for the bencoder's fast path; their bytes must be
    exactly what the reference codec makes of the decoded reply."""

    def _assert_canonical(self, raw):
        assert bencode_reference(bdecode_reference(raw)) == raw
        reply = decode_message(raw)
        assert isinstance(reply, KrpcResponse)
        assert decode_message(bencode_reference(bdecode_reference(raw))) == reply
        return reply

    def test_every_method_replies_canonically(self):
        node = make_node(max_values=3)
        for i in range(5):
            node.table.observe(Contact(derive_node_id("n", i), ip=i + 1, port=1), 0.0)
            node.store_announce(
                INFOHASH, ip=100 + i, port=6881, start=0.0, end=50.0,
                seed_from=0.0 if i < 2 else None,
            )

        def raw(method, args):
            args = {"id": CLIENT_ID, **args}
            return node.handle_query(
                encode_query(b"t1", method, args), CLIENT_IP, 6881, 10.0
            )

        self._assert_canonical(raw("ping", {}))
        found = self._assert_canonical(raw("find_node", {"target": INFOHASH}))
        assert found.values[b"nodes"]
        empty = self._assert_canonical(raw("get_peers", {"info_hash": b"\x01" * 20}))
        assert b"values" not in empty.values
        full = self._assert_canonical(raw("get_peers", {"info_hash": INFOHASH}))
        assert len(full.values[b"values"]) == 3  # sampled to max_values
        token = full.values[b"token"]
        self._assert_canonical(
            raw("announce_peer", {"info_hash": INFOHASH, "port": 7000, "token": token})
        )


class TestClosestNodesCache:
    """The packed ``nodes`` blob is cached per routing-table version: it must
    follow every change to the table's (id, ip, port) set, and only those."""

    # The node shares its top bit with the querying client and the target
    # has the other one, so bucket 0 holds exactly the TARGET ^ n contacts
    # each test puts there, and the client lands in some other bucket.
    LOCAL_ID = int.from_bytes(CLIENT_ID, "big") & (1 << 159)
    TARGET = (LOCAL_ID ^ (1 << 159)) | 0x5A5A

    def _node(self, deltas=(1, 2)):
        node = DhtNode(node_id=self.LOCAL_ID, ip=0x0A4D0001, k=3, stale_after=60.0)
        for delta in deltas:
            assert node.table.observe(Contact(self.TARGET ^ delta, ip=delta, port=1), 0.0)
        return node

    def _blob(self, node, now=0.0):
        infohash = node_id_to_bytes(self.TARGET)
        return ask(node, "get_peers", {"info_hash": infohash}, now=now).values[b"nodes"]

    def _fresh(self, node):
        return pack_compact_nodes(
            [
                (node_id_to_bytes(c.node_id), c.ip, c.port)
                for c in node.table.closest(self.TARGET)
            ]
        )

    def _assert_changed_by(self, node, change):
        before = self._blob(node)
        version = node.table.version
        change(node.table)
        assert node.table.version != version
        after = self._blob(node, now=100.0)
        assert after != before
        assert after == self._fresh(node)

    def test_insert(self):
        self._assert_changed_by(
            self._node(),
            lambda table: table.observe(Contact(self.TARGET ^ 3, ip=3, port=1), 0.0),
        )

    def test_stale_eviction(self):
        def evict(table):
            # Bucket 0 is full of contacts last seen at 0: a newcomer at
            # 100 evicts the least recently seen, TARGET ^ 1.
            assert table.observe(Contact(self.TARGET ^ 4, ip=4, port=1), 100.0)
            assert self.TARGET ^ 1 not in table

        self._assert_changed_by(self._node(deltas=(1, 2, 3)), evict)

    def test_remove(self):
        self._assert_changed_by(
            self._node(), lambda table: table.remove(self.TARGET ^ 1)
        )

    def test_address_change_on_refresh(self):
        self._assert_changed_by(
            self._node(),
            lambda table: table.observe(Contact(self.TARGET ^ 1, ip=9, port=1), 50.0),
        )

    def test_last_seen_refresh_keeps_the_cache(self):
        node = self._node()
        before = self._blob(node)
        version = node.table.version
        node.table.observe(Contact(self.TARGET ^ 1, ip=1, port=1), 50.0)
        assert node.table.version == version
        assert self._blob(node, now=50.0) == before == self._fresh(node)
