"""Iterative DHT lookups as a discovery channel for the crawler.

The tracker channel gives the crawler one announce per query; the DHT gives
it an *iterative lookup* (BEP 5): starting from the bootstrap nodes, query
the ``alpha`` closest known-unqueried nodes with ``get_peers``, merge the
closer nodes each response returns, and repeat until no unqueried candidate
is closer than the ``k``-th closest node that has already responded.  Every
hop is a real KRPC message through :class:`repro.dht.DhtNetwork`, so hop
counts, coverage and failure behaviour are emergent, not scripted.

The result object duck-types :class:`repro.tracker.AnnounceResponse`
(``seeders`` / ``leechers`` / ``total_peers`` / ``peer_ips``), which is what
lets :func:`repro.core.identification.identify_publisher` and the whole
analysis pipeline run unchanged on DHT-observed peers.  The seeder/leecher
split comes from the nodes' simplified BEP 33 scrape counts.

A reply that does not decode -- not bencode, or a ``nodes``/``values`` blob
of the wrong length -- is treated like a dropped packet: the node stays
unresponded, nothing from the reply is merged, and the lookup goes on.
Such replies are counted on ``dht.lookup_bad_replies``.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Optional, Set, Tuple

from repro.dht import (
    DhtNetwork,
    KrpcError,
    KrpcResponse,
    decode_message,
    derive_node_id,
    encode_query,
    node_id_to_bytes,
    unpack_compact_nodes,
    unpack_compact_peers,
)
from repro.observability import MetricsRegistry

# The crawler's DHT client lives in its own prefix (10.88.x.x): distinct
# from vantage machines (10.66.x.x) and DHT nodes (10.77.x.x).
CRAWLER_DHT_IP = (10 << 24) | (88 << 16) | 1
CRAWLER_DHT_PORT = 6881

_MAX_ROUNDS = 32
_TID = struct.Struct(">I")
_distance = itemgetter(0)


@dataclass(frozen=True)
class DhtLookupResult:
    """One iterative ``get_peers`` lookup, shaped like a tracker response."""

    infohash: bytes
    peers: Tuple[Tuple[int, int], ...]  # (ip, port)
    seeders: int
    leechers: int
    hops: int  # lookup rounds until convergence
    nodes_queried: int
    nodes_with_values: int
    latency_minutes: float  # simulated: rounds x per-hop RTT

    @property
    def peer_ips(self) -> List[int]:
        return [ip for ip, _port in self.peers]

    @property
    def total_peers(self) -> int:
        # The scrape counts cover the full store; the value list may be a
        # sample.  Report whichever view saw more, as a tracker reply does.
        return max(self.seeders + self.leechers, len(self.peers))

    @property
    def found_peers(self) -> bool:
        return bool(self.peers)


@dataclass
class _Candidate:
    ip: int
    port: int
    node_id: Optional[int] = None  # None until the node responds/is reported
    queried: bool = False
    responded: bool = False

    def distance_to(self, target: int) -> int:
        # Bootstrap entries with unknown ids sort first: they must be
        # queried before any distance ordering exists at all.
        return -1 if self.node_id is None else self.node_id ^ target


class DhtCrawler:
    """The crawler's DHT client: deterministic iterative lookups."""

    def __init__(
        self,
        network: DhtNetwork,
        rng: random.Random,
        metrics: Optional[MetricsRegistry] = None,
        client_ip: int = CRAWLER_DHT_IP,
    ) -> None:
        self.network = network
        self.rng = rng
        self.client_ip = client_ip
        self.client_id = derive_node_id("repro-dht-crawler", client_ip)
        self._client_id_bytes = node_id_to_bytes(self.client_id)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        lookups = self.metrics.counter("dht.lookups")
        self._m_lookups_peers = lookups.labels(outcome="peers")
        self._m_lookups_empty = lookups.labels(outcome="empty")
        self._m_queries = self.metrics.counter("dht.lookup_queries").labels()
        self._m_hops = self.metrics.histogram("dht.lookup_hops").labels()
        self._m_peers = self.metrics.histogram("dht.lookup_peers").labels()
        self._m_latency = self.metrics.histogram(
            "dht.lookup_latency_minutes"
        ).labels()
        self._tid_counter = 0

    def _next_tid(self) -> bytes:
        self._tid_counter += 1
        return _TID.pack(self._tid_counter & 0xFFFFFFFF)

    # ------------------------------------------------------------------
    # The iterative lookup
    # ------------------------------------------------------------------
    def lookup(self, infohash: bytes, now: float) -> DhtLookupResult:
        """Resolve ``infohash`` to peers via iterative ``get_peers``."""
        target = int.from_bytes(infohash, "big")
        k = self.network.config.k
        alpha = self.network.config.alpha

        candidates: Dict[int, _Candidate] = {
            ip: _Candidate(ip=ip, port=CRAWLER_DHT_PORT)
            for ip in self.network.bootstrap_ips()
        }
        peers: Set[Tuple[int, int]] = set()
        seeders = leechers = 0
        nodes_with_values = 0
        queried_count = 0
        rounds = 0

        while rounds < _MAX_ROUNDS:
            frontier = self._pick_frontier(candidates, target, k, alpha)
            if not frontier:
                break
            rounds += 1
            for candidate in frontier:
                candidate.queried = True
                queried_count += 1
                values = self._query_one(candidate, infohash, candidates, now)
                if values is None:
                    continue
                got_values, seeds, leeches = values
                if got_values:
                    peers.update(got_values)
                    nodes_with_values += 1
                    # Counts are per-store totals; replicas agree, so max
                    # (not sum) is the deduplicated view.
                    seeders = max(seeders, seeds)
                    leechers = max(leechers, leeches)

        latency = rounds * self.network.config.per_hop_rtt_minutes
        (self._m_lookups_peers if peers else self._m_lookups_empty).inc()
        self._m_hops.observe(float(rounds))
        self._m_peers.observe(float(len(peers)))
        self._m_latency.observe(latency)
        self.metrics.trace.record(
            now,
            "dht.lookup",
            infohash=infohash.hex()[:12],
            peers=len(peers),
            rounds=rounds,
        )
        return DhtLookupResult(
            infohash=infohash,
            peers=tuple(sorted(peers)),
            seeders=seeders,
            leechers=leechers,
            hops=rounds,
            nodes_queried=queried_count,
            nodes_with_values=nodes_with_values,
            latency_minutes=latency,
        )

    def _pick_frontier(
        self,
        candidates: Dict[int, _Candidate],
        target: int,
        k: int,
        alpha: int,
    ) -> List[_Candidate]:
        """The next ``alpha`` nodes worth querying, or [] at convergence."""
        unqueried: List[Tuple[int, _Candidate]] = []
        responded: List[int] = []
        for c in candidates.values():
            distance = c.distance_to(target)
            if not c.queried:
                unqueried.append((distance, c))
            elif c.responded:
                responded.append(distance)
        if not unqueried:
            return []
        # Stable sort on the distance alone: unknown-id bootstrap entries
        # (distance -1) keep their insertion order.
        unqueried.sort(key=_distance)
        if len(responded) >= k:
            responded.sort()
            threshold = responded[k - 1]
            return [c for d, c in unqueried if d < threshold][:alpha]
        return [c for _d, c in unqueried[:alpha]]

    def _query_one(
        self,
        candidate: _Candidate,
        infohash: bytes,
        candidates: Dict[int, _Candidate],
        now: float,
    ) -> Optional[Tuple[List[Tuple[int, int]], int, int]]:
        """Send one ``get_peers``; merge returned nodes; return values.

        None when no usable reply came back: a dropped packet, an error
        reply, or a reply that fails to decode (counted, nothing merged).
        """
        query = encode_query(
            self._next_tid(),
            "get_peers",
            {b"id": self._client_id_bytes, b"info_hash": infohash},
        )
        self._m_queries.inc()
        raw = self.network.send(
            candidate.ip, query, self.client_ip, CRAWLER_DHT_PORT, now
        )
        if raw is None:
            return None
        # Unpack everything before touching lookup state, so a malformed
        # reply is all-or-nothing.
        try:
            reply = decode_message(raw)
            if not isinstance(reply, KrpcResponse):
                return None
            values = reply.values
            nodes_blob = values.get(b"nodes")
            nodes = (
                unpack_compact_nodes(nodes_blob)
                if isinstance(nodes_blob, bytes)
                else ()
            )
            raw_values = values.get(b"values")
            got: List[Tuple[int, int]] = []
            if isinstance(raw_values, list):
                for compact in raw_values:
                    if isinstance(compact, bytes):
                        got.extend(unpack_compact_peers(compact))
        except KrpcError:
            # Registered on first use, so a run without bad replies keeps
            # the same metrics snapshot.
            self.metrics.counter("dht.lookup_bad_replies").labels().inc()
            return None
        candidate.responded = True
        responder_id = values.get(b"id")
        if isinstance(responder_id, bytes) and len(responder_id) == 20:
            candidate.node_id = int.from_bytes(responder_id, "big")
        for node_id_bytes, ip, port in nodes:
            existing = candidates.get(ip)
            if existing is None:
                candidates[ip] = _Candidate(
                    ip=ip, port=port, node_id=int.from_bytes(node_id_bytes, "big")
                )
            elif existing.node_id is None:
                existing.node_id = int.from_bytes(node_id_bytes, "big")
        seeds = values.get(b"seeds")
        leeches = values.get(b"peers")
        return (
            got,
            seeds if isinstance(seeds, int) else 0,
            leeches if isinstance(leeches, int) else 0,
        )
