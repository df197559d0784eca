"""The simulated DHT overlay: a fleet of nodes plus a message fabric.

The overlay stands in for the global Mainline DHT the way
:class:`repro.tracker.Tracker` stands in for a tracker: a deterministic,
in-process model that speaks the real wire format.  ``DhtNetwork.build``
derives every node id from the campaign seed, cross-populates routing
tables (k-bucket caps apply, so tables stay realistically partial) and
exposes two planes:

- a **data plane** -- :meth:`send` routes raw KRPC bytes to the node that
  owns a destination IP and returns the raw reply, with optional
  seed-deterministic message loss; and
- a **batch plane** -- :meth:`announce_session` lets the world generator
  install a peer session's announce interval directly on the nodes
  responsible for an infohash, so swarm churn is reflected in the DHT
  without simulating every re-announce as a scheduler event.

Announce placement uses the *global* closest-nodes view, matching what a
well-behaved peer converges to via iterative lookup; crawler lookups, by
contrast, go through real per-node routing tables and KRPC messages, so
lookup hops and coverage remain emergent properties.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.dht.node import DHT_PORT, DhtNode
from repro.dht.routing import Contact, derive_node_id, xor_distance
from repro.observability import MetricsRegistry

# DHT node IPs live in 10.77.0.0/16; the crawler vantages use 10.66.0.0/16
# and simulated peers get public-looking addresses from the geoip model, so
# the three populations never collide.
_NODE_BASE_IP = (10 << 24) | (77 << 16)


@dataclass(frozen=True)
class DhtConfig:
    """Shape and physics of the simulated overlay."""

    num_nodes: int = 128
    k: int = 8
    alpha: int = 3
    bootstrap_count: int = 3
    announce_ttl_minutes: float = 45.0
    max_values: int = 150
    message_loss: float = 0.0
    per_hop_rtt_minutes: float = 0.02
    stale_after_minutes: float = 60.0

    def __post_init__(self) -> None:
        if self.num_nodes < 2:
            raise ValueError("a DHT needs at least 2 nodes")
        if not 1 <= self.bootstrap_count <= self.num_nodes:
            raise ValueError("bootstrap_count must be in [1, num_nodes]")
        if self.alpha < 1:
            raise ValueError("alpha must be >= 1")
        if not 0.0 <= self.message_loss < 1.0:
            raise ValueError("message_loss must be in [0, 1)")
        if self.per_hop_rtt_minutes < 0:
            raise ValueError("per_hop_rtt_minutes must be >= 0")


class DhtNetwork:
    """All simulated DHT nodes of one campaign, addressable by IP."""

    def __init__(
        self,
        config: DhtConfig,
        nodes: List[DhtNode],
        rng: random.Random,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config
        self.nodes = nodes
        self._by_ip: Dict[int, DhtNode] = {node.ip: node for node in nodes}
        self._rng = rng
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.metrics.gauge("dht.nodes").labels().set(len(nodes))
        self._m_stored = self.metrics.counter("dht.announces_stored").labels()
        messages = self.metrics.counter("dht.messages")
        self._m_unroutable = messages.labels(outcome="unroutable")
        self._m_lost = messages.labels(outcome="lost")
        self._m_delivered = messages.labels(outcome="delivered")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        config: DhtConfig,
        seed: int,
        rng: random.Random,
        metrics: Optional[MetricsRegistry] = None,
    ) -> "DhtNetwork":
        """Assemble the overlay deterministically from the campaign seed."""
        registry = metrics if metrics is not None else MetricsRegistry()
        nodes: List[DhtNode] = []
        for index in range(config.num_nodes):
            node_rng = random.Random(rng.getrandbits(64))
            nodes.append(
                DhtNode(
                    node_id=derive_node_id("dht-node", seed, index),
                    ip=_NODE_BASE_IP | index,
                    port=DHT_PORT,
                    k=config.k,
                    stale_after=config.stale_after_minutes,
                    announce_ttl=config.announce_ttl_minutes,
                    max_values=config.max_values,
                    token_secret=b"repro-dht-%d-%d" % (seed, index),
                    rng=node_rng,
                )
            )
        # Every node learns of every other; k-bucket capacity decides what
        # sticks, so each table keeps the Kademlia-shaped subset.
        for node in nodes:
            for other in nodes:
                if other is node:
                    continue
                node.table.observe(
                    Contact(node_id=other.node_id, ip=other.ip, port=other.port),
                    now=0.0,
                )
        table_sizes = registry.histogram("dht.routing_table_size").labels()
        for node in nodes:
            table_sizes.observe(float(len(node.table)))
        return cls(config, nodes, rng, metrics=registry)

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    def node_at(self, ip: int) -> Optional[DhtNode]:
        return self._by_ip.get(ip)

    def bootstrap_ips(self) -> List[int]:
        """Well-known entry points (the router.bittorrent.com stand-ins)."""
        return [node.ip for node in self.nodes[: self.config.bootstrap_count]]

    def closest_nodes(self, target: int, count: int) -> List[DhtNode]:
        """Global closest-k view (oracle; used by the batch announce plane)."""
        return sorted(
            self.nodes, key=lambda node: xor_distance(node.node_id, target)
        )[:count]

    # ------------------------------------------------------------------
    # Batch plane: world-driven announces
    # ------------------------------------------------------------------
    def announce_session(
        self,
        infohash: bytes,
        ip: int,
        port: int,
        start: float,
        end: float,
        seed_from: Optional[float] = None,
    ) -> int:
        """Install one peer session's announce interval on the responsible
        nodes.  Returns how many nodes stored it."""
        target = int.from_bytes(infohash, "big")
        responsible = self.closest_nodes(target, self.config.k)
        for node in responsible:
            node.store_announce(
                infohash, ip=ip, port=port, start=start, end=end, seed_from=seed_from
            )
        self._m_stored.inc(len(responsible))
        return len(responsible)

    # ------------------------------------------------------------------
    # Data plane: raw KRPC transport
    # ------------------------------------------------------------------
    def send(
        self, dest_ip: int, raw: bytes, sender_ip: int, sender_port: int, now: float
    ) -> Optional[bytes]:
        """Deliver query bytes to ``dest_ip``; None models a dropped UDP
        packet (unknown address, or seed-deterministic loss)."""
        node = self._by_ip.get(dest_ip)
        if node is None:
            self._m_unroutable.inc()
            return None
        if self.config.message_loss and self._rng.random() < self.config.message_loss:
            self._m_lost.inc()
            return None
        self._m_delivered.inc()
        return node.handle_query(raw, sender_ip, sender_port, now)
