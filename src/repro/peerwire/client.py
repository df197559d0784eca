"""Bitfield probe client: "connect to a peer, read its bitfield".

The probe round-trips real wire bytes (handshake out, handshake + bitfield
back) against a simulated peer.  Connection failures are first-class
results -- a NATed peer is listed by the tracker but unreachable, which is
the precise mechanism that prevented the paper from IP-identifying the
publisher of ~60% of torrents.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.peerwire.messages import (
    PeerWireError,
    bitfield_from_progress,
    decode_bitfield,
    decode_handshake,
    encode_bitfield,
    encode_handshake,
    is_complete_bitfield,
)
from repro.swarm import Swarm


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of one bitfield probe."""

    ip: int
    reachable: bool
    bitfield: Optional[Tuple[bool, ...]] = None

    @property
    def is_seeder(self) -> bool:
        """True when the peer was reachable and holds every piece."""
        return self.bitfield is not None and is_complete_bitfield(self.bitfield)


def _peer_id_for(ip: int) -> bytes:
    """Deterministic 20-byte peer id for a simulated peer."""
    return b"-SM0001-" + hashlib.sha1(ip.to_bytes(4, "big")).digest()[:12]


class BitfieldProber:
    """Probes peers of one swarm for their bitfields."""

    def __init__(self, swarm: Swarm, num_pieces: int, crawler_peer_id: bytes) -> None:
        if num_pieces <= 0:
            raise ValueError("num_pieces must be > 0")
        if len(crawler_peer_id) != 20:
            raise ValueError("crawler peer_id must be 20 bytes")
        self._swarm = swarm
        self._num_pieces = num_pieces
        self._peer_id = crawler_peer_id
        self.probes_sent = 0
        self.probes_failed = 0

    def probe(self, ip: int, now: float) -> ProbeResult:
        """Attempt a handshake + bitfield exchange with ``ip`` at ``now``."""
        self.probes_sent += 1
        session = self._swarm.find_connectable(ip, now)
        if session is None:
            self.probes_failed += 1
            return ProbeResult(ip=ip, reachable=False)

        # Outgoing handshake (built and validated through the real codec).
        outgoing = encode_handshake(self._swarm.infohash, self._peer_id)
        their_infohash, _ = decode_handshake(outgoing)
        if their_infohash != self._swarm.infohash:
            raise PeerWireError("handshake round-trip corrupted infohash")

        # The simulated peer replies with its handshake and bitfield bytes.
        reply_handshake = encode_handshake(
            self._swarm.infohash, _peer_id_for(session.ip)
        )
        progress = session.progress_at(now)
        reply_bitfield = encode_bitfield(
            bitfield_from_progress(progress, self._num_pieces)
        )

        # Crawler-side decode of the reply.
        infohash, _peer_id = decode_handshake(reply_handshake)
        if infohash != self._swarm.infohash:
            self.probes_failed += 1
            return ProbeResult(ip=ip, reachable=False)
        bitfield = decode_bitfield(reply_bitfield, self._num_pieces)
        return ProbeResult(ip=ip, reachable=True, bitfield=bitfield)
