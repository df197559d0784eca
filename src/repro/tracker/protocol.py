"""Tracker wire protocol: announce/scrape request & response codecs.

Responses follow the HTTP tracker convention (BEP 3 + BEP 23 compact peers):

- success: ``{"interval": seconds, "complete": seeders,
  "incomplete": leechers, "peers": <6*N bytes>}``
- failure: ``{"failure reason": <bytes>}``

Peers are packed 6 bytes each: 4-byte big-endian IPv4 + 2-byte big-endian
port.  The simulator derives a stable per-IP port so repeated observations of
the same peer look consistent.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.bencode import bdecode, bencode


class TrackerError(RuntimeError):
    """A failure response from the tracker (or malformed tracker bytes)."""


class WireRoundTripError(TrackerError):
    """A sampled response did not survive the codec round trip unchanged.

    This is a defect in the codec, not a tracker reply: callers that treat
    :class:`TrackerError` as a failed announce must let it propagate.
    """


@dataclass(frozen=True)
class AnnounceRequest:
    """One announce as the tracker receives it."""

    infohash: bytes
    client_ip: int
    numwant: int = 200
    event: str = ""  # "", "started", "stopped", "completed"

    def __post_init__(self) -> None:
        if len(self.infohash) != 20:
            raise ValueError("infohash must be 20 bytes")
        if self.numwant < 0:
            raise ValueError("numwant must be >= 0")
        if self.event not in ("", "started", "stopped", "completed"):
            raise ValueError(f"unknown event {self.event!r}")


@dataclass(frozen=True)
class AnnounceResponse:
    """Decoded success response."""

    interval_seconds: int
    seeders: int
    leechers: int
    peers: List[Tuple[int, int]] = field(default_factory=list)  # (ip, port)

    @property
    def peer_ips(self) -> List[int]:
        return [ip for ip, _port in self.peers]

    @property
    def total_peers(self) -> int:
        return self.seeders + self.leechers


@dataclass(frozen=True)
class ScrapeResponse:
    """Decoded scrape response for one infohash."""

    seeders: int
    completed: int
    leechers: int


def peer_port_for_ip(ip: int) -> int:
    """Stable synthetic listening port for a peer (range 10000..59999)."""
    return 10000 + (ip % 50000)


# One compact-peers entry: 4-byte big-endian IPv4 + 2-byte big-endian port.
_PEER_STRUCT = struct.Struct(">IH")


def encode_peers_compact(ips: List[int]) -> bytes:
    packed = bytearray(6 * len(ips))
    pack_into = _PEER_STRUCT.pack_into
    offset = 0
    for ip in ips:
        pack_into(packed, offset, ip & 0xFFFFFFFF, 10000 + (ip % 50000))
        offset += 6
    return bytes(packed)


def encode_announce_success(
    interval_seconds: int, seeders: int, leechers: int, ips: List[int]
) -> bytes:
    # Keys are pre-sorted bytes so bencode takes its no-normalisation path.
    return bencode(
        {
            b"complete": seeders,
            b"incomplete": leechers,
            b"interval": interval_seconds,
            b"peers": encode_peers_compact(ips),
        }
    )


def encode_failure(reason: str) -> bytes:
    return bencode({"failure reason": reason})


def decode_announce_response(data: bytes) -> AnnounceResponse:
    """Parse tracker bytes; raises :class:`TrackerError` on failure responses."""
    decoded = bdecode(data)
    if not isinstance(decoded, dict):
        raise TrackerError("tracker response is not a dictionary")
    if b"failure reason" in decoded:
        raise TrackerError(decoded[b"failure reason"].decode("utf-8", "replace"))
    for key in (b"interval", b"complete", b"incomplete", b"peers"):
        if key not in decoded:
            raise TrackerError(f"tracker response missing {key.decode()!r}")
    raw_peers = decoded[b"peers"]
    if not isinstance(raw_peers, bytes) or len(raw_peers) % 6 != 0:
        raise TrackerError("compact peers blob must be a multiple of 6 bytes")
    peers: List[Tuple[int, int]] = list(_PEER_STRUCT.iter_unpack(raw_peers))
    return AnnounceResponse(
        interval_seconds=decoded[b"interval"],
        seeders=decoded[b"complete"],
        leechers=decoded[b"incomplete"],
        peers=peers,
    )


def encode_scrape_response(files: Dict[bytes, Tuple[int, int, int]]) -> bytes:
    """``files`` maps infohash -> (seeders, completed, leechers)."""
    return bencode(
        {
            "files": {
                infohash: {
                    "complete": seeders,
                    "downloaded": completed,
                    "incomplete": leechers,
                }
                for infohash, (seeders, completed, leechers) in files.items()
            }
        }
    )


def decode_scrape_response(data: bytes) -> Dict[bytes, ScrapeResponse]:
    decoded = bdecode(data)
    if not isinstance(decoded, dict):
        raise TrackerError("scrape response is not a dictionary")
    if b"failure reason" in decoded:
        raise TrackerError(decoded[b"failure reason"].decode("utf-8", "replace"))
    files = decoded.get(b"files")
    if not isinstance(files, dict):
        raise TrackerError("scrape response missing 'files'")
    out: Dict[bytes, ScrapeResponse] = {}
    for infohash, stats in files.items():
        if not isinstance(stats, dict):
            raise TrackerError("scrape file entry is not a dictionary")
        out[infohash] = ScrapeResponse(
            seeders=stats.get(b"complete", 0),
            completed=stats.get(b"downloaded", 0),
            leechers=stats.get(b"incomplete", 0),
        )
    return out
