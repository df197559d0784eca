"""BitTorrent tracker simulator (the paper's Open BitTorrent stand-in).

The tracker answers announces with *real bencoded response bytes* using the
compact peer format, enforces the 10--15 minute per-client query interval
the paper had to respect, and blacklists clients that hammer it.  The
crawler talks to it exactly as it would talk to a live tracker: bytes in,
bytes out.
"""

from repro.tracker.protocol import (
    AnnounceRequest,
    AnnounceResponse,
    ScrapeResponse,
    TrackerError,
    WireRoundTripError,
    decode_announce_response,
    decode_scrape_response,
    peer_port_for_ip,
)
from repro.tracker.server import Tracker, TrackerConfig

__all__ = [
    "AnnounceRequest",
    "AnnounceResponse",
    "ScrapeResponse",
    "TrackerError",
    "WireRoundTripError",
    "decode_announce_response",
    "decode_scrape_response",
    "peer_port_for_ip",
    "Tracker",
    "TrackerConfig",
]
