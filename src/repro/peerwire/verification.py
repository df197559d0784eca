"""In-protocol content verification: the paper's §5 fake check, mechanised.

The authors verified fake publishers by downloading a few of their files
and finding anti-piracy decoys or malware pointers.  A BitTorrent client
detects the same thing mechanically: every downloaded piece is hashed and
compared against the metainfo's ``pieces`` field, and a decoy seeder's
bytes simply do not match.

:func:`verify_content` performs that exchange over real wire messages:
handshake, bitfield, interested/unchoke, then request/piece for a sample of
pieces, hashing each received block against the .torrent.  The paper's §7
monitor could use exactly this to realise its planned fake-content filter.
"""

from __future__ import annotations

import enum
import hashlib
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.peerwire.messages import (
    INTERESTED_ID,
    PIECE_ID,
    UNCHOKE_ID,
    PeerWireError,
    decode_handshake,
    decode_message,
    decode_piece,
    decode_request,
    encode_handshake,
    encode_piece,
    encode_request,
    encode_state,
)
from repro.swarm import PeerSession, Swarm
from repro.torrent import TorrentMeta
from repro.torrent.metainfo import piece_payload


class ContentVerdict(enum.Enum):
    """Outcome of verifying a swarm's content against its metainfo."""

    AUTHENTIC = "sampled pieces hash-verified against the metainfo"
    CORRUPT = "a served piece failed the hash check (fake/poisoned content)"
    UNREACHABLE = "no reachable peer held the sampled pieces"


@dataclass(frozen=True)
class VerificationResult:
    verdict: ContentVerdict
    pieces_checked: int
    pieces_failed: int
    probed_ip: Optional[int] = None


def _serve_block(session: PeerSession, meta: TorrentMeta, index: int) -> bytes:
    """What the simulated peer returns for piece ``index``.

    Honest peers serve the canonical payload; decoy seeders serve garbage
    derived from their own address (consistent but wrong).
    """
    if session.serves_garbage:
        seed = hashlib.sha256(
            f"garbage\x00{session.ip}\x00{index}".encode("utf-8")
        ).digest()
        payload = piece_payload(meta.name, index)
        repeats = -(-len(payload) // len(seed))
        return (seed * repeats)[: len(payload)]
    return piece_payload(meta.name, index)


def _piece_hash(meta: TorrentMeta, index: int) -> bytes:
    # TorrentMeta does not keep the raw pieces blob; recompute the expected
    # hash the same way the metainfo builder derived it.
    return hashlib.sha1(piece_payload(meta.name, index)).digest()


def verify_content(
    swarm: Swarm,
    meta: TorrentMeta,
    now: float,
    rng: random.Random,
    client_peer_id: bytes = b"-RP1000-repro-verif1",
    sample_pieces: int = 2,
    max_peers_to_try: int = 5,
) -> VerificationResult:
    """Download and hash-check ``sample_pieces`` pieces from the swarm.

    Probes up to ``max_peers_to_try`` currently-connectable peers, preferring
    ones whose session holds the full content (the publisher or finished
    downloaders).  One failed hash is enough for a CORRUPT verdict -- which
    is how clients and the paper's victims discovered decoys.
    """
    if sample_pieces < 1:
        raise ValueError("sample_pieces must be >= 1")
    candidates: List[PeerSession] = [
        session
        for session in swarm.sessions_at(now)
        if not session.natted and session.progress_at(now) >= 1.0
    ]
    rng.shuffle(candidates)
    indexes = sorted(
        rng.sample(range(meta.num_pieces), min(sample_pieces, meta.num_pieces))
    )
    for session in candidates[:max_peers_to_try]:
        result = _verify_against(session, meta, indexes, client_peer_id)
        if result is not None:
            checked, failed = result
            verdict = (
                ContentVerdict.CORRUPT if failed else ContentVerdict.AUTHENTIC
            )
            return VerificationResult(
                verdict=verdict,
                pieces_checked=checked,
                pieces_failed=failed,
                probed_ip=session.ip,
            )
    return VerificationResult(
        verdict=ContentVerdict.UNREACHABLE, pieces_checked=0, pieces_failed=0
    )


def _verify_against(
    session: PeerSession,
    meta: TorrentMeta,
    indexes: List[int],
    client_peer_id: bytes,
) -> Optional[Tuple[int, int]]:
    """Full wire exchange against one peer; (checked, failed) or None."""
    # Handshake both ways.
    outgoing = encode_handshake(meta.infohash, client_peer_id)
    infohash, _ = decode_handshake(outgoing)
    if infohash != meta.infohash:
        raise PeerWireError("handshake round-trip corrupted infohash")
    # interested -> unchoke (the simulated peer always unchokes a verifier).
    interested = encode_state(INTERESTED_ID)
    message_id, _ = decode_message(interested)
    if message_id != INTERESTED_ID:
        raise PeerWireError("state message round-trip failed")
    unchoke_id, _ = decode_message(encode_state(UNCHOKE_ID))
    if unchoke_id != UNCHOKE_ID:
        return None

    checked = failed = 0
    payload_len = len(piece_payload(meta.name, 0))
    for index in indexes:
        request = encode_request(index, 0, payload_len)
        req_index, begin, length = decode_request(decode_message(request)[1])
        block = _serve_block(session, meta, req_index)[begin : begin + length]
        reply = encode_piece(req_index, begin, block)
        reply_id, payload = decode_message(reply)
        if reply_id != PIECE_ID:
            raise PeerWireError(f"expected piece, got id {reply_id}")
        got_index, _begin, got_block = decode_piece(payload)
        checked += 1
        if hashlib.sha1(got_block).digest() != _piece_hash(meta, got_index):
            failed += 1
    return checked, failed
