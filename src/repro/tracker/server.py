"""The tracker itself: swarm registry, peer sampling, rate limiting.

Behavioural contract (matching what the paper's crawler had to cope with):

- an announce returns at most ``max_numwant`` (200) *random* peers of the
  swarm, plus current seeder/leecher counts;
- clients announcing for the same infohash more often than ``min_interval``
  minutes get a failure response, and after ``blacklist_threshold``
  violations the client IP is blacklisted outright -- this is why the paper
  issues "1 query every 10 to 15 minutes" and aggregates several
  geographically-distributed vantage machines;
- the advertised re-announce ``interval`` varies with simulated tracker load
  inside [min_interval, max_interval].
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro.observability import MetricsRegistry
from repro.swarm import Swarm
from repro.tracker.protocol import (
    AnnounceRequest,
    AnnounceResponse,
    TrackerError,
    WireRoundTripError,
    decode_announce_response,
    encode_announce_success,
    encode_failure,
    encode_scrape_response,
    peer_port_for_ip,
)

# Sampled wire mode round-trips one object-path response in this many
# through the codec.
WIRE_SAMPLE_INTERVAL = 64


@dataclass(frozen=True)
class TrackerConfig:
    """Tunable tracker policy."""

    max_numwant: int = 200
    min_interval: float = 10.0  # minutes between announces per (client, swarm)
    max_interval: float = 15.0
    blacklist_threshold: int = 5
    completed_counts: bool = True
    # Transient overload: probability an announce fails outright (no
    # rate-limit penalty; the client simply retries later).  Real trackers
    # of the era shed load exactly like this.
    failure_probability: float = 0.0
    # Wire fidelity.  "full" serialises every announce through the bencode
    # codec, exactly as the real HTTP tracker protocol would.  "sampled"
    # hands the in-process crawler :class:`AnnounceResponse` objects and
    # only round-trips 1-in-``WIRE_SAMPLE_INTERVAL`` responses through the
    # codec, checking the round trip is lossless each time -- the policy
    # outcome (peers, counts, intervals, rng stream) is identical either
    # way, only the serialisation work is skipped.
    wire_fidelity: str = "full"

    def __post_init__(self) -> None:
        if self.max_numwant < 1:
            raise ValueError("max_numwant must be >= 1")
        if not 0 < self.min_interval <= self.max_interval:
            raise ValueError("need 0 < min_interval <= max_interval")
        if self.blacklist_threshold < 1:
            raise ValueError("blacklist_threshold must be >= 1")
        if not 0.0 <= self.failure_probability < 1.0:
            raise ValueError("failure_probability must be in [0, 1)")
        if self.wire_fidelity not in ("full", "sampled"):
            raise ValueError(
                f"wire_fidelity must be 'full' or 'sampled', "
                f"got {self.wire_fidelity!r}"
            )


class Tracker:
    """One tracker instance managing many swarms."""

    def __init__(
        self,
        url: str,
        rng: random.Random,
        config: Optional[TrackerConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.url = url
        self.config = config if config is not None else TrackerConfig()
        self._rng = rng
        self._swarms: Dict[bytes, Swarm] = {}
        self._last_announce: Dict[Tuple[int, bytes], float] = {}
        self._violations: Dict[int, int] = {}
        self._blacklist: Set[int] = set()
        self._wire_counter = 0  # object-path announces since the last sample
        self.wire_samples_checked = 0
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._m_announces = self.metrics.counter("tracker.announces")
        self._m_served = self._m_announces.labels(result="served")
        self._m_scrapes = self.metrics.counter("tracker.scrapes").labels()
        self._m_swarms = self.metrics.gauge("tracker.swarms").labels()
        self._m_response_bytes = self.metrics.histogram(
            "tracker.response_bytes"
        ).labels()
        self._m_blacklisted = self.metrics.counter(
            "tracker.clients_blacklisted"
        ).labels()

    def _reject(self, reason: str, response: bytes) -> bytes:
        self._m_announces.labels(result=reason).inc()
        self._m_response_bytes.observe(len(response))
        return response

    # ------------------------------------------------------------------
    # Registration (world-facing)
    # ------------------------------------------------------------------
    def register_swarm(self, swarm: Swarm) -> None:
        if swarm.infohash in self._swarms:
            raise ValueError(f"swarm {swarm.infohash.hex()} already registered")
        self._swarms[swarm.infohash] = swarm
        self._m_swarms.set(len(self._swarms))

    def has_swarm(self, infohash: bytes) -> bool:
        return infohash in self._swarms

    def swarm(self, infohash: bytes) -> Swarm:
        try:
            return self._swarms[infohash]
        except KeyError:
            raise KeyError(f"unknown infohash {infohash.hex()}") from None

    @property
    def num_swarms(self) -> int:
        return len(self._swarms)

    def is_blacklisted(self, client_ip: int) -> bool:
        return client_ip in self._blacklist

    # ------------------------------------------------------------------
    # Client-facing protocol
    # ------------------------------------------------------------------
    def _policy(self, request: AnnounceRequest, now: float):
        """Announce policy, independent of wire serialisation.

        Returns ``("served", AnnounceResponse)`` or ``(reject_reason,
        failure_message)``.  All rng draws (overload check, swarm sampling,
        interval jitter) happen here in a fixed order, so the byte path and
        the object path consume the rng stream identically.
        """
        if request.client_ip in self._blacklist:
            return "rejected_banned", "client banned"
        if (
            self.config.failure_probability > 0.0
            and self._rng.random() < self.config.failure_probability
        ):
            return "rejected_overload", "tracker overloaded, retry later"
        swarm = self._swarms.get(request.infohash)
        if swarm is None:
            return "rejected_unknown", "unregistered torrent"

        key = (request.client_ip, request.infohash)
        last = self._last_announce.get(key)
        # A tolerance of one simulated second absorbs float scheduling jitter.
        if last is not None and now - last < self.config.min_interval - 1.0 / 60.0:
            self._violations[request.client_ip] = (
                self._violations.get(request.client_ip, 0) + 1
            )
            if self._violations[request.client_ip] >= self.config.blacklist_threshold:
                self._blacklist.add(request.client_ip)
                self._m_blacklisted.inc()
                return "rejected_banned", "client banned"
            return "rejected_rate_limit", "announce too frequent"
        self._last_announce[key] = now

        numwant = min(request.numwant, self.config.max_numwant)
        snapshot = swarm.query(now, numwant, self._rng)
        # Advertised interval grows with load (bigger swarms -> longer waits),
        # matching the paper's "10 to 15 minutes depending on the tracker load".
        span = self.config.max_interval - self.config.min_interval
        load_factor = min(1.0, snapshot.size / 1000.0)
        jitter = self._rng.uniform(0.0, 0.3 * span)
        interval_minutes = min(
            self.config.min_interval + span * load_factor + jitter,
            self.config.max_interval,
        )
        response = AnnounceResponse(
            interval_seconds=int(round(interval_minutes * 60)),
            seeders=snapshot.num_seeders,
            leechers=snapshot.num_leechers,
            peers=[
                (peer.ip & 0xFFFFFFFF, peer_port_for_ip(peer.ip))
                for peer in snapshot.peers
            ],
        )
        return "served", response

    def announce(self, request: AnnounceRequest, now: float) -> bytes:
        """Handle one announce; returns bencoded response bytes."""
        outcome, payload = self._policy(request, now)
        if outcome != "served":
            return self._reject(outcome, encode_failure(payload))
        self._m_served.inc()
        response = encode_announce_success(
            interval_seconds=payload.interval_seconds,
            seeders=payload.seeders,
            leechers=payload.leechers,
            ips=[ip for ip, _port in payload.peers],
        )
        self._m_response_bytes.observe(len(response))
        return response

    def announce_object(self, request: AnnounceRequest, now: float) -> AnnounceResponse:
        """Handle one announce without serialising it (sampled wire mode).

        Policy, counters and the ``tracker.announces`` metric behave exactly
        as :meth:`announce`; rejections raise :class:`TrackerError` with the
        same failure message the byte path would encode.  Every
        ``WIRE_SAMPLE_INTERVAL``-th message is additionally round-tripped
        through the real codec and checked lossless (raising
        :class:`WireRoundTripError` otherwise), keeping the wire format
        continuously exercised.  ``tracker.response_bytes`` is only observed
        for sampled messages (it is a wall-independent histogram, so sampled
        runs intentionally opt out of byte-path metric parity).
        """
        outcome, payload = self._policy(request, now)
        self._wire_counter += 1
        sample = self._wire_counter >= WIRE_SAMPLE_INTERVAL
        if sample:
            self._wire_counter = 0
        if outcome != "served":
            self._m_announces.labels(result=outcome).inc()
            if sample:
                self._check_failure_roundtrip(payload)
            raise TrackerError(payload)
        self._m_served.inc()
        if sample:
            self._check_success_roundtrip(payload)
        return payload

    def _check_failure_roundtrip(self, message: str) -> None:
        wire = encode_failure(message)
        self._m_response_bytes.observe(len(wire))
        try:
            decode_announce_response(wire)
        except TrackerError as exc:
            if str(exc) != message:
                raise WireRoundTripError(
                    f"lossy failure round-trip: {message!r} -> {exc!r}"
                ) from exc
        else:
            raise WireRoundTripError(
                f"failure response decoded as success: {message!r}"
            )
        self.wire_samples_checked += 1

    def _check_success_roundtrip(self, response: AnnounceResponse) -> None:
        wire = encode_announce_success(
            interval_seconds=response.interval_seconds,
            seeders=response.seeders,
            leechers=response.leechers,
            ips=[ip for ip, _port in response.peers],
        )
        self._m_response_bytes.observe(len(wire))
        decoded = decode_announce_response(wire)
        if decoded != response:
            raise WireRoundTripError(
                f"lossy announce round-trip: {response!r} -> {decoded!r}"
            )
        self.wire_samples_checked += 1

    def scrape(self, infohashes: Tuple[bytes, ...], now: float) -> bytes:
        """Handle a scrape for the given infohashes."""
        self._m_scrapes.inc()
        files: Dict[bytes, Tuple[int, int, int]] = {}
        for infohash in infohashes:
            swarm = self._swarms.get(infohash)
            if swarm is None:
                continue
            snapshot = swarm.query(now, 0, self._rng)
            files[infohash] = (
                snapshot.num_seeders,
                swarm.completions_so_far if self.config.completed_counts else 0,
                snapshot.num_leechers,
            )
        response = encode_scrape_response(files)
        self._m_response_bytes.observe(len(response))
        return response
