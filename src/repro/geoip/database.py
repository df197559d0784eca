"""Address plan and MaxMind-like lookup database.

IPv4 addresses are plain ``int``s internally (fast set/dict keys for the
35M-IP-scale bookkeeping); :func:`format_ip` / :func:`parse_ip` convert to
dotted quads at the presentation layer.

The :class:`AddressPlan` assigns each ISP its /16 prefixes and can mint fresh
addresses inside an ISP deterministically.  The :class:`GeoIpDatabase` is the
read-only lookup view the analysis pipeline uses -- mirroring how the paper
used MaxMind: ``IP -> (ISP, kind, country, city)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.geoip.isps import IspKind, IspProfile

# Multiplicative-hash stride coprime with 2**16: enumerates every host in a
# /16 in a scrambled but collision-free order.
_HOST_STRIDE = 40503


def format_ip(ip: int) -> str:
    """Render an integer address as a dotted quad."""
    if not 0 <= ip <= 0xFFFFFFFF:
        raise ValueError(f"not an IPv4 address: {ip}")
    return ".".join(str((ip >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def parse_ip(text: str) -> int:
    """Parse a dotted quad into an integer address."""
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"not a dotted quad: {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise ValueError(f"not a dotted quad: {text!r}")
        octet = int(part)
        if octet > 255:
            raise ValueError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def prefix_of(ip: int) -> int:
    """The /16 prefix (upper 16 bits) of an address, as an int."""
    return ip >> 16


@dataclass(frozen=True)
class GeoRecord:
    """What a MaxMind lookup returns for one address."""

    isp: str
    kind: IspKind
    country: str
    city: str

    @property
    def is_hosting(self) -> bool:
        return self.kind is IspKind.HOSTING_PROVIDER


@dataclass(frozen=True)
class _PrefixInfo:
    prefix: int
    isp: str
    kind: IspKind
    country: str
    city: str


class AddressPlan:
    """Allocates /16 prefixes to ISPs and mints addresses inside them.

    Prefix values are drawn from the unicast range, shuffled by the scenario
    RNG so different seeds give different-looking addresses while the
    structure (who owns how many prefixes, where) is fixed by the profiles.
    """

    def __init__(self, profiles: Sequence[IspProfile], rng: random.Random) -> None:
        if not profiles:
            raise ValueError("at least one ISP profile required")
        names = [p.name for p in profiles]
        if len(set(names)) != len(names):
            raise ValueError("duplicate ISP names in profiles")
        self._profiles: Dict[str, IspProfile] = {p.name: p for p in profiles}
        total_prefixes = sum(p.num_prefixes for p in profiles)
        # /16 prefixes live in [0x0100, 0xDFFF] (avoid 0/127/multicast-ish
        # edges); plenty of room for any realistic plan.
        available = list(range(0x0100, 0xE000))
        if total_prefixes > len(available):
            raise ValueError(
                f"plan needs {total_prefixes} /16 prefixes, only "
                f"{len(available)} available"
            )
        chosen = rng.sample(available, total_prefixes)
        self._prefix_table: Dict[int, _PrefixInfo] = {}
        self._isp_prefixes: Dict[str, List[_PrefixInfo]] = {}
        cursor = 0
        for profile in profiles:
            infos: List[_PrefixInfo] = []
            for i in range(profile.num_prefixes):
                prefix = chosen[cursor]
                cursor += 1
                info = _PrefixInfo(
                    prefix=prefix,
                    isp=profile.name,
                    kind=profile.kind,
                    country=profile.country,
                    city=profile.cities[i % len(profile.cities)],
                )
                infos.append(info)
                self._prefix_table[prefix] = info
            self._isp_prefixes[profile.name] = infos
        self._host_counters: Dict[int, int] = {}

    def profile(self, isp: str) -> IspProfile:
        try:
            return self._profiles[isp]
        except KeyError:
            raise KeyError(f"unknown ISP {isp!r}") from None

    def prefixes(self, isp: str) -> List[int]:
        """All /16 prefixes owned by an ISP."""
        if isp not in self._isp_prefixes:
            raise KeyError(f"unknown ISP {isp!r}")
        return [info.prefix for info in self._isp_prefixes[isp]]

    def mint_address(
        self, rng: random.Random, isp: str, prefix: Optional[int] = None
    ) -> int:
        """Mint a fresh, never-before-returned address inside ``isp``.

        If ``prefix`` is given it must belong to the ISP; otherwise a random
        owned prefix is used.  Hosts within a prefix are enumerated in a
        scrambled collision-free order, so every minted address is unique.
        """
        infos = self._isp_prefixes.get(isp)
        if not infos:
            raise KeyError(f"unknown ISP {isp!r}")
        if prefix is None:
            prefix = infos[rng.randrange(len(infos))].prefix
        elif prefix not in (info.prefix for info in infos):
            raise ValueError(f"prefix {prefix:#06x} not owned by {isp}")
        counter = self._host_counters.get(prefix, 0)
        if counter >= 0xFFFE:
            raise RuntimeError(f"prefix {prefix:#06x} exhausted")
        self._host_counters[prefix] = counter + 1
        # Skip host .0; scrambled enumeration keeps addresses unique.
        host = 1 + ((counter * _HOST_STRIDE) % 0xFFFF)
        return (prefix << 16) | host

    def build_database(self) -> "GeoIpDatabase":
        return GeoIpDatabase(self._prefix_table)


class GeoIpDatabase:
    """Read-only IP -> ISP/location lookup (the analysis-facing view)."""

    def __init__(self, prefix_table: Dict[int, _PrefixInfo]) -> None:
        self._prefix_table = dict(prefix_table)

    def lookup(self, ip: int) -> Optional[GeoRecord]:
        """Return the record for ``ip``, or ``None`` for unknown space.

        MaxMind also has gaps; analysis code must tolerate ``None``.
        """
        info = self._prefix_table.get(prefix_of(ip))
        if info is None:
            return None
        return GeoRecord(
            isp=info.isp, kind=info.kind, country=info.country, city=info.city
        )

    def isp_of(self, ip: int) -> Optional[str]:
        record = self.lookup(ip)
        return record.isp if record else None

    def __len__(self) -> int:
        return len(self._prefix_table)
