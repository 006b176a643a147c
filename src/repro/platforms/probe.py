"""Probes: the vantage points of the study."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.geo.continents import Continent
from repro.geo.coords import GeoPoint
from repro.lastmile.base import AccessKind
from repro.net.ip import format_ip

#: Cell size (degrees) for the <city, ASN> platform matching of Fig. 16.
CITY_CELL_DEGREES = 2.0


@dataclass
class Probe:
    """One vantage point.

    ``device_address`` is the address the probe itself reports:
    a private RFC 1918 address for home probes behind a NAT router, or a
    public/CGN address for cellular probes.  ``public_address`` is the
    address seen by the network (home router WAN side or cellular
    gateway); it belongs to the serving ISP's address space.
    """

    probe_id: str
    platform: str
    country: str
    continent: Continent
    location: GeoPoint
    isp_asn: int
    access: AccessKind
    device_address: int
    public_address: int
    #: Per-probe quality personality: multiplies last-mile medians so the
    #: fleet is heterogeneous (some homes have bad WiFi, some great).
    quality: float = 1.0
    #: Probability the probe is connected at any given snapshot.
    availability: float = 1.0
    #: True for probes hosted in managed (non-residential) networks --
    #: the RIPE Atlas deployment bias the paper highlights.
    managed: bool = False

    def __post_init__(self) -> None:
        if self.quality <= 0:
            raise ValueError(f"quality must be positive: {self.probe_id}")
        if not 0.0 < self.availability <= 1.0:
            raise ValueError(f"availability must be in (0, 1]: {self.probe_id}")

    @property
    def is_wireless(self) -> bool:
        return self.access.is_wireless

    @property
    def device_ip(self) -> str:
        return format_ip(self.device_address)

    @property
    def public_ip(self) -> str:
        return format_ip(self.public_address)

    @property
    def city_key(self) -> Tuple[int, int]:
        return city_key_for(self)

    def __repr__(self) -> str:
        return (
            f"Probe({self.probe_id}, {self.country}, {self.access}, "
            f"AS{self.isp_asn})"
        )


def city_key_for(probe: "Probe") -> Tuple[int, int]:
    """Quantize a probe location to a ~metro-sized grid cell."""
    return (
        int(round(probe.location.lat / CITY_CELL_DEGREES)),
        int(round(probe.location.lon / CITY_CELL_DEGREES)),
    )
