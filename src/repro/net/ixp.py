"""Internet eXchange Points.

IXPs are layer-2 fabrics where member ASes establish peering sessions.
They are not ASes themselves, but their peering-LAN prefixes show up as
hops in traceroutes -- the paper identifies and strips them using the
CAIDA IXP dataset before classifying interconnection types (section 6.1).
This module is the synthetic equivalent of that dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Union

import numpy as np

from repro.geo.continents import Continent
from repro.geo.coords import GeoPoint
from repro.net.ip import IPv4Prefix


@dataclass
class IXP:
    """An exchange point with a peering-LAN prefix and a member list."""

    ixp_id: int
    name: str
    location: GeoPoint
    continent: Continent
    peering_lan: IPv4Prefix
    members: Set[int] = field(default_factory=set)

    def add_member(self, asn: int) -> None:
        self.members.add(asn)

    def lan_address_for(self, asn: int) -> int:
        """Deterministic peering-LAN address for a member AS."""
        if asn not in self.members:
            raise ValueError(f"AS {asn} is not a member of {self.name}")
        offset = (asn % (self.peering_lan.size - 2)) + 1
        return self.peering_lan.address_at(offset)

    def __repr__(self) -> str:
        return (
            f"IXP(id={self.ixp_id}, name={self.name!r}, "
            f"members={len(self.members)})"
        )


class IXPRegistry:
    """All IXPs in a world; the synthetic CAIDA IXP dataset."""

    def __init__(self) -> None:
        self._by_id: Dict[int, IXP] = {}

    def add(self, ixp: IXP) -> IXP:
        if ixp.ixp_id in self._by_id:
            raise ValueError(f"duplicate IXP id {ixp.ixp_id}")
        self._by_id[ixp.ixp_id] = ixp
        return ixp

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self):
        return iter(self._by_id.values())

    def get(self, ixp_id: int) -> IXP:
        try:
            return self._by_id[ixp_id]
        except KeyError:
            raise KeyError(f"unknown IXP id {ixp_id}") from None

    def in_continent(self, continent: Continent) -> List[IXP]:
        return [
            ixp
            for ixp in self._by_id.values()
            if ixp.continent is Continent(continent)
        ]

    def ixp_for_address(self, address: int) -> Optional[IXP]:
        """The IXP whose peering LAN contains ``address``, if any.

        This is the lookup the paper performs against the CAIDA dataset
        to tag IXP hops in traceroutes.
        """
        for ixp in self._by_id.values():
            if ixp.peering_lan.contains(address):
                return ixp
        return None

    def ixp_ids_for(
        self, addresses: Union[np.ndarray, Sequence[int]]
    ) -> np.ndarray:
        """Vectorized :meth:`ixp_for_address` over an address batch.

        Returns the ``ixp_id`` of the matching IXP per address, ``-1``
        where no peering LAN contains it.  Where LANs overlap, the IXP
        registered first wins, as in :meth:`ixp_for_address`.
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        ids = np.full(addresses.shape, -1, dtype=np.int64)
        for ixp in self._by_id.values():
            lan = ixp.peering_lan
            ids[(ids < 0) & ((addresses & lan.mask) == lan.base)] = ixp.ixp_id
        return ids

    def peering_lan_prefixes(self) -> List[IPv4Prefix]:
        return [ixp.peering_lan for ixp in self._by_id.values()]
