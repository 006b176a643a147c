"""Per-hop reference for :class:`repro.resolve.pipeline.TracerouteResolver`.

This is the traceroute-resolution pipeline as it ran before the batch
path classified each distinct address once: every hop is tested against
the private ranges with :func:`~repro.net.ip.is_private_ip`, scanned
against every IXP peering LAN with
:meth:`~repro.net.ixp.IXPRegistry.ixp_for_address`, and resolved with a
scalar longest-prefix match, falling back to Cymru on a miss.  Only
public, non-IXP addresses are cached.  Parity tests assert that
``TracerouteResolver.resolve_many`` returns equal traces and issues the
same number of Cymru queries.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.measure.results import TraceHop, TracerouteMeasurement
from repro.net.asn import ASRegistry
from repro.net.ip import is_private_ip
from repro.net.ixp import IXPRegistry
from repro.resolve.cymru import CymruResolver
from repro.resolve.pipeline import (
    DEFAULT_RESOLVER_SEED,
    ResolvedHop,
    ResolvedTrace,
)
from repro.resolve.pyasn import PyASNResolver


class ReferenceResolver:
    """Resolves one traceroute at a time, hop by hop.

    Takes the same arguments as ``TracerouteResolver``; given an equally
    seeded ``rng`` it drops the same RIB announcements.
    """

    def __init__(
        self,
        registry: ASRegistry,
        ixps: IXPRegistry,
        rib_coverage: float = 0.97,
        rng: Optional[np.random.Generator] = None,
        seed: int = DEFAULT_RESOLVER_SEED,
    ):
        if rib_coverage < 1.0 and rng is None:
            rng = np.random.default_rng(seed)
        self._pyasn = PyASNResolver(
            registry.prefix_table(), coverage=rib_coverage, rng=rng
        )
        self._cymru = CymruResolver(registry)
        self._ixps = ixps
        self._cache: Dict[int, Tuple[Optional[int], str]] = {}

    @property
    def cymru_query_count(self) -> int:
        return self._cymru.query_count

    def resolve_many(
        self, measurements: List[TracerouteMeasurement]
    ) -> List[ResolvedTrace]:
        return [self.resolve(measurement) for measurement in measurements]

    def resolve(self, measurement: TracerouteMeasurement) -> ResolvedTrace:
        hops = [self._resolve_hop(hop) for hop in measurement.hops]

        as_path: List[int] = []
        ixp_after: List[Tuple[int, int]] = []
        for hop in hops:
            if not hop.responded or hop.is_private:
                continue
            if hop.ixp_id is not None:
                if as_path:
                    ixp_after.append((len(as_path) - 1, hop.ixp_id))
                continue
            if hop.asn is None:
                continue
            if not as_path or as_path[-1] != hop.asn:
                as_path.append(hop.asn)

        inferred, router_rtt, usr_isp_rtt = self._infer_last_mile(
            hops, measurement.meta.isp_asn
        )
        return ResolvedTrace(
            measurement=measurement,
            hops=tuple(hops),
            as_path=tuple(as_path),
            ixp_after_index=tuple(ixp_after),
            inferred_access=inferred,
            router_rtt_ms=router_rtt,
            usr_isp_rtt_ms=usr_isp_rtt,
        )

    def _resolve_address(self, address: int) -> Tuple[Optional[int], str]:
        cached = self._cache.get(address)
        if cached is not None:
            return cached
        result: Tuple[Optional[int], str]
        asn = self._pyasn.lookup(address)
        if asn is not None:
            result = (asn, "pyasn")
        else:
            asn = self._cymru.lookup(address)
            result = (asn, "cymru") if asn is not None else (None, "none")
        self._cache[address] = result
        return result

    def _resolve_hop(self, hop: TraceHop) -> ResolvedHop:
        if hop.address is None:
            return ResolvedHop(
                address=None,
                rtt_ms=None,
                asn=None,
                is_private=False,
                ixp_id=None,
                resolved_by="none",
            )
        if is_private_ip(hop.address):
            return ResolvedHop(
                address=hop.address,
                rtt_ms=hop.rtt_ms,
                asn=None,
                is_private=True,
                ixp_id=None,
                resolved_by="private",
            )
        ixp = self._ixps.ixp_for_address(hop.address)
        if ixp is not None:
            return ResolvedHop(
                address=hop.address,
                rtt_ms=hop.rtt_ms,
                asn=None,
                is_private=False,
                ixp_id=ixp.ixp_id,
                resolved_by="ixp",
            )
        asn, resolved_by = self._resolve_address(hop.address)
        return ResolvedHop(
            address=hop.address,
            rtt_ms=hop.rtt_ms,
            asn=asn,
            is_private=False,
            ixp_id=None,
            resolved_by=resolved_by,
        )

    @staticmethod
    def _infer_last_mile(
        hops: List[ResolvedHop], isp_asn: int
    ) -> Tuple[Optional[str], Optional[float], Optional[float]]:
        first = next((hop for hop in hops if hop.responded), None)
        if first is None:
            return None, None, None
        router_rtt: Optional[float] = None
        inferred: Optional[str] = None
        if first.is_private:
            inferred = "home"
            router_rtt = first.rtt_ms
        elif first.asn == isp_asn:
            inferred = "cell"
        usr_isp_rtt = next(
            (hop.rtt_ms for hop in hops if hop.responded and hop.asn == isp_asn),
            None,
        )
        return inferred, router_rtt, usr_isp_rtt
