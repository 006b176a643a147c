"""The traceroute-resolution pipeline (paper sections 3.3 and 6.1).

For every raw traceroute the pipeline:

1. resolves each responding hop to an ASN with the PyASN-equivalent
   longest-prefix-match table, falling back to the Cymru-style service
   for unresolved public addresses;
2. tags private-address hops (home LANs, CGN) and IXP peering-LAN hops
   (CAIDA-style dataset);
3. collapses the hop sequence into an AS-level path with IXPs and
   private hops removed, recording where IXPs appeared;
4. infers the last-mile: probes whose first hop is a private address are
   *home* (WiFi) probes; probes whose first hop is already inside the
   serving ISP are *cell* probes -- including the VPN/CGN false positives
   the paper warns about;
5. extracts the last-mile RTT segments (USR-ISP and RTR-ISP).

Steps 1 and 2 depend only on the hop address, so a batch classifies each
distinct address once, in NumPy, and steps 3 to 5 read that
classification per hop.  The per-hop reference implementation the batch
path must match lives with the tests (``tests/oracles/resolver.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.gcpause import gc_paused
from repro.measure.results import TracerouteMeasurement
from repro.net.asn import ASRegistry
from repro.net.ip import private_mask
from repro.net.ixp import IXPRegistry
from repro.resolve.cymru import CymruResolver
from repro.resolve.pyasn import PyASNResolver

#: Seed of the resolver's own RIB-coverage stream when the caller does
#: not thread a generator.  Fixed (and independent of the campaign's
#: master seed) so that *which* addresses fall outside the simulated RIB
#: snapshot stays identical across runs and across campaign seeds --
#: resolution noise must never vary between otherwise-identical
#: longitudinal datasets.
DEFAULT_RESOLVER_SEED = 0


class ResolvedHop(NamedTuple):
    """One traceroute hop after resolution.

    A named tuple rather than a dataclass, like
    :class:`~repro.measure.results.TraceHop`: resolution allocates one
    per hop of every trace.
    """

    address: Optional[int]
    rtt_ms: Optional[float]
    asn: Optional[int]
    is_private: bool
    ixp_id: Optional[int]
    resolved_by: str

    @property
    def responded(self) -> bool:
        return self.address is not None


#: What resolution learns from a hop address alone:
#: ``(asn, is_private, ixp_id, resolved_by)``, the last four fields of
#: :class:`ResolvedHop`.
HopKind = Tuple[Optional[int], bool, Optional[int], str]

_PRIVATE: HopKind = (None, True, None, "private")
_UNRESOLVED: HopKind = (None, False, None, "none")
#: Every unresponsive hop resolves to this one value.
_UNRESPONSIVE = ResolvedHop(None, None, None, False, None, "none")


@dataclass(frozen=True)
class ResolvedTrace:
    """A traceroute after the full resolution pipeline."""

    measurement: TracerouteMeasurement
    hops: Tuple[ResolvedHop, ...]
    #: AS-level path with private hops and IXPs removed, consecutive
    #: duplicates collapsed.
    as_path: Tuple[int, ...]
    #: IXP ids observed, keyed by the index in :attr:`as_path` *after*
    #: which the IXP hop appeared.
    ixp_after_index: Tuple[Tuple[int, int], ...]
    #: ``"home"`` (private first hop), ``"cell"`` (ISP first hop), or
    #: ``None`` when the first hop did not respond / resolve.
    inferred_access: Optional[str]
    #: RTT to the home router (home probes only).
    router_rtt_ms: Optional[float]
    #: RTT to the first hop inside the serving ISP's AS.
    usr_isp_rtt_ms: Optional[float]

    @property
    def meta(self):
        return self.measurement.meta

    @property
    def reached(self) -> bool:
        return self.measurement.reached

    @property
    def end_to_end_rtt_ms(self) -> Optional[float]:
        return self.measurement.end_to_end_rtt_ms

    @property
    def rtr_isp_rtt_ms(self) -> Optional[float]:
        """Wired segment of the home last mile (USR-ISP minus the air leg)."""
        if self.router_rtt_ms is None or self.usr_isp_rtt_ms is None:
            return None
        return max(0.0, self.usr_isp_rtt_ms - self.router_rtt_ms)

    def provider_hop_share(self, cloud_asn: int) -> Optional[float]:
        """Share of responding routers owned by the cloud network
        (the paper's pervasiveness metric, Fig. 11)."""
        responded = [hop for hop in self.hops if hop.responded]
        if not responded:
            return None
        owned = sum(1 for hop in responded if hop.asn == cloud_asn)
        return owned / len(responded)

    def intermediate_asns(self, isp_asn: int, cloud_asn: int) -> Optional[List[int]]:
        """ASes strictly between the serving ISP and the cloud network.

        Returns ``None`` when either end is missing from the AS path
        (unresponsive edge hops) -- such paths are excluded from peering
        classification, as in the paper.
        """
        if cloud_asn not in self.as_path:
            return None
        cloud_index = max(
            i for i, asn in enumerate(self.as_path) if asn == cloud_asn
        )
        if isp_asn in self.as_path:
            isp_index = self.as_path.index(isp_asn)
        elif self.as_path and self.as_path[0] != cloud_asn:
            # The ISP's own routers were unresponsive; treat the first
            # observed AS as the serving side (a known methodology
            # artifact the paper acknowledges).
            isp_index = 0
        else:
            return None
        if isp_index >= cloud_index:
            return []
        return list(self.as_path[isp_index + 1 : cloud_index])


class TracerouteResolver:
    """Resolves raw traceroutes using the full pipeline.

    Classifications are cached per address for the resolver's lifetime,
    so the AS and IXP registries must not change after construction.
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
        self._kinds: Dict[int, HopKind] = {}

    @property
    def cymru_query_count(self) -> int:
        return self._cymru.query_count

    def resolve_many(
        self, measurements: Sequence[TracerouteMeasurement]
    ) -> List[ResolvedTrace]:
        """Run the pipeline over a traceroute batch.

        Every hop address the resolver has not seen before is classified
        once for the whole batch: a private-range mask, an IXP peering-LAN
        lookup, then one vectorized longest-prefix-match pass over the
        remaining public addresses, with per-address Cymru queries only
        for its misses.  Each trace is then assembled from the cached
        classifications.
        """
        kinds = self._kinds
        with gc_paused():
            fresh = {
                address
                for measurement in measurements
                for address, _ in measurement.hops
                if address not in kinds
            }
            fresh.discard(None)
            if fresh:
                self._classify(
                    np.sort(np.fromiter(fresh, dtype=np.int64, count=len(fresh)))
                )
            return [self._assemble(measurement) for measurement in measurements]

    def resolve(self, measurement: TracerouteMeasurement) -> ResolvedTrace:
        """Run the pipeline over one raw traceroute."""
        return self.resolve_many([measurement])[0]

    def _classify(self, addresses: np.ndarray) -> None:
        """Cache the :data:`HopKind` of each (uncached, distinct) address.

        Private space wins over an IXP LAN, and an IXP LAN over the
        RIB, so only public non-IXP addresses reach the table lookup.
        """
        private = private_mask(addresses)
        ixp_ids = self._ixps.ixp_ids_for(addresses)
        public = ~private & (ixp_ids < 0)
        asns = np.full(addresses.shape, -1, dtype=np.int64)
        if public.any():
            asns[public] = self._pyasn.lookup_many(addresses[public])
        kinds = self._kinds
        for address, is_private, ixp_id, asn in zip(
            addresses.tolist(), private.tolist(), ixp_ids.tolist(), asns.tolist()
        ):
            if is_private:
                kinds[address] = _PRIVATE
            elif ixp_id >= 0:
                kinds[address] = (None, False, ixp_id, "ixp")
            elif asn >= 0:
                kinds[address] = (asn, False, None, "pyasn")
            else:
                fallback = self._cymru.lookup(address)
                kinds[address] = (
                    _UNRESOLVED if fallback is None else (fallback, False, None, "cymru")
                )

    def _assemble(self, measurement: TracerouteMeasurement) -> ResolvedTrace:
        """Steps 3-5 for one trace, from cached hop classifications.

        The AS path drops private, IXP and unresolved hops and collapses
        repeats; an IXP hop is recorded after the AS it followed.  The
        first responding hop decides the last mile: private -> *home*
        (its RTT is the router RTT), inside the serving ISP -> *cell*.
        The USR-ISP RTT is that of the first hop inside the serving ISP.
        """
        kinds = self._kinds
        isp_asn = measurement.meta.isp_asn
        hops: List[ResolvedHop] = []
        as_path: List[int] = []
        ixp_after: List[Tuple[int, int]] = []
        inferred: Optional[str] = None
        router_rtt: Optional[float] = None
        usr_isp_rtt: Optional[float] = None
        first = True
        isp_seen = False
        for address, rtt_ms in measurement.hops:
            if address is None:
                hops.append(_UNRESPONSIVE)
                continue
            asn, is_private, ixp_id, resolved_by = kinds[address]
            hops.append(
                ResolvedHop(address, rtt_ms, asn, is_private, ixp_id, resolved_by)
            )
            if first:
                first = False
                if is_private:
                    inferred = "home"
                    router_rtt = rtt_ms
                elif asn == isp_asn:
                    inferred = "cell"
            if not isp_seen and asn == isp_asn:
                isp_seen = True
                usr_isp_rtt = rtt_ms
            if is_private:
                continue
            if ixp_id is not None:
                if as_path:
                    ixp_after.append((len(as_path) - 1, ixp_id))
                continue
            if asn is None:
                continue
            if not as_path or as_path[-1] != asn:
                as_path.append(asn)
        return ResolvedTrace(
            measurement=measurement,
            hops=tuple(hops),
            as_path=tuple(as_path),
            ixp_after_index=tuple(ixp_after),
            inferred_access=inferred,
            router_rtt_ms=router_rtt,
            usr_isp_rtt_ms=usr_isp_rtt,
        )
