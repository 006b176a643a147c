"""Per-record reference for :class:`repro.resolve.pipeline.TracerouteResolver`.

This is the traceroute-resolution pipeline as it ran before the batch
path classified each distinct address once and before resolution became
columnar: one :class:`ResolvedTrace` per record, one :class:`ResolvedHop`
per hop.  Every hop is tested against the private ranges with
:func:`~repro.net.ip.is_private_ip`, scanned against every IXP peering
LAN with :meth:`~repro.net.ixp.IXPRegistry.ixp_for_address`, and
resolved with a scalar longest-prefix match, falling back to Cymru on a
miss.  Only public, non-IXP addresses are cached.  Parity tests assert
that ``TracerouteResolver.resolve_many`` over the same traces as a
block holds equal rows (:func:`block_rows` == :func:`trace_rows`) and
issues the same number of Cymru queries.

:func:`block_from_resolved` goes the other way: it lays hand-built
:class:`ResolvedTrace` values out as a
:class:`~repro.resolve.pipeline.ResolvedTraceBlock`, so analysis tests
can state their cases per trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.measure.results import (
    TraceBlock,
    TraceHop,
    TracerouteMeasurement,
    trace_block_from_records,
)
from repro.net.asn import ASRegistry
from repro.net.ip import is_private_ip
from repro.net.ixp import IXPRegistry
from repro.resolve.cymru import CymruResolver
from repro.resolve.pipeline import (
    DEFAULT_RESOLVER_SEED,
    INFERRED_ACCESS,
    NO_ASN,
    ResolvedTraceBlock,
)
from repro.resolve.pyasn import PyASNResolver


class ResolvedHop(NamedTuple):
    """One traceroute hop after resolution."""

    address: Optional[int]
    rtt_ms: Optional[float]
    asn: Optional[int]
    is_private: bool
    ixp_id: Optional[int]
    resolved_by: str

    @property
    def responded(self) -> bool:
        return self.address is not None


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
        self, measurements: Sequence[TracerouteMeasurement]
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


def _optional(value: float) -> Optional[float]:
    return None if math.isnan(value) else value


def trace_rows(traces: Sequence[ResolvedTrace]) -> List[tuple]:
    """What a :class:`ResolvedTraceBlock` row holds, per oracle trace:
    hops as (address, rtt, asn, private, ixp id), AS path, IXP
    sightings, inferred access and the router, USR-ISP and end-to-end
    RTTs (``None`` where undefined)."""
    return [
        (
            tuple(
                (hop.address, hop.rtt_ms, hop.asn, hop.is_private, hop.ixp_id)
                for hop in trace.hops
            ),
            trace.as_path,
            trace.ixp_after_index,
            trace.inferred_access,
            trace.router_rtt_ms,
            trace.usr_isp_rtt_ms,
            trace.end_to_end_rtt_ms,
        )
        for trace in traces
    ]


def block_rows(block: ResolvedTraceBlock) -> List[tuple]:
    """The rows of a resolved block in the shape of :func:`trace_rows`."""
    traces = block.traces
    rows = []
    for i in range(len(block)):
        lo, hi = int(traces.hop_offsets[i]), int(traces.hop_offsets[i + 1])
        hops = []
        for j in range(lo, hi):
            address = int(traces.hop_addresses[j])
            asn = int(block.hop_asns[j])
            ixp_id = int(block.hop_ixp_ids[j])
            hops.append(
                (
                    None if address == TraceBlock.NO_ADDRESS else address,
                    _optional(float(traces.hop_rtts[j])),
                    None if asn == NO_ASN else asn,
                    bool(block.hop_private[j]),
                    None if ixp_id < 0 else ixp_id,
                )
            )
        path_lo, path_hi = block.as_path_offsets[i], block.as_path_offsets[i + 1]
        ixp_lo, ixp_hi = block.ixp_offsets[i], block.ixp_offsets[i + 1]
        access = int(block.inferred_access[i])
        rows.append(
            (
                tuple(hops),
                tuple(block.as_path_asns[path_lo:path_hi].tolist()),
                tuple(
                    zip(
                        block.ixp_positions[ixp_lo:ixp_hi].tolist(),
                        block.ixp_ids[ixp_lo:ixp_hi].tolist(),
                    )
                ),
                None if access < 0 else INFERRED_ACCESS[access],
                _optional(float(block.router_rtts[i])),
                _optional(float(block.usr_isp_rtts[i])),
                _optional(float(block.end_to_end_rtts[i])),
            )
        )
    return rows


def _nan(value: Optional[float]) -> float:
    return math.nan if value is None else value


def block_from_resolved(traces: Sequence[ResolvedTrace]) -> ResolvedTraceBlock:
    """Hand-built resolved traces as one :class:`ResolvedTraceBlock`.

    The hop columns come from each trace's resolved :attr:`hops` (not
    from its measurement), the end-to-end RTT from its measurement.
    """
    identity = trace_block_from_records([trace.measurement for trace in traces])
    hops = [hop for trace in traces for hop in trace.hops]
    ixps = [entry for trace in traces for entry in trace.ixp_after_index]
    traces_block = TraceBlock(
        probes=identity.probes,
        regions=identity.regions,
        probe_codes=identity.probe_codes,
        region_codes=identity.region_codes,
        days=identity.days,
        protocol_codes=identity.protocol_codes,
        source_addresses=identity.source_addresses,
        dest_addresses=identity.dest_addresses,
        hop_offsets=_offsets([len(trace.hops) for trace in traces]),
        hop_addresses=np.array(
            [TraceBlock.NO_ADDRESS if h.address is None else h.address for h in hops],
            np.int64,
        ),
        hop_rtts=np.array([_nan(hop.rtt_ms) for hop in hops], np.float64),
    )
    return ResolvedTraceBlock(
        traces=traces_block,
        hop_asns=np.array(
            [NO_ASN if hop.asn is None else hop.asn for hop in hops], np.int64
        ),
        hop_private=np.array([hop.is_private for hop in hops], bool),
        hop_ixp_ids=np.array(
            [-1 if hop.ixp_id is None else hop.ixp_id for hop in hops], np.int64
        ),
        as_path_offsets=_offsets([len(trace.as_path) for trace in traces]),
        as_path_asns=np.array(
            [asn for trace in traces for asn in trace.as_path], np.int64
        ),
        ixp_offsets=_offsets([len(trace.ixp_after_index) for trace in traces]),
        ixp_positions=np.array([position for position, _ in ixps], np.int64),
        ixp_ids=np.array([ixp_id for _, ixp_id in ixps], np.int64),
        inferred_access=np.array(
            [
                -1
                if trace.inferred_access is None
                else INFERRED_ACCESS.index(trace.inferred_access)
                for trace in traces
            ],
            np.int8,
        ),
        router_rtts=np.array([_nan(t.router_rtt_ms) for t in traces], np.float64),
        usr_isp_rtts=np.array([_nan(t.usr_isp_rtt_ms) for t in traces], np.float64),
        end_to_end_rtts=np.array(
            [_nan(t.end_to_end_rtt_ms) for t in traces], np.float64
        ),
    )


def _offsets(counts: Sequence[int]) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(counts, dtype=np.int64)]).astype(np.int64)
