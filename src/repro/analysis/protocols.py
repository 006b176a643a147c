"""ICMP vs TCP latency comparison (paper section 3.3 and Fig. 15).

The paper compares end-to-end latencies per <country, datacenter> pair:
TCP from pings, ICMP from the destination hop of traceroutes (for
Speedchecker).  Medians per pair are summarized per continent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.analysis.stats import BoxStats, group_rows
from repro.geo.continents import Continent
from repro.measure.results import PROTOCOL_CODES, MeasurementDataset, Protocol
from repro.resolve.pipeline import ResolvedTraceBlock

PairKey = Tuple[str, str, str]  # (country, provider_code, region_id)


@dataclass(frozen=True)
class ProtocolComparison:
    """Per-continent TCP vs ICMP summary (Fig. 15)."""

    continent: Continent
    pair_count: int
    tcp: BoxStats
    icmp: BoxStats
    #: Median of per-pair relative differences (icmp - tcp) / tcp.
    median_relative_gap: float


def protocol_comparison(
    dataset: MeasurementDataset,
    traces: ResolvedTraceBlock,
    platform: str = "speedchecker",
    min_samples_per_pair: int = 4,
) -> Dict[Continent, ProtocolComparison]:
    """Fig. 15: per-pair median latencies over TCP vs ICMP by continent.

    Within each <country, datacenter> pair, the two protocols are
    compared over the *same set of probes* (those with measurements on
    both sides), so the comparison isolates protocol handling rather
    than probe-mix differences -- important at small fleet scales.
    """
    tcp_by_probe: Dict[PairKey, Dict[str, List[float]]] = {}
    continents: Dict[PairKey, Continent] = {}
    for ping in dataset.pings(platform=platform, protocol=Protocol.TCP):
        meta = ping.meta
        key = (meta.country, meta.provider_code, meta.region_id)
        tcp_by_probe.setdefault(key, {}).setdefault(meta.probe_id, []).extend(
            ping.samples
        )
        continents[key] = meta.continent

    icmp_by_probe: Dict[PairKey, Dict[str, List[float]]] = {}
    rtts = traces.end_to_end_rtts
    icmp = np.flatnonzero(
        (traces.probe_column("platform") == platform)
        & (traces.traces.protocol_codes == PROTOCOL_CODES[Protocol.ICMP])
        & ~np.isnan(rtts)
    )
    probes, regions = traces.traces.probes, traces.traces.regions
    groups = group_rows(
        traces.traces.probe_codes[icmp], traces.traces.region_codes[icmp]
    )
    for (probe_code, region_code), rows in groups:
        probe, region = probes[probe_code], regions[region_code]
        key = (probe.country, region.provider_code, region.region_id)
        icmp_by_probe.setdefault(key, {}).setdefault(probe.probe_id, []).extend(
            rtts[icmp[rows]].tolist()
        )
        continents[key] = probe.continent

    tcp_samples: Dict[PairKey, List[float]] = {}
    icmp_samples: Dict[PairKey, List[float]] = {}
    for key in set(tcp_by_probe) & set(icmp_by_probe):
        shared_probes = set(tcp_by_probe[key]) & set(icmp_by_probe[key])
        if not shared_probes:
            continue
        tcp_samples[key] = [
            sample
            for probe_id in shared_probes
            for sample in tcp_by_probe[key][probe_id]
        ]
        icmp_samples[key] = [
            sample
            for probe_id in shared_probes
            for sample in icmp_by_probe[key][probe_id]
        ]

    per_continent: Dict[Continent, Tuple[List[float], List[float], List[float]]] = {}
    for key in set(tcp_samples) & set(icmp_samples):
        tcp = tcp_samples[key]
        icmp = icmp_samples[key]
        if len(tcp) < min_samples_per_pair or len(icmp) < min_samples_per_pair:
            continue
        tcp_median = float(np.median(tcp))
        icmp_median = float(np.median(icmp))
        continent = continents[key]
        bucket = per_continent.setdefault(continent, ([], [], []))
        bucket[0].append(tcp_median)
        bucket[1].append(icmp_median)
        bucket[2].append((icmp_median - tcp_median) / tcp_median)

    result: Dict[Continent, ProtocolComparison] = {}
    for continent, (tcp_medians, icmp_medians, gaps) in per_continent.items():
        if not tcp_medians:
            continue
        result[continent] = ProtocolComparison(
            continent=continent,
            pair_count=len(tcp_medians),
            tcp=BoxStats.from_samples(tcp_medians),
            icmp=BoxStats.from_samples(icmp_medians),
            median_relative_gap=float(np.median(gaps)),
        )
    return result
