"""Record-loop references for the trace analyses.

These are :mod:`repro.analysis.lastmile`, :mod:`~repro.analysis.peering`,
:mod:`~repro.analysis.pervasiveness`, :mod:`~repro.analysis.ingress` and
:mod:`~repro.analysis.protocols` as they ran before they became
group-bys over a :class:`~repro.resolve.pipeline.ResolvedTraceBlock`:
one Python pass over a list of :class:`oracles.resolver.ResolvedTrace`,
filling dicts of lists.  Parity tests assert that each columnar analysis
returns what its reference here returns, in the same order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from helpers import pings
from oracles.resolver import ResolvedTrace

from repro.analysis.ingress import IngressStats
from repro.analysis.lastmile import (
    ATLAS,
    CELL,
    FIG9_COUNTRIES,
    HOME_RTR_ISP,
    HOME_USR_ISP,
)
from repro.analysis.nearest import NearestMap
from repro.analysis.peering import (
    DIRECT,
    ONE_AS,
    ONE_IXP,
    PEERING_PROVIDERS,
    TWO_PLUS_AS,
    InterconnectLatency,
    MatrixCell,
    ProviderBreakdown,
)
from repro.analysis.pervasiveness import PervasivenessEntry
from repro.analysis.protocols import PairKey, ProtocolComparison
from repro.analysis.stats import BoxStats, coefficient_of_variation
from repro.cloud.providers import network_operator
from repro.geo.continents import Continent
from repro.measure.results import MeasurementDataset, Protocol


# -- last mile (Figs. 7, 8, 9, 19) ---------------------------------------------


@dataclass(frozen=True)
class LastMileSample:
    """One extracted last-mile observation."""

    probe_id: str
    platform: str
    country: str
    continent: Continent
    category: str
    latency_ms: float
    share_of_total: Optional[float]


def extract_last_mile(
    traces: Iterable[ResolvedTrace],
) -> List[LastMileSample]:
    """Last-mile observations from resolved traceroutes.

    Home probes contribute both a USR-ISP and an RTR-ISP observation;
    cell probes one; Atlas (wired) probes contribute to the Atlas series.
    Traces whose first hop could not be classified are skipped, as are
    those without a resolvable ISP hop.
    """
    samples: List[LastMileSample] = []
    for trace in traces:
        meta = trace.meta
        usr_isp = trace.usr_isp_rtt_ms
        if usr_isp is None:
            continue
        total = trace.end_to_end_rtt_ms
        share = (usr_isp / total) if total else None

        if meta.platform == "atlas":
            samples.append(
                LastMileSample(
                    probe_id=meta.probe_id,
                    platform=meta.platform,
                    country=meta.country,
                    continent=meta.continent,
                    category=ATLAS,
                    latency_ms=usr_isp,
                    share_of_total=share,
                )
            )
            continue
        if trace.inferred_access == "home":
            samples.append(
                LastMileSample(
                    probe_id=meta.probe_id,
                    platform=meta.platform,
                    country=meta.country,
                    continent=meta.continent,
                    category=HOME_USR_ISP,
                    latency_ms=usr_isp,
                    share_of_total=share,
                )
            )
            rtr_isp = trace.rtr_isp_rtt_ms
            if rtr_isp is not None:
                samples.append(
                    LastMileSample(
                        probe_id=meta.probe_id,
                        platform=meta.platform,
                        country=meta.country,
                        continent=meta.continent,
                        category=HOME_RTR_ISP,
                        latency_ms=rtr_isp,
                        share_of_total=(rtr_isp / total) if total else None,
                    )
                )
        elif trace.inferred_access == "cell":
            samples.append(
                LastMileSample(
                    probe_id=meta.probe_id,
                    platform=meta.platform,
                    country=meta.country,
                    continent=meta.continent,
                    category=CELL,
                    latency_ms=usr_isp,
                    share_of_total=share,
                )
            )
    return samples


def share_by_continent(
    samples: Sequence[LastMileSample],
    categories: Sequence[str] = (HOME_USR_ISP, CELL, HOME_RTR_ISP),
    min_samples: int = 5,
) -> Dict[Tuple[Continent, str], BoxStats]:
    """Fig. 7a / Fig. 19: last-mile share of total latency (percent)."""
    grouped: Dict[Tuple[Continent, str], List[float]] = {}
    for sample in samples:
        if sample.category not in categories:
            continue
        if sample.share_of_total is None:
            continue
        key = (sample.continent, sample.category)
        grouped.setdefault(key, []).append(100.0 * sample.share_of_total)
    return {
        key: BoxStats.from_samples(values)
        for key, values in grouped.items()
        if len(values) >= min_samples
    }


def absolute_by_continent(
    samples: Sequence[LastMileSample],
    categories: Sequence[str] = (HOME_USR_ISP, CELL, HOME_RTR_ISP, ATLAS),
    min_samples: int = 5,
) -> Dict[Tuple[Continent, str], BoxStats]:
    """Fig. 7b: absolute last-mile latency per continent and category."""
    grouped: Dict[Tuple[Continent, str], List[float]] = {}
    for sample in samples:
        if sample.category not in categories:
            continue
        key = (sample.continent, sample.category)
        grouped.setdefault(key, []).append(sample.latency_ms)
    return {
        key: BoxStats.from_samples(values)
        for key, values in grouped.items()
        if len(values) >= min_samples
    }


def per_probe_cv(
    samples: Sequence[LastMileSample],
    categories: Sequence[str] = (HOME_USR_ISP, CELL),
    min_samples: int = 5,
) -> List[Tuple[LastMileSample, float]]:
    """Per-probe last-mile Cv (one representative sample, Cv) pairs.

    Mirrors the paper's per-probe computation: all last-mile latencies of
    one probe (within a category) form the sample set; probes with fewer
    than ``min_samples`` observations are dropped.
    """
    grouped: Dict[Tuple[str, str], List[LastMileSample]] = {}
    for sample in samples:
        if sample.category not in categories:
            continue
        grouped.setdefault((sample.probe_id, sample.category), []).append(sample)
    results: List[Tuple[LastMileSample, float]] = []
    for (_, _), probe_samples in grouped.items():
        if len(probe_samples) < min_samples:
            continue
        values = [sample.latency_ms for sample in probe_samples]
        results.append(
            (probe_samples[0], coefficient_of_variation(values))
        )
    return results


def cv_by_continent(
    samples: Sequence[LastMileSample],
    min_samples: int = 5,
    min_probes: int = 3,
) -> Dict[Tuple[Continent, str], BoxStats]:
    """Fig. 8: distribution of per-probe last-mile Cv per continent."""
    per_probe = per_probe_cv(samples, min_samples=min_samples)
    grouped: Dict[Tuple[Continent, str], List[float]] = {}
    for sample, cv in per_probe:
        grouped.setdefault((sample.continent, sample.category), []).append(cv)
    return {
        key: BoxStats.from_samples(values)
        for key, values in grouped.items()
        if len(values) >= min_probes
    }


def cv_by_country(
    samples: Sequence[LastMileSample],
    countries: Sequence[str] = FIG9_COUNTRIES,
    min_samples: int = 5,
    min_probes: int = 3,
) -> Dict[Tuple[str, str], BoxStats]:
    """Fig. 9: per-probe last-mile Cv for representative countries."""
    wanted = set(countries)
    per_probe = per_probe_cv(samples, min_samples=min_samples)
    grouped: Dict[Tuple[str, str], List[float]] = {}
    for sample, cv in per_probe:
        if sample.country not in wanted:
            continue
        grouped.setdefault((sample.country, sample.category), []).append(cv)
    return {
        key: BoxStats.from_samples(values)
        for key, values in grouped.items()
        if len(values) >= min_probes
    }


def filter_to_nearest(
    traces: Iterable[ResolvedTrace], nearest: NearestMap
) -> List[ResolvedTrace]:
    """Traces restricted to each probe's nearest datacenter (Fig. 19)."""
    kept: List[ResolvedTrace] = []
    for trace in traces:
        meta = trace.meta
        if nearest.region_for(meta.probe_id) == (
            meta.provider_code,
            meta.region_id,
        ):
            kept.append(trace)
    return kept


# -- interconnection (Figs. 10, 12, 13, 17, 18) -------------------------------


def classify_trace(trace: ResolvedTrace) -> Optional[str]:
    """Interconnect category of one resolved traceroute, or ``None``
    when the path cannot be classified (did not reach, ends missing)."""
    network = network_operator(trace.meta.provider_code)
    intermediates = trace.intermediate_asns(trace.meta.isp_asn, network.asn)
    if intermediates is None:
        return None
    if len(intermediates) == 0:
        if trace.ixp_after_index:
            return ONE_IXP
        return DIRECT
    if len(intermediates) == 1:
        return ONE_AS
    return TWO_PLUS_AS


def provider_breakdowns(
    traces: Iterable[ResolvedTrace],
    min_paths: int = 10,
) -> List[ProviderBreakdown]:
    """Fig. 10: AS-level interconnect mix per provider network."""
    counts: Dict[str, Counter] = {}
    for trace in traces:
        category = classify_trace(trace)
        if category is None:
            continue
        network = network_operator(trace.meta.provider_code).code
        counts.setdefault(network, Counter())[category] += 1
    breakdowns: List[ProviderBreakdown] = []
    for code in PEERING_PROVIDERS:
        counter = counts.get(code)
        if counter is None:
            continue
        total = sum(counter.values())
        if total < min_paths:
            continue
        direct = counter[DIRECT] + counter[ONE_IXP]
        breakdowns.append(
            ProviderBreakdown(
                provider_code=code,
                path_count=total,
                direct_share=direct / total,
                one_as_share=counter[ONE_AS] / total,
                two_plus_share=counter[TWO_PLUS_AS] / total,
            )
        )
    return breakdowns


def isp_provider_matrix(
    traces: Iterable[ResolvedTrace],
    source_country: str,
    registry,
    top_isps: int = 5,
    min_paths: int = 3,
) -> List[MatrixCell]:
    """The per-country peering matrix: top ISPs x provider networks.

    ISPs are ranked by recorded measurement volume, as in the paper
    ("top-5 ISPs ordered by number of recorded measurements").
    """
    by_isp: Dict[int, List[ResolvedTrace]] = {}
    for trace in traces:
        if trace.meta.country != source_country:
            continue
        by_isp.setdefault(trace.meta.isp_asn, []).append(trace)
    ranked = sorted(by_isp, key=lambda asn: len(by_isp[asn]), reverse=True)
    cells: List[MatrixCell] = []
    for isp_asn in ranked[:top_isps]:
        isp_name = registry.get(isp_asn).name if isp_asn in registry else str(isp_asn)
        per_provider: Dict[str, Counter] = {}
        for trace in by_isp[isp_asn]:
            category = classify_trace(trace)
            if category is None:
                continue
            network = network_operator(trace.meta.provider_code).code
            per_provider.setdefault(network, Counter())[category] += 1
        for provider_code, counter in sorted(per_provider.items()):
            total = sum(counter.values())
            if total < min_paths:
                continue
            category, count = counter.most_common(1)[0]
            cells.append(
                MatrixCell(
                    isp_asn=isp_asn,
                    isp_name=isp_name,
                    provider_code=provider_code,
                    path_count=total,
                    dominant_category=category,
                    dominant_share=count / total,
                )
            )
    return cells


def latency_by_interconnect(
    traces: Iterable[ResolvedTrace],
    min_measurements: int = 20,
) -> List[InterconnectLatency]:
    """Latency distributions per provider, direct vs intermediate-AS.

    Uses traceroute end-to-end RTTs (the paper relies solely on
    traceroute latencies for the peering analysis).  Groups below
    ``min_measurements`` are omitted, mirroring the paper's >=100 filter
    at full fleet scale.
    """
    grouped: Dict[Tuple[str, str], List[float]] = {}
    for trace in traces:
        category = classify_trace(trace)
        if category is None:
            continue
        rtt = trace.end_to_end_rtt_ms
        if rtt is None:
            continue
        group = "direct" if category in (DIRECT, ONE_IXP) else "intermediate"
        network = network_operator(trace.meta.provider_code).code
        grouped.setdefault((network, group), []).append(rtt)
    results: List[InterconnectLatency] = []
    for code in PEERING_PROVIDERS:
        direct_values = grouped.get((code, "direct"), [])
        transit_values = grouped.get((code, "intermediate"), [])
        direct = (
            BoxStats.from_samples(direct_values)
            if len(direct_values) >= min_measurements
            else None
        )
        intermediate = (
            BoxStats.from_samples(transit_values)
            if len(transit_values) >= min_measurements
            else None
        )
        if direct is None and intermediate is None:
            continue
        results.append(
            InterconnectLatency(
                provider_code=code, direct=direct, intermediate=intermediate
            )
        )
    return results


# -- pervasiveness (Fig. 11) and WAN ingress ---------------------------------


def pervasiveness_by_provider(
    traces: Iterable[ResolvedTrace],
    min_traces: int = 5,
) -> List[PervasivenessEntry]:
    """Fig. 11: ratio of provider-owned routers to path length.

    Computed per resolved traceroute as the share of responding routers
    whose ASN is the provider's network, averaged per (provider,
    continent of the probe).
    """
    grouped: Dict[Tuple[str, Continent], List[float]] = {}
    for trace in traces:
        network = network_operator(trace.meta.provider_code)
        share = trace.provider_hop_share(network.asn)
        if share is None:
            continue
        key = (network.code, trace.meta.continent)
        grouped.setdefault(key, []).append(share)
    entries: List[PervasivenessEntry] = []
    for (code, continent), shares in sorted(grouped.items()):
        if len(shares) < min_traces:
            continue
        values = np.asarray(shares, dtype=float)
        entries.append(
            PervasivenessEntry(
                provider_code=code,
                continent=continent,
                trace_count=int(values.size),
                mean_share=float(values.mean()),
                median_share=float(np.median(values)),
            )
        )
    return entries


def ingress_depth(trace: ResolvedTrace, cloud_asn: int) -> Optional[float]:
    """Relative position of the first provider-owned hop, or ``None``.

    Computed over responding hops only; a value near 0 means the traffic
    entered the provider's network right after the serving ISP.
    """
    responded = [hop for hop in trace.hops if hop.responded]
    if len(responded) < 2:
        return None
    for index, hop in enumerate(responded):
        if hop.asn == cloud_asn:
            return index / (len(responded) - 1)
    return None


def ingress_by_interconnect(
    traces: Iterable[ResolvedTrace],
    min_traces: int = 10,
) -> Dict[str, IngressStats]:
    """Ingress depth grouped by interconnect class (direct vs transited).

    Reproduces the section-6.2 observation: direct peering ingresses the
    WAN near the user (low depth); transited paths ingress near the
    datacenter (high depth).
    """
    groups: Dict[str, List[float]] = {"direct": [], "intermediate": []}
    for trace in traces:
        category = classify_trace(trace)
        if category is None:
            continue
        network = network_operator(trace.meta.provider_code)
        depth = ingress_depth(trace, network.asn)
        if depth is None:
            continue
        group = "direct" if category in (DIRECT, ONE_IXP) else "intermediate"
        groups[group].append(depth)
    result: Dict[str, IngressStats] = {}
    for group, depths in groups.items():
        if len(depths) < min_traces:
            continue
        values = np.asarray(depths)
        result[group] = IngressStats(
            group=group,
            trace_count=int(values.size),
            mean_ingress_depth=float(values.mean()),
            median_ingress_depth=float(np.median(values)),
        )
    return result


# -- ICMP vs TCP (Fig. 15) -----------------------------------------------------


def protocol_comparison(
    dataset: MeasurementDataset,
    traces: Iterable[ResolvedTrace],
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
    for ping in pings(dataset, platform=platform, protocol=Protocol.TCP):
        meta = ping.meta
        key = (meta.country, meta.provider_code, meta.region_id)
        tcp_by_probe.setdefault(key, {}).setdefault(meta.probe_id, []).extend(
            ping.samples
        )
        continents[key] = meta.continent

    icmp_by_probe: Dict[PairKey, Dict[str, List[float]]] = {}
    for trace in traces:
        meta = trace.meta
        if meta.platform != platform:
            continue
        if trace.measurement.protocol is not Protocol.ICMP:
            continue
        rtt = trace.end_to_end_rtt_ms
        if rtt is None:
            continue
        key = (meta.country, meta.provider_code, meta.region_id)
        icmp_by_probe.setdefault(key, {}).setdefault(meta.probe_id, []).append(
            rtt
        )
        continents[key] = meta.continent

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
