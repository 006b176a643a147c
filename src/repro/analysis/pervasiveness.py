"""Pervasiveness: how much of the user path the provider owns (Fig. 11)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.analysis.peering import trace_networks
from repro.analysis.stats import group_rows
from repro.geo.continents import Continent
from repro.measure.results import TraceBlock
from repro.resolve.pipeline import ResolvedTraceBlock


@dataclass(frozen=True)
class PervasivenessEntry:
    """Mean pervasiveness for one (provider network, probe continent)."""

    provider_code: str
    continent: Continent
    trace_count: int
    mean_share: float
    median_share: float


def provider_hop_shares(traces: ResolvedTraceBlock) -> np.ndarray:
    """Per trace: the share of responding routers owned by the target's
    cloud network, ``NaN`` when no hop responded."""
    n = len(traces)
    _, cloud = trace_networks(traces)
    owner = traces.hop_traces()
    responded = traces.traces.hop_addresses != TraceBlock.NO_ADDRESS
    counts = np.bincount(owner[responded], minlength=n)
    owned = np.bincount(
        owner[responded & (traces.hop_asns == cloud[owner])], minlength=n
    )
    shares = np.full(n, np.nan)
    some = counts > 0
    shares[some] = owned[some] / counts[some]
    return shares


def pervasiveness_by_provider(
    traces: ResolvedTraceBlock,
    min_traces: int = 5,
) -> List[PervasivenessEntry]:
    """Fig. 11: ratio of provider-owned routers to path length.

    Computed per resolved traceroute as the share of responding routers
    whose ASN is the provider's network, averaged per (provider,
    continent of the probe).
    """
    shares = provider_hop_shares(traces)
    measured = ~np.isnan(shares)
    shares = shares[measured]
    networks, _ = trace_networks(traces)
    groups = group_rows(
        networks[measured], traces.probe_column("continent")[measured]
    )
    entries: List[PervasivenessEntry] = []
    for (code, continent), rows in sorted(groups, key=lambda group: group[0]):
        if len(rows) < min_traces:
            continue
        values = shares[rows]
        entries.append(
            PervasivenessEntry(
                provider_code=code,
                continent=Continent(continent),
                trace_count=int(values.size),
                mean_share=float(values.mean()),
                median_share=float(np.median(values)),
            )
        )
    return entries


def overall_pervasiveness(
    entries: Iterable[PervasivenessEntry],
) -> Dict[str, float]:
    """Trace-weighted global mean pervasiveness per provider."""
    totals: Dict[str, Tuple[float, int]] = {}
    for entry in entries:
        weight_sum, count = totals.get(entry.provider_code, (0.0, 0))
        totals[entry.provider_code] = (
            weight_sum + entry.mean_share * entry.trace_count,
            count + entry.trace_count,
        )
    return {
        code: weight_sum / count
        for code, (weight_sum, count) in totals.items()
        if count
    }
