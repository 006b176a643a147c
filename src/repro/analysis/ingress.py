"""WAN ingress locality (paper section 6.2, closing observation).

The paper observes -- echoing Arnold et al. -- that privately
interconnected paths can ingress the cloud WAN either close to the
vantage point or close to the server: direct-peered traffic enters the
provider's network near the user and rides the WAN for most of the
distance, while public-transit traffic only reaches provider routers next
to the datacenter.  This module measures ingress depth from resolved
traceroutes: the relative position of the first provider-owned hop along
the responding hop sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.analysis.peering import (
    CATEGORIES,
    DIRECT,
    ONE_IXP,
    UNCLASSIFIED,
    classify_traces,
    trace_networks,
)
from repro.measure.results import TraceBlock
from repro.resolve.pipeline import ResolvedTraceBlock, first_per_row


@dataclass(frozen=True)
class IngressStats:
    """Ingress-depth distribution for one interconnect group."""

    group: str
    trace_count: int
    #: Mean relative position (0 = at the user, 1 = at the datacenter)
    #: of the first provider-owned hop.
    mean_ingress_depth: float
    median_ingress_depth: float


def ingress_depths(traces: ResolvedTraceBlock) -> np.ndarray:
    """Per trace: the relative position of the first hop owned by the
    target's cloud network, or ``NaN``.

    Computed over responding hops only; a value near 0 means the traffic
    entered the provider's network right after the serving ISP.  Traces
    with fewer than two responding hops, or none owned by the cloud
    network, have no depth.
    """
    n = len(traces)
    _, cloud = trace_networks(traces)
    responded = np.flatnonzero(traces.traces.hop_addresses != TraceBlock.NO_ADDRESS)
    owner = traces.hop_traces()[responded]
    counts = np.bincount(owner, minlength=n)
    rank = np.arange(len(responded)) - (np.cumsum(counts) - counts)[owner]
    owned = traces.hop_asns[responded] == cloud[owner]
    first = first_per_row(owner[owned], rank[owned], n)
    depths = np.full(n, np.nan)
    found = (counts >= 2) & (first >= 0)
    depths[found] = first[found] / (counts[found] - 1)
    return depths


def ingress_by_interconnect(
    traces: ResolvedTraceBlock,
    min_traces: int = 10,
) -> Dict[str, IngressStats]:
    """Ingress depth grouped by interconnect class (direct vs transited).

    Reproduces the section-6.2 observation: direct peering ingresses the
    WAN near the user (low depth); transited paths ingress near the
    datacenter (high depth).
    """
    categories = classify_traces(traces)
    depths = ingress_depths(traces)
    usable = (categories != UNCLASSIFIED) & ~np.isnan(depths)
    direct = np.isin(categories, (CATEGORIES.index(DIRECT), CATEGORIES.index(ONE_IXP)))
    result: Dict[str, IngressStats] = {}
    for group, members in (("direct", direct), ("intermediate", ~direct)):
        values = depths[usable & members]
        if len(values) < min_traces:
            continue
        result[group] = IngressStats(
            group=group,
            trace_count=int(values.size),
            mean_ingress_depth=float(values.mean()),
            median_ingress_depth=float(np.median(values)),
        )
    return result
