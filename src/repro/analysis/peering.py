"""ISP-cloud interconnection analysis (paper section 6; Figs. 10, 12, 13,
17, 18).

Paths are classified from resolved traceroutes using the paper's
methodology (section 6.1): IXP hops are identified and removed from the
AS-level topology; paths where the serving ISP and the cloud network are
adjacent are *direct* (flagged ``1 IXP`` when the session visibly crosses
an exchange fabric); one intermediate AS indicates *private* (carrier)
peering; two or more indicate the *public Internet*.  Every function
here is a group-by over the columns of a
:class:`~repro.resolve.pipeline.ResolvedTraceBlock`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.stats import BoxStats, group_rows
from repro.cloud.providers import PROVIDERS, network_operator
from repro.resolve.pipeline import (
    ResolvedTraceBlock,
    first_per_row,
    last_per_row,
)

#: Classification labels, matching the paper's figure legends.
DIRECT = "direct"
ONE_IXP = "1 IXP"
ONE_AS = "1 AS"
TWO_PLUS_AS = "2+ AS"
CATEGORIES = (DIRECT, ONE_AS, TWO_PLUS_AS, ONE_IXP)
#: :func:`classify_traces` codes: indices into :data:`CATEGORIES`, or
#: ``UNCLASSIFIED``.
_DIRECT, _ONE_AS, _TWO_PLUS_AS, _ONE_IXP = range(len(CATEGORIES))
UNCLASSIFIED = -1

#: Provider networks shown in the peering figures (LTSL rides AMZN).
PEERING_PROVIDERS = tuple(
    provider.code for provider in PROVIDERS if provider.owns_network
)


def provider_network_asns() -> Dict[str, int]:
    """Provider code -> cloud network ASN for all network operators."""
    return {
        provider.code: provider.asn
        for provider in PROVIDERS
        if provider.owns_network
    }


def trace_networks(traces: ResolvedTraceBlock) -> Tuple[np.ndarray, np.ndarray]:
    """Per trace: the code and the ASN of the network operating the
    target region (LTSL resolves to AMZN)."""
    operators = [
        network_operator(region.provider_code) for region in traces.traces.regions
    ]
    codes = traces.traces.region_codes
    return (
        np.asarray([operator.code for operator in operators])[codes],
        np.asarray([operator.asn for operator in operators], np.int64)[codes],
    )


def classify_traces(traces: ResolvedTraceBlock) -> np.ndarray:
    """Interconnect category of every trace: an index into
    :data:`CATEGORIES`, or :data:`UNCLASSIFIED` when the path cannot be
    classified (the cloud network is missing from the AS path, or the
    serving ISP is missing and the path starts at the cloud).

    The intermediate ASes are those strictly between the ISP's first and
    the cloud's last appearance on the AS path.  When the ISP's own
    routers were unresponsive, the first observed AS stands in for the
    serving side (a known methodology artifact the paper acknowledges).
    """
    n = len(traces)
    _, cloud = trace_networks(traces)
    isp = traces.probe_column("isp_asn")
    offsets = traces.as_path_offsets
    path = traces.as_path_asns
    owner = traces.path_traces()
    position = np.arange(len(path)) - offsets[owner]
    at_cloud = np.flatnonzero(path == cloud[owner])
    cloud_index = last_per_row(owner[at_cloud], position[at_cloud], n)
    at_isp = np.flatnonzero(path == isp[owner])
    isp_index = first_per_row(owner[at_isp], position[at_isp], n)
    starts = first_per_row(owner, path, n)
    isp_index = np.where((isp_index < 0) & (starts != cloud), 0, isp_index)
    between = cloud_index - isp_index - 1
    categories = np.select(
        [between <= 0, between == 1],
        [np.where(np.diff(traces.ixp_offsets) > 0, _ONE_IXP, _DIRECT), _ONE_AS],
        _TWO_PLUS_AS,
    )
    return np.where((cloud_index >= 0) & (isp_index >= 0), categories, UNCLASSIFIED)


@dataclass(frozen=True)
class ProviderBreakdown:
    """Fig. 10 row: interconnect shares for one provider network."""

    provider_code: str
    path_count: int
    #: Shares over {direct, 1 AS, 2+ AS}; IXP-visible direct paths are
    #: folded into ``direct`` as in Fig. 10.
    direct_share: float
    one_as_share: float
    two_plus_share: float


def provider_breakdowns(
    traces: ResolvedTraceBlock,
    min_paths: int = 10,
) -> List[ProviderBreakdown]:
    """Fig. 10: AS-level interconnect mix per provider network."""
    categories = classify_traces(traces)
    networks, _ = trace_networks(traces)
    breakdowns: List[ProviderBreakdown] = []
    for code in PEERING_PROVIDERS:
        counts = np.bincount(
            categories[(networks == code) & (categories != UNCLASSIFIED)],
            minlength=len(CATEGORIES),
        ).tolist()
        total = sum(counts)
        if total == 0 or total < min_paths:
            continue
        breakdowns.append(
            ProviderBreakdown(
                provider_code=code,
                path_count=total,
                direct_share=(counts[_DIRECT] + counts[_ONE_IXP]) / total,
                one_as_share=counts[_ONE_AS] / total,
                two_plus_share=counts[_TWO_PLUS_AS] / total,
            )
        )
    return breakdowns


@dataclass(frozen=True)
class MatrixCell:
    """One <ISP, provider> cell of Figs. 12a/13a/17a/18a."""

    isp_asn: int
    isp_name: str
    provider_code: str
    path_count: int
    dominant_category: str
    dominant_share: float


def isp_provider_matrix(
    traces: ResolvedTraceBlock,
    source_country: str,
    registry,
    top_isps: int = 5,
    min_paths: int = 3,
) -> List[MatrixCell]:
    """The per-country peering matrix: top ISPs x provider networks.

    ISPs are ranked by recorded measurement volume, as in the paper
    ("top-5 ISPs ordered by number of recorded measurements"), ties in
    the order they were first seen.  A cell's dominant category is the
    most frequent one, ties going to the one seen first.
    """
    local = np.flatnonzero(traces.probe_column("country") == source_country)
    by_isp = group_rows(traces.probe_column("isp_asn")[local])
    ranked = sorted(by_isp, key=lambda group: len(group[1]), reverse=True)
    categories = classify_traces(traces)
    networks, _ = trace_networks(traces)
    cells: List[MatrixCell] = []
    for (isp_asn,), rows in ranked[:top_isps]:
        isp_name = registry.get(isp_asn).name if isp_asn in registry else str(isp_asn)
        mine = local[rows]
        mine = mine[categories[mine] != UNCLASSIFIED]
        per_provider = sorted(group_rows(networks[mine]), key=lambda group: group[0])
        for (provider_code,), provider_rows in per_provider:
            found = categories[mine[provider_rows]]
            total = len(found)
            if total < min_paths:
                continue
            counts = np.bincount(found).tolist()
            seen, first = np.unique(found, return_index=True)
            category = max(seen[np.argsort(first)].tolist(), key=counts.__getitem__)
            cells.append(
                MatrixCell(
                    isp_asn=isp_asn,
                    isp_name=isp_name,
                    provider_code=provider_code,
                    path_count=total,
                    dominant_category=CATEGORIES[category],
                    dominant_share=counts[category] / total,
                )
            )
    return cells


@dataclass(frozen=True)
class InterconnectLatency:
    """Fig. 12b/13b entry: latency under direct vs transited peering."""

    provider_code: str
    direct: Optional[BoxStats]
    intermediate: Optional[BoxStats]


def latency_by_interconnect(
    traces: ResolvedTraceBlock,
    min_measurements: int = 20,
) -> List[InterconnectLatency]:
    """Latency distributions per provider, direct vs intermediate-AS.

    Uses traceroute end-to-end RTTs (the paper relies solely on
    traceroute latencies for the peering analysis).  Groups below
    ``min_measurements`` are omitted, mirroring the paper's >=100 filter
    at full fleet scale.
    """
    categories = classify_traces(traces)
    networks, _ = trace_networks(traces)
    rtts = traces.end_to_end_rtts
    usable = (categories != UNCLASSIFIED) & ~np.isnan(rtts)
    direct = np.isin(categories, (_DIRECT, _ONE_IXP))
    results: List[InterconnectLatency] = []
    for code in PEERING_PROVIDERS:
        mine = usable & (networks == code)
        direct_values = rtts[mine & direct]
        transit_values = rtts[mine & ~direct]
        direct_box = (
            BoxStats.from_samples(direct_values)
            if len(direct_values) >= min_measurements
            else None
        )
        intermediate = (
            BoxStats.from_samples(transit_values)
            if len(transit_values) >= min_measurements
            else None
        )
        if direct_box is None and intermediate is None:
            continue
        results.append(
            InterconnectLatency(
                provider_code=code, direct=direct_box, intermediate=intermediate
            )
        )
    return results
