"""Latency-based nearest-datacenter estimation.

The paper defines the datacenter "closest" to a probe as the one with the
lowest *mean* latency over time (Fig. 3 footnote), restricted to the
probe's own continent for the intra-continental analyses.  Both are
group-bys over the dataset's ping columns (:func:`dataset_pings`).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.stats import group_ids, group_rows, last_rows
from repro.cloud.regions import CloudRegion
from repro.geo.continents import Continent
from repro.measure.results import MeasurementDataset, PingBlock, Protocol, dataset_pings
from repro.platforms.probe import Probe

#: (provider_code, region_id)
RegionKey = Tuple[str, str]

PROBE_ID = attrgetter("probe_id")
#: A region's :data:`RegionKey`.
REGION = attrgetter("provider_code", "region_id")


@dataclass(frozen=True)
class NearestMap:
    """Per-probe nearest-datacenter assignments."""

    nearest: Dict[str, RegionKey]

    def region_for(self, probe_id: str) -> Optional[RegionKey]:
        return self.nearest.get(probe_id)

    def __len__(self) -> int:
        return len(self.nearest)


def _lowest_mean(
    pings: PingBlock,
    rows: np.ndarray,
    owners: Sequence[np.ndarray],
    candidates: Sequence[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per owner, the candidate of ``rows`` with the lowest mean sample.

    Rows are grouped by owner and candidate.  Returns each row's group,
    each group's first row, and per owner, in the order owners first
    occur, its winning group: the first to reach the lowest mean, as the
    record loops found it.  Their means are reproduced bit for bit: each
    ping's samples summed left to right, and those sums added per group
    in row order (``np.bincount`` adds in input order).
    """
    owner, _ = group_ids(*owners)
    labels, heads = group_ids(owner, *candidates)
    sums = np.bincount(labels, weights=pings.sample_sums()[rows])
    means = sums / np.bincount(labels, weights=np.diff(pings.sample_offsets)[rows])
    group_owner = owner[heads]
    order = np.lexsort((np.arange(len(heads)), means, group_owner))
    first = np.ones(len(order), bool)
    first[1:] = group_owner[order[1:]] != group_owner[order[:-1]]
    return labels, heads, order[first]


def _nearest_rows(
    pings: PingBlock, rows: np.ndarray, same_continent_only: bool
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of ``rows`` its probe-id and region codes, and per probe,
    in the order probes first occur, the first row of its nearest
    (probe, region) group."""
    probe_ids = pings.probe_codes_by(PROBE_ID)[rows]
    regions = pings.region_codes_by(REGION)[rows]
    ranked = np.arange(len(rows))
    if same_continent_only:
        ranked = np.flatnonzero(pings.same_continent()[rows])
    _, heads, winners = _lowest_mean(
        pings, rows[ranked], (probe_ids[ranked],), (regions[ranked],)
    )
    return probe_ids, regions, ranked[heads[winners]]


def nearest_by_probe(
    dataset: MeasurementDataset,
    platform: str,
    protocol: Protocol = Protocol.TCP,
    same_continent_only: bool = True,
) -> NearestMap:
    """Estimate each probe's nearest datacenter from its measurements."""
    pings = dataset_pings(dataset)
    rows = pings.select(platform, protocol)
    _, _, nearest = _nearest_rows(pings, rows, same_continent_only)
    return NearestMap(
        {
            pings.probes[probe].probe_id: REGION(pings.regions[region])
            for probe, region in zip(
                pings.probe_codes[rows[nearest]].tolist(),
                pings.region_codes[rows[nearest]].tolist(),
            )
        }
    )


def nearest_samples(
    pings: PingBlock,
    key: Callable[[Probe], Any],
    platform: str,
    protocol: Protocol = Protocol.TCP,
) -> Dict[Any, List[float]]:
    """Every sample of each probe's nearest datacenter in the column
    view ``pings``, grouped by ``key`` of the probe in the order keys
    first occur."""
    rows = pings.select(platform, protocol)
    probe_ids, regions, nearest = _nearest_rows(pings, rows, True)
    nearest_region = np.full(len(pings.probes), -1)
    nearest_region[probe_ids[nearest]] = regions[nearest]
    rows = rows[nearest_region[probe_ids] == regions]
    return {
        key(pings.probes[pings.probe_codes[rows[group[0]]]]): (
            pings.samples_of(rows[group]).tolist()
        )
        for _, group in group_rows(pings.probe_codes_by(key)[rows])
    }


def nearest_samples_by_continent(
    dataset: MeasurementDataset,
    platform: str,
    protocol: Protocol = Protocol.TCP,
) -> Dict[Continent, List[float]]:
    """All nearest-DC RTT samples grouped by probe continent (Fig. 4)."""
    return nearest_samples(
        dataset_pings(dataset), attrgetter("continent"), platform, protocol
    )


def nearest_samples_by_country(
    dataset: MeasurementDataset,
    platform: str,
    protocol: Protocol = Protocol.TCP,
) -> Dict[str, List[float]]:
    """All nearest-DC RTT samples grouped by probe country (Fig. 3)."""
    return nearest_samples(
        dataset_pings(dataset), attrgetter("country"), platform, protocol
    )


def pooled_nearest(
    pings: PingBlock,
    rows: np.ndarray,
    probe_key: Callable[[Probe], Any],
    region_key: Callable[[CloudRegion], Any],
) -> Dict[Tuple[Any, Any], List[float]]:
    """The samples of each (probe, ``region_key``) pair's lowest-mean
    region among ``rows``, pooled by (``probe_key``, ``region_key``).

    Pools fill as the record loops filled them: pairs in the order they
    first occur, each pair's samples in row order, and each probe under
    the ``probe_key`` of its last row.
    """
    probe_ids = pings.probe_codes_by(PROBE_ID)[rows]
    sides = pings.region_codes_by(region_key)[rows]
    labels, heads, winners = _lowest_mean(
        pings, rows, (probe_ids, sides), (pings.region_codes_by(REGION)[rows],)
    )
    last = last_rows(probe_ids)[probe_ids[heads[winners]]]
    pools, firsts = group_ids(
        pings.probe_codes_by(probe_key)[rows][last], sides[heads[winners]]
    )
    rank = np.full(len(heads), -1)
    rank[winners] = np.arange(len(winners))
    won = np.flatnonzero(rank[labels] >= 0)
    won = won[np.argsort(rank[labels[won]], kind="stable")]
    return {
        (
            probe_key(pings.probes[pings.probe_codes[rows[last[first]]]]),
            region_key(pings.regions[pings.region_codes[rows[heads[winners[first]]]]]),
        ): samples.tolist()
        for first, samples in zip(
            firsts.tolist(),
            pings.grouped_samples(rows[won], pools[rank[labels[won]]]),
        )
    }
