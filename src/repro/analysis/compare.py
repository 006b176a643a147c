"""Platform comparison: Speedchecker vs RIPE Atlas (Figs. 5 and 16).

The paper plots the distribution of latency differences between the two
platforms' nearest-DC measurements per continent.  We form differences by
random pairing of same-continent samples (Fig. 5) and -- for the
apples-to-apples variant -- by pairing samples from probes sharing the
same <city, serving ASN> towards the same datacenter (Fig. 16).
Negative differences mean Speedchecker was faster.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.analysis.nearest import REGION, nearest_samples
from repro.analysis.stats import fraction_below, group_ids
from repro.geo.continents import Continent
from repro.measure.results import MeasurementDataset, Protocol, dataset_pings

#: <city cell, serving ASN, provider, region id> of Fig. 16's groups.
GroupKey = Tuple[Tuple[int, int], int, str, str]


@dataclass(frozen=True)
class DifferenceDistribution:
    """Latency-difference distribution for one continent."""

    continent: Continent
    pair_count: int
    median_difference_ms: float
    #: Share of pairs where Speedchecker was faster (difference < 0).
    speedchecker_faster_share: float
    #: Percentiles of the difference distribution (5..95 step 5).
    percentiles: Tuple[float, ...]


def _paired_differences(
    speedchecker: Sequence[float],
    atlas: Sequence[float],
    rng: np.random.Generator,
    pairs: int,
) -> np.ndarray:
    sc = np.asarray(speedchecker, dtype=float)
    at = np.asarray(atlas, dtype=float)
    count = min(pairs, sc.size * at.size)
    sc_picks = rng.integers(0, sc.size, size=count)
    at_picks = rng.integers(0, at.size, size=count)
    return sc[sc_picks] - at[at_picks]


def platform_differences(
    dataset: MeasurementDataset,
    rng: np.random.Generator,
    protocol: Protocol = Protocol.TCP,
    pairs_per_continent: int = 20_000,
    min_samples: int = 10,
) -> Dict[Continent, DifferenceDistribution]:
    """Fig. 5: nearest-DC latency differences per continent."""
    # Per platform, what nearest_samples_by_continent returns.
    pings = dataset_pings(dataset)
    by_continent = attrgetter("continent")
    sc_samples = nearest_samples(pings, by_continent, "speedchecker", protocol)
    atlas_samples = nearest_samples(pings, by_continent, "atlas", protocol)

    result: Dict[Continent, DifferenceDistribution] = {}
    for continent in Continent:
        sc = sc_samples.get(continent, [])
        at = atlas_samples.get(continent, [])
        if len(sc) < min_samples or len(at) < min_samples:
            continue
        diffs = _paired_differences(sc, at, rng, pairs_per_continent)
        result[continent] = _summarize(continent, diffs)
    return result


def matched_city_asn_differences(
    dataset: MeasurementDataset,
    rng: np.random.Generator,
    protocol: Protocol = Protocol.TCP,
    pairs_per_continent: int = 20_000,
    min_samples: int = 4,
    min_groups: int = 2,
) -> Dict[Continent, DifferenceDistribution]:
    """Fig. 16: differences restricted to probes with the same
    <city, serving ASN> measuring the same datacenter endpoint.

    Unlike Fig. 5 this is an apples-to-apples comparison: samples are
    paired only within groups that share the probe city, the serving
    ISP's ASN, and the exact target region across both platforms.
    Continents without enough matched groups are omitted, as the paper
    omits AF/SA/OC for lack of probe intersections.
    """
    pings = dataset_pings(dataset)
    cell = attrgetter("city_key", "isp_asn")
    cell_keys = [cell(probe) for probe in pings.probes]
    cells = pings.probe_codes_by(cell)
    regions = pings.region_codes_by(REGION)

    def collect(platform: str) -> Dict[GroupKey, np.ndarray]:
        """The rows of each group, keyed in the order keys first occur."""
        rows = pings.select(platform, protocol)
        labels, heads = group_ids(cells[rows], regions[rows])
        members = np.split(
            rows[np.argsort(labels, kind="stable")],
            np.cumsum(np.bincount(labels))[:-1],
        )
        return {
            cell_keys[probe] + REGION(pings.regions[region]): group
            for probe, region, group in zip(
                pings.probe_codes[rows[heads]].tolist(),
                pings.region_codes[rows[heads]].tolist(),
                members,
            )
        }

    sc_groups = collect("speedchecker")
    atlas_groups = collect("atlas")

    per_continent_diffs: Dict[Continent, List[np.ndarray]] = {}
    group_counts: Dict[Continent, int] = {}
    for key in set(sc_groups) & set(atlas_groups):
        sc = pings.samples_of(sc_groups[key])
        at = pings.samples_of(atlas_groups[key])
        if len(sc) < min_samples or len(at) < min_samples:
            continue
        # The continent of the group's last Speedchecker ping.
        continent = pings.probes[pings.probe_codes[sc_groups[key][-1]]].continent
        diffs = _paired_differences(
            sc, at, rng, max(50, pairs_per_continent // 100)
        )
        per_continent_diffs.setdefault(continent, []).append(diffs)
        group_counts[continent] = group_counts.get(continent, 0) + 1

    result: Dict[Continent, DifferenceDistribution] = {}
    for continent, chunks in per_continent_diffs.items():
        if group_counts[continent] < min_groups:
            continue
        diffs = np.concatenate(chunks)
        result[continent] = _summarize(continent, diffs)
    return result


def _summarize(
    continent: Continent, diffs: np.ndarray
) -> DifferenceDistribution:
    return DifferenceDistribution(
        continent=continent,
        pair_count=int(diffs.size),
        median_difference_ms=float(np.median(diffs)),
        speedchecker_faster_share=fraction_below(diffs, 0.0),
        percentiles=tuple(
            float(np.percentile(diffs, q)) for q in range(5, 100, 5)
        ),
    )
