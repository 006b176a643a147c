"""Inter-continental latency analysis (paper Fig. 6, section 4.3).

For probes in under-provisioned continents, compares access latency to
the nearest datacenter of each candidate continent: Africa -> {AF, EU,
NA}; South America -> {SA, NA}.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.nearest import pooled_nearest
from repro.analysis.stats import BoxStats
from repro.geo.continents import Continent
from repro.measure.results import MeasurementDataset, Protocol, dataset_pings

#: Countries shown in the paper's Fig. 6.
FIG6_AFRICA = ("DZ", "EG", "ET", "KE", "MA", "SN", "TN", "ZA")
FIG6_SOUTH_AMERICA = ("AR", "BO", "BR", "CL", "CO", "EC", "PE", "VE")

#: Target continents per source continent.
TARGETS = {
    Continent.AF: (Continent.EU, Continent.NA, Continent.AF),
    Continent.SA: (Continent.NA, Continent.SA),
}


@dataclass(frozen=True)
class CountryTargetStats:
    """Latency summary for one (source country, target continent)."""

    country: str
    target_continent: Continent
    stats: BoxStats


def _nearest_region_samples(
    dataset: MeasurementDataset,
    platform: str,
    protocol: Protocol,
    countries: Sequence[str],
    target_continents: Sequence[Continent],
) -> Dict[Tuple[str, Continent], List[float]]:
    """All samples grouped by (country, target continent), restricted per
    probe to its lowest-mean region within each target continent."""
    pings = dataset_pings(dataset)
    rows = pings.select(platform, protocol)
    wanted = set(countries)
    targets = set(target_continents)
    in_country = np.asarray([p.country in wanted for p in pings.probes], bool)
    in_target = np.asarray([r.continent in targets for r in pings.regions], bool)
    rows = rows[
        in_country[pings.probe_codes[rows]] & in_target[pings.region_codes[rows]]
    ]
    return pooled_nearest(
        pings, rows, attrgetter("country"), attrgetter("continent")
    )


def intercontinental_latency(
    dataset: MeasurementDataset,
    source_continent: Continent,
    countries: Optional[Sequence[str]] = None,
    platform: str = "speedchecker",
    protocol: Protocol = Protocol.TCP,
    min_samples: int = 8,
) -> List[CountryTargetStats]:
    """Fig. 6: per-country latency to nearest DCs per target continent."""
    source_continent = Continent(source_continent)
    if source_continent not in TARGETS:
        raise ValueError(
            f"inter-continental analysis covers AF and SA, not {source_continent}"
        )
    if countries is None:
        countries = (
            FIG6_AFRICA if source_continent is Continent.AF else FIG6_SOUTH_AMERICA
        )
    grouped = _nearest_region_samples(
        dataset, platform, protocol, countries, TARGETS[source_continent]
    )
    results: List[CountryTargetStats] = []
    for country in countries:
        for target in TARGETS[source_continent]:
            values = grouped.get((country, target))
            if not values or len(values) < min_samples:
                continue
            results.append(
                CountryTargetStats(
                    country=country,
                    target_continent=target,
                    stats=BoxStats.from_samples(values),
                )
            )
    return results
