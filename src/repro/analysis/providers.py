"""Cross-provider consistency (paper section 8 conclusion).

The paper concludes that "cloud performance is almost consistent and
comparable across providers in continents hosting developed countries".
This module quantifies that: for each continent, the median latency from
every probe to its nearest region *of each provider*, and the spread
across providers.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict

import numpy as np

from repro.analysis.nearest import pooled_nearest
from repro.geo.continents import Continent
from repro.measure.results import MeasurementDataset, Protocol, dataset_pings


@dataclass(frozen=True)
class ProviderConsistency:
    """Cross-provider latency spread for one continent."""

    continent: Continent
    #: Median nearest-region latency per provider code.
    provider_medians: Dict[str, float]
    #: Relative spread: (max - min) / min over provider medians.
    relative_spread: float

    @property
    def provider_count(self) -> int:
        return len(self.provider_medians)


def provider_consistency(
    dataset: MeasurementDataset,
    platform: str = "speedchecker",
    protocol: Protocol = Protocol.TCP,
    min_samples: int = 20,
) -> Dict[Continent, ProviderConsistency]:
    """Per-continent, per-provider nearest-region latency medians.

    For every (probe, provider) the nearest region is the one with the
    lowest mean latency among that provider's measured regions in the
    probe's continent; medians aggregate per (continent, provider).
    """
    pings = dataset_pings(dataset)
    rows = pings.select(platform, protocol)
    rows = rows[pings.same_continent()[rows]]
    grouped = pooled_nearest(
        pings, rows, attrgetter("continent"), attrgetter("provider_code")
    )

    per_continent: Dict[Continent, Dict[str, float]] = {}
    for (continent, provider_code), values in grouped.items():
        if len(values) < min_samples:
            continue
        per_continent.setdefault(continent, {})[provider_code] = float(
            np.median(values)
        )

    result: Dict[Continent, ProviderConsistency] = {}
    for continent, medians in per_continent.items():
        if len(medians) < 2:
            continue
        values = list(medians.values())
        spread = (max(values) - min(values)) / min(values)
        result[continent] = ProviderConsistency(
            continent=continent,
            provider_medians=medians,
            relative_spread=spread,
        )
    return result
