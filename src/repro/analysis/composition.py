"""Dataset composition (paper section 3.3).

The paper characterises its collected dataset: ~50% of data points from
Europe, ~20% from Asia, ~10% from North America, Africa and South America
with similar overall contributions where intra-continental measurements
take the larger share over inter-continental ones (~70/30).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict

import numpy as np

from repro.analysis.stats import group_rows
from repro.geo.continents import Continent
from repro.measure.results import MeasurementDataset, dataset_pings


@dataclass(frozen=True)
class CompositionReport:
    """Where the dataset's samples come from."""

    total_samples: int
    #: Share of ping samples per probe continent.
    continent_share: Dict[Continent, float]
    #: For continents that also measure abroad: intra-continental share.
    intra_share: Dict[Continent, float]


def dataset_composition(
    dataset: MeasurementDataset, platform: str = "speedchecker"
) -> CompositionReport:
    """Sample-count composition of a campaign dataset."""
    pings = dataset_pings(dataset)
    rows = pings.select(platform)
    counts = np.diff(pings.sample_offsets)[rows]
    home = pings.same_continent()[rows]
    per_continent: Dict[Continent, int] = {}
    intra: Dict[Continent, int] = {}
    for _, group in group_rows(pings.probe_codes_by(attrgetter("continent"))[rows]):
        continent = pings.probes[pings.probe_codes[rows[group[0]]]].continent
        per_continent[continent] = int(counts[group].sum())
        intra[continent] = int(counts[group][home[group]].sum())
    total = sum(per_continent.values())
    if total == 0:
        raise ValueError("dataset has no ping samples for the platform")
    continent_share = {
        continent: count / total for continent, count in per_continent.items()
    }
    intra_share = {}
    for continent, count in per_continent.items():
        if count > intra[continent]:
            intra_share[continent] = intra[continent] / count
    return CompositionReport(
        total_samples=total,
        continent_share=continent_share,
        intra_share=intra_share,
    )
