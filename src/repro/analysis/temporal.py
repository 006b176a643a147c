"""Temporal stability of cloud access latency across the campaign.

The paper's campaign spans six months; latency *consistency* over time is
what several of its QoS arguments (buffering, prediction) rest on.  This
module summarizes the per-day behaviour of a dataset: daily medians, the
day-to-day coefficient of variation, and the weekday/weekend congestion
contrast built into the path model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.analysis.stats import group_rows
from repro.measure.results import MeasurementDataset, Protocol, dataset_pings


@dataclass(frozen=True)
class TemporalReport:
    """Per-day latency behaviour of a campaign dataset."""

    day_count: int
    daily_median_ms: Dict[int, float]
    #: Cv of the daily medians -- how stable the median is across days.
    day_to_day_cv: float
    weekday_median_ms: Optional[float]
    weekend_median_ms: Optional[float]

    @property
    def weekend_gain(self) -> Optional[float]:
        """Relative latency reduction on weekends (positive = faster)."""
        if self.weekday_median_ms is None or self.weekend_median_ms is None:
            return None
        return 1.0 - self.weekend_median_ms / self.weekday_median_ms


def temporal_report(
    dataset: MeasurementDataset,
    platform: str = "speedchecker",
    protocol: Protocol = Protocol.TCP,
    min_samples_per_day: int = 20,
) -> TemporalReport:
    """Summarize per-day latency across a campaign."""
    pings = dataset_pings(dataset)
    rows = pings.select(platform, protocol)
    per_day = {
        day: pings.samples_of(rows[group])
        for (day,), group in group_rows(pings.days[rows])
    }
    daily_median = {
        day: float(np.median(samples))
        for day, samples in sorted(per_day.items())
        if samples.size >= min_samples_per_day
    }
    if not daily_median:
        raise ValueError("no day has enough samples for a temporal report")
    medians = np.asarray(list(daily_median.values()))
    cv = float(medians.std() / medians.mean()) if medians.size > 1 else 0.0

    weekday = [m for day, m in daily_median.items() if day % 7 not in (5, 6)]
    weekend = [m for day, m in daily_median.items() if day % 7 in (5, 6)]
    return TemporalReport(
        day_count=len(daily_median),
        daily_median_ms=daily_median,
        day_to_day_cv=cv,
        weekday_median_ms=float(np.median(weekday)) if weekday else None,
        weekend_median_ms=float(np.median(weekend)) if weekend else None,
    )
