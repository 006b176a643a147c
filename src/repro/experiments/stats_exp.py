"""Statistical-confidence experiment (paper section 3.3)."""

from __future__ import annotations

from operator import attrgetter
from typing import Optional

import numpy as np

from repro.analysis.report import format_table
from repro.analysis.stats import group_ids, required_sample_size
from repro.experiments.common import ExperimentResult, StudyContext
from repro.measure.results import dataset_pings


def run_stats(world, dataset=None, context: Optional[StudyContext] = None) -> ExperimentResult:
    """Sample-size requirement n = z^2 p (1-p) / e^2.

    Reproduces the paper's ">2400 measurements per country" bar at 95%
    confidence and a 2% margin, and reports how many countries in the
    provided dataset clear a scale-adjusted bar.
    """
    paper_n = required_sample_size(confidence=0.95, margin_of_error=0.02)
    rows = [
        ["95%", "2%", paper_n],
        ["95%", "5%", required_sample_size(0.95, 0.05)],
        ["99%", "2%", required_sample_size(0.99, 0.02)],
    ]
    body = format_table(["Confidence", "Margin", "Required n"], rows)
    data = {"paper_requirement": paper_n}
    if dataset is not None:
        pings = dataset_pings(dataset)
        speedchecker = pings.select("speedchecker")
        countries, _ = group_ids(
            pings.probe_codes_by(attrgetter("country"))[speedchecker]
        )
        per_country = np.bincount(
            countries, weights=np.diff(pings.sample_offsets)[speedchecker]
        )
        scaled_bar = max(10, int(paper_n * world.config.scale))
        cleared = int((per_country >= scaled_bar).sum())
        body += (
            f"\nScale-adjusted bar: {scaled_bar} samples; "
            f"{cleared}/{len(per_country)} countries clear it"
        )
        data.update(
            {
                "scaled_bar": scaled_bar,
                "countries_cleared": cleared,
                "countries_total": len(per_country),
            }
        )
    return ExperimentResult(
        experiment_id="stats",
        title="Measurement sample-size requirements",
        body=body,
        data=data,
    )
