"""Platform-comparison experiments: Figs. 5 and 16 (paper section 4.2)."""

from __future__ import annotations

from typing import Optional

from repro.analysis.compare import matched_city_asn_differences, platform_differences
from repro.analysis.report import format_percent, format_table
from repro.experiments.common import ExperimentResult, StudyContext, require_dataset
from repro.geo.continents import Continent


def _render(differences) -> str:
    rows = []
    for continent in Continent:
        diff = differences.get(continent)
        if diff is None:
            continue
        rows.append(
            [
                continent.value,
                diff.pair_count,
                f"{diff.median_difference_ms:+.1f}",
                format_percent(diff.speedchecker_faster_share),
            ]
        )
    return format_table(
        ["Continent", "Pairs", "Median diff [ms]", "SC faster"], rows
    )


def run_fig5(world, dataset=None, context: Optional[StudyContext] = None) -> ExperimentResult:
    """Fig. 5: Speedchecker-minus-Atlas latency differences per continent."""
    dataset = require_dataset(dataset, "fig5")
    differences = platform_differences(
        dataset, world.rngs.fork("experiment.fig5", 0)
    )
    data = {
        continent.value: {
            "median_diff": diff.median_difference_ms,
            "sc_faster_share": diff.speedchecker_faster_share,
        }
        for continent, diff in differences.items()
    }
    return ExperimentResult(
        experiment_id="fig5",
        title="Speedchecker vs RIPE Atlas nearest-DC latency differences",
        body=_render(differences),
        data=data,
    )


def run_fig16(world, dataset=None, context: Optional[StudyContext] = None) -> ExperimentResult:
    """Fig. 16: the same comparison restricted to matched <city, ASN>."""
    dataset = require_dataset(dataset, "fig16")
    differences = matched_city_asn_differences(
        dataset, world.rngs.fork("experiment.fig16", 0)
    )
    data = {
        continent.value: {
            "median_diff": diff.median_difference_ms,
            "sc_faster_share": diff.speedchecker_faster_share,
        }
        for continent, diff in differences.items()
    }
    return ExperimentResult(
        experiment_id="fig16",
        title="Same-<city, ASN> Speedchecker vs Atlas differences",
        body=_render(differences),
        data=data,
    )
