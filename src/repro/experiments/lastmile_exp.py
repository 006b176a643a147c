"""Last-mile experiments: Figs. 7a, 7b, 8, 9 and 19 (paper section 5)."""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.analysis.lastmile import (
    ATLAS,
    CELL,
    FIG9_COUNTRIES,
    HOME_RTR_ISP,
    HOME_USR_ISP,
    absolute_by_continent,
    cv_by_continent,
    cv_by_country,
    extract_last_mile,
    share_by_continent,
    towards_nearest,
)
from repro.analysis.report import format_table
from repro.experiments.common import ExperimentResult, StudyContext, require_dataset
from repro.geo.continents import Continent


def _context(world, dataset, context: Optional[StudyContext]) -> StudyContext:
    if context is not None:
        return context
    return StudyContext(world, dataset)


def _render_grouped(stats: Dict[Tuple, object], key_headers) -> str:
    rows = []
    for key, box in sorted(stats.items(), key=lambda item: tuple(map(str, item[0]))):
        rows.append(
            [
                *[str(part) for part in key],
                box.count,
                f"{box.q1:.1f}",
                f"{box.median:.1f}",
                f"{box.q3:.1f}",
            ]
        )
    return format_table([*key_headers, "N", "Q1", "Median", "Q3"], rows)


def run_fig7a(world, dataset=None, context: Optional[StudyContext] = None) -> ExperimentResult:
    """Fig. 7a: last-mile share of total cloud access latency."""
    dataset = require_dataset(dataset, "fig7a")
    ctx = _context(world, dataset, context)
    samples = extract_last_mile(ctx.resolved_traces)
    stats = share_by_continent(samples)
    data = {
        (continent.value, category): box.median
        for (continent, category), box in stats.items()
    }
    return ExperimentResult(
        experiment_id="fig7a",
        title="Wireless last-mile share of cloud access latency [%]",
        body=_render_grouped(stats, ["Continent", "Category"]),
        data={"median_share_pct": data},
    )


def run_fig7b(world, dataset=None, context: Optional[StudyContext] = None) -> ExperimentResult:
    """Fig. 7b: absolute last-mile latency, including Atlas wired."""
    dataset = require_dataset(dataset, "fig7b")
    ctx = _context(world, dataset, context)
    samples = extract_last_mile(ctx.resolved_traces)
    stats = absolute_by_continent(samples)
    data = {
        (continent.value, category): box.median
        for (continent, category), box in stats.items()
    }
    global_medians: Dict[str, float] = {}
    for category in (HOME_USR_ISP, CELL, HOME_RTR_ISP, ATLAS):
        values = np.sort(samples.latency_ms[samples.categories == category])
        if values.size:
            global_medians[category] = float(values[len(values) // 2])
    return ExperimentResult(
        experiment_id="fig7b",
        title="Absolute last-mile latency [ms]",
        body=_render_grouped(stats, ["Continent", "Category"]),
        data={"median_ms": data, "global_median_ms": global_medians},
    )


def run_fig8(world, dataset=None, context: Optional[StudyContext] = None) -> ExperimentResult:
    """Fig. 8: coefficient of variation of the last mile per continent."""
    dataset = require_dataset(dataset, "fig8")
    ctx = _context(world, dataset, context)
    samples = extract_last_mile(ctx.resolved_traces)
    stats = cv_by_continent(samples)
    data = {
        (continent.value, category): box.median
        for (continent, category), box in stats.items()
    }
    return ExperimentResult(
        experiment_id="fig8",
        title="Last-mile latency Cv per continent",
        body=_render_grouped(stats, ["Continent", "Category"]),
        data={"median_cv": data},
    )


def run_fig9(world, dataset=None, context: Optional[StudyContext] = None) -> ExperimentResult:
    """Fig. 9: last-mile Cv in representative countries."""
    dataset = require_dataset(dataset, "fig9")
    ctx = _context(world, dataset, context)
    samples = extract_last_mile(ctx.resolved_traces)
    stats = cv_by_country(samples, FIG9_COUNTRIES)
    data = {
        (country, category): box.median
        for (country, category), box in stats.items()
    }
    return ExperimentResult(
        experiment_id="fig9",
        title="Last-mile latency Cv in representative countries",
        body=_render_grouped(stats, ["Country", "Category"]),
        data={"median_cv": data},
    )


def run_fig19(world, dataset=None, context: Optional[StudyContext] = None) -> ExperimentResult:
    """Fig. 19: last-mile share towards the *closest* datacenter."""
    dataset = require_dataset(dataset, "fig19")
    ctx = _context(world, dataset, context)
    traces = ctx.resolved_traces
    samples = extract_last_mile(
        traces, keep=towards_nearest(traces, ctx.nearest("speedchecker"))
    )
    stats = share_by_continent(samples, categories=(HOME_USR_ISP, CELL), min_samples=3)
    data = {
        (continent.value, category): box.median
        for (continent, category), box in stats.items()
    }
    global_values = np.sort(
        100.0
        * samples.share_of_total[
            np.isin(samples.categories, (HOME_USR_ISP, CELL))
            & ~np.isnan(samples.share_of_total)
        ]
    )
    global_median = None
    if global_values.size:
        global_median = float(global_values[len(global_values) // 2])
    return ExperimentResult(
        experiment_id="fig19",
        title="Last-mile share towards the nearest datacenter [%]",
        body=_render_grouped(stats, ["Continent", "Category"]),
        data={"median_share_pct": data, "global_median_pct": global_median},
    )
