"""Last-mile analysis (paper section 5; Figs. 7, 8, 9, 19).

All quantities are inferred from *resolved traceroutes*, exactly as in
the paper: the last mile is the segment between the probe and the first
hop inside the serving ISP's AS, probes are classified home/cell from the
privateness of their first hop, and stability is the per-probe
coefficient of variation.  Every function here is a group-by over the
columns of a :class:`~repro.resolve.pipeline.ResolvedTraceBlock` or of
the :class:`LastMileSamples` extracted from it; each group keeps its
values in trace order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.nearest import NearestMap
from repro.analysis.stats import BoxStats, coefficient_of_variation, group_rows
from repro.geo.continents import Continent
from repro.resolve.pipeline import CELL as CELL_ACCESS
from repro.resolve.pipeline import HOME as HOME_ACCESS
from repro.resolve.pipeline import ResolvedTraceBlock

#: Category labels matching the paper's Fig. 7 legend.
HOME_USR_ISP = "SC home (USR-ISP)"
HOME_RTR_ISP = "SC home (RTR-ISP)"
CELL = "SC cell"
ATLAS = "Atlas"
_CATEGORIES = np.array([HOME_USR_ISP, HOME_RTR_ISP, CELL, ATLAS])
_USR, _RTR, _CELL, _ATLAS = range(len(_CATEGORIES))

#: Representative countries of the paper's Fig. 9, two per continent
#: (AF, AS, EU, NA, SA in that order).
FIG9_COUNTRIES = ("ZA", "MA", "JP", "IR", "GB", "UA", "US", "MX", "BR", "AR")


@dataclass(frozen=True, eq=False)
class LastMileSamples:
    """Extracted last-mile observations, one row per sample.

    Rows follow trace order; a home trace's RTR-ISP row follows its
    USR-ISP row.
    """

    probe_ids: np.ndarray
    countries: np.ndarray
    #: :class:`~repro.geo.continents.Continent` values.
    continents: np.ndarray
    categories: np.ndarray
    latency_ms: np.ndarray
    #: Share of the trace's end-to-end RTT; ``NaN`` when the trace has
    #: no (or a zero) end-to-end RTT.
    share_of_total: np.ndarray

    def __len__(self) -> int:
        return len(self.latency_ms)


def extract_last_mile(
    traces: ResolvedTraceBlock, keep: Optional[np.ndarray] = None
) -> LastMileSamples:
    """Last-mile observations from resolved traceroutes.

    Home probes contribute both a USR-ISP and an RTR-ISP observation;
    cell probes one; Atlas (wired) probes contribute to the Atlas series.
    Traces whose first hop could not be classified are skipped, as are
    those without a resolvable ISP hop and, when given, those outside
    the boolean mask ``keep``.
    """
    usr_isp = traces.usr_isp_rtts
    measured = ~np.isnan(usr_isp)
    if keep is not None:
        measured &= keep
    atlas = traces.probe_column("platform") == "atlas"
    home = measured & ~atlas & (traces.inferred_access == HOME_ACCESS)
    cell = measured & ~atlas & (traces.inferred_access == CELL_ACCESS)
    primary = np.flatnonzero(home | cell | (measured & atlas))
    primary_category = np.where(atlas, _ATLAS, np.where(home, _USR, _CELL))
    wired = np.flatnonzero(home & ~np.isnan(traces.router_rtts))
    # The wired segment: USR-ISP minus the air leg, never negative.
    segment = usr_isp[wired] - traces.router_rtts[wired]
    segment = np.where(segment > 0.0, segment, 0.0)

    order = np.argsort(np.concatenate([2 * primary, 2 * wired + 1]))
    rows = np.concatenate([primary, wired])[order]
    categories = np.concatenate(
        [primary_category[primary], np.full(len(wired), _RTR)]
    )[order]
    latency = np.concatenate([usr_isp[primary], segment])[order]
    total = traces.end_to_end_rtts[rows]
    share = np.full(len(rows), np.nan)
    np.divide(latency, total, out=share, where=~np.isnan(total) & (total != 0.0))
    return LastMileSamples(
        probe_ids=traces.probe_column("probe_id")[rows],
        countries=traces.probe_column("country")[rows],
        continents=traces.probe_column("continent")[rows],
        categories=_CATEGORIES[categories],
        latency_ms=latency,
        share_of_total=share,
    )


def _boxes(
    values: np.ndarray, min_count: int, *keys: np.ndarray
) -> Dict[Tuple, BoxStats]:
    """Box statistics of ``values`` grouped by ``keys``, for groups of at
    least ``min_count`` values."""
    return {
        key: BoxStats.from_samples(values[rows])
        for key, rows in group_rows(*keys)
        if len(rows) >= min_count
    }


def _by_continent(
    boxes: Dict[Tuple, BoxStats]
) -> Dict[Tuple[Continent, str], BoxStats]:
    return {
        (Continent(continent), category): box
        for (continent, category), box in boxes.items()
    }


def share_by_continent(
    samples: LastMileSamples,
    categories: Sequence[str] = (HOME_USR_ISP, CELL, HOME_RTR_ISP),
    min_samples: int = 5,
) -> Dict[Tuple[Continent, str], BoxStats]:
    """Fig. 7a / Fig. 19: last-mile share of total latency (percent)."""
    wanted = np.isin(samples.categories, categories) & ~np.isnan(
        samples.share_of_total
    )
    return _by_continent(
        _boxes(
            100.0 * samples.share_of_total[wanted],
            min_samples,
            samples.continents[wanted],
            samples.categories[wanted],
        )
    )


def absolute_by_continent(
    samples: LastMileSamples,
    categories: Sequence[str] = (HOME_USR_ISP, CELL, HOME_RTR_ISP, ATLAS),
    min_samples: int = 5,
) -> Dict[Tuple[Continent, str], BoxStats]:
    """Fig. 7b: absolute last-mile latency per continent and category."""
    wanted = np.isin(samples.categories, categories)
    return _by_continent(
        _boxes(
            samples.latency_ms[wanted],
            min_samples,
            samples.continents[wanted],
            samples.categories[wanted],
        )
    )


def per_probe_cv(
    samples: LastMileSamples,
    categories: Sequence[str] = (HOME_USR_ISP, CELL),
    min_samples: int = 5,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-probe last-mile Cv: (first sample row, Cv) arrays.

    Mirrors the paper's per-probe computation: all last-mile latencies of
    one probe (within a category) form the sample set; probes with fewer
    than ``min_samples`` observations are dropped.  Probes come in the
    order of their first sample.
    """
    wanted = np.flatnonzero(np.isin(samples.categories, categories))
    heads = []
    cvs = []
    for _, rows in group_rows(
        samples.probe_ids[wanted], samples.categories[wanted]
    ):
        if len(rows) < min_samples:
            continue
        heads.append(wanted[rows[0]])
        cvs.append(coefficient_of_variation(samples.latency_ms[wanted[rows]]))
    return np.asarray(heads, np.int64), np.asarray(cvs, float)


def cv_by_continent(
    samples: LastMileSamples,
    min_samples: int = 5,
    min_probes: int = 3,
) -> Dict[Tuple[Continent, str], BoxStats]:
    """Fig. 8: distribution of per-probe last-mile Cv per continent."""
    heads, cvs = per_probe_cv(samples, min_samples=min_samples)
    return _by_continent(
        _boxes(
            cvs, min_probes, samples.continents[heads], samples.categories[heads]
        )
    )


def cv_by_country(
    samples: LastMileSamples,
    countries: Sequence[str] = FIG9_COUNTRIES,
    min_samples: int = 5,
    min_probes: int = 3,
) -> Dict[Tuple[str, str], BoxStats]:
    """Fig. 9: per-probe last-mile Cv for representative countries."""
    heads, cvs = per_probe_cv(samples, min_samples=min_samples)
    wanted = np.isin(samples.countries[heads], list(countries))
    heads = heads[wanted]
    return _boxes(
        cvs[wanted], min_probes, samples.countries[heads], samples.categories[heads]
    )


def towards_nearest(traces: ResolvedTraceBlock, nearest: NearestMap) -> np.ndarray:
    """Which traces target their probe's nearest datacenter (Fig. 19)."""
    targets = [nearest.region_for(probe.probe_id) for probe in traces.traces.probes]
    codes = traces.traces.probe_codes
    providers = np.asarray([t[0] if t else "" for t in targets])[codes]
    regions = np.asarray([t[1] if t else "" for t in targets])[codes]
    return (traces.region_column("provider_code") == providers) & (
        traces.region_column("region_id") == regions
    )
