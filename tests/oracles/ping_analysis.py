"""Record-loop references for the ping analyses.

These are :mod:`repro.analysis.nearest`, :mod:`~repro.analysis.compare`,
:mod:`~repro.analysis.intercontinental`, :mod:`~repro.analysis.providers`,
:mod:`~repro.analysis.composition`, :mod:`~repro.analysis.temporal` and
:mod:`repro.experiments.stats_exp` as they ran before they became
group-bys over a dataset's ping columns: one Python pass over the
record views of ``helpers.pings``, filling dicts of lists.  Parity tests assert that
each group-by returns what its reference here returns: the same dict
and list order and the same float bits.  Fig. 15's TCP loop lives with
the trace references (``oracles.trace_analysis.protocol_comparison``).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from helpers import pings

from repro.analysis.compare import (
    DifferenceDistribution,
    _paired_differences,
    _summarize,
)
from repro.analysis.composition import CompositionReport
from repro.analysis.nearest import NearestMap, RegionKey
from repro.analysis.providers import ProviderConsistency
from repro.analysis.report import format_table
from repro.analysis.stats import required_sample_size
from repro.analysis.temporal import TemporalReport
from repro.experiments.common import ExperimentResult
from repro.geo.continents import Continent
from repro.measure.results import MeasurementDataset, PingMeasurement, Protocol


# -- nearest datacenter (Figs. 3, 4) --------------------------------------------


def nearest_by_probe(
    dataset: MeasurementDataset,
    platform: str,
    protocol: Protocol = Protocol.TCP,
    same_continent_only: bool = True,
) -> NearestMap:
    """Estimate each probe's nearest datacenter from its measurements."""
    sums: Dict[Tuple[str, RegionKey], List[float]] = {}
    for ping in pings(dataset, platform=platform, protocol=protocol):
        meta = ping.meta
        if same_continent_only and meta.region_continent is not meta.continent:
            continue
        key = (meta.probe_id, (meta.provider_code, meta.region_id))
        bucket = sums.setdefault(key, [0.0, 0])
        bucket[0] += sum(ping.samples)
        bucket[1] += len(ping.samples)
    best: Dict[str, Tuple[float, RegionKey]] = {}
    for (probe_id, region_key), (total, count) in sums.items():
        mean = total / count
        current = best.get(probe_id)
        if current is None or mean < current[0]:
            best[probe_id] = (mean, region_key)
    return NearestMap({probe_id: region for probe_id, (_, region) in best.items()})


def samples_to_nearest(
    dataset: MeasurementDataset,
    platform: str,
    protocol: Protocol = Protocol.TCP,
    nearest: Optional[NearestMap] = None,
    same_continent_only: bool = True,
) -> Iterator[Tuple[PingMeasurement, float]]:
    """(measurement, rtt) pairs restricted to each probe's nearest DC."""
    if nearest is None:
        nearest = nearest_by_probe(
            dataset, platform, protocol, same_continent_only
        )
    for ping in pings(dataset, platform=platform, protocol=protocol):
        meta = ping.meta
        if nearest.region_for(meta.probe_id) != (
            meta.provider_code,
            meta.region_id,
        ):
            continue
        for sample in ping.samples:
            yield ping, sample


def nearest_samples_by_continent(
    dataset: MeasurementDataset,
    platform: str,
    protocol: Protocol = Protocol.TCP,
) -> Dict[Continent, List[float]]:
    """All nearest-DC RTT samples grouped by probe continent (Fig. 4)."""
    grouped: Dict[Continent, List[float]] = {}
    for ping, sample in samples_to_nearest(dataset, platform, protocol):
        grouped.setdefault(ping.meta.continent, []).append(sample)
    return grouped


def nearest_samples_by_country(
    dataset: MeasurementDataset,
    platform: str,
    protocol: Protocol = Protocol.TCP,
) -> Dict[str, List[float]]:
    """All nearest-DC RTT samples grouped by probe country (Fig. 3)."""
    grouped: Dict[str, List[float]] = {}
    for ping, sample in samples_to_nearest(dataset, platform, protocol):
        grouped.setdefault(ping.meta.country, []).append(sample)
    return grouped


# -- platform comparison (Figs. 5, 16) -----------------------------------------


def platform_differences(
    dataset: MeasurementDataset,
    rng: np.random.Generator,
    protocol: Protocol = Protocol.TCP,
    pairs_per_continent: int = 20_000,
    min_samples: int = 10,
) -> Dict[Continent, DifferenceDistribution]:
    """Fig. 5: nearest-DC latency differences per continent."""
    sc_samples: Dict[Continent, List[float]] = {}
    for ping, sample in samples_to_nearest(dataset, "speedchecker", protocol):
        sc_samples.setdefault(ping.meta.continent, []).append(sample)
    atlas_samples: Dict[Continent, List[float]] = {}
    for ping, sample in samples_to_nearest(dataset, "atlas", protocol):
        atlas_samples.setdefault(ping.meta.continent, []).append(sample)

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
    GroupKey = Tuple[Tuple[int, int], int, str, str]

    def collect(platform: str) -> Dict[GroupKey, List[float]]:
        grouped: Dict[GroupKey, List[float]] = {}
        for ping in pings(dataset, platform=platform, protocol=protocol):
            meta = ping.meta
            key = (meta.city_key, meta.isp_asn, meta.provider_code, meta.region_id)
            grouped.setdefault(key, []).extend(ping.samples)
        return grouped

    sc_groups = collect("speedchecker")
    atlas_groups = collect("atlas")
    # Continent per group key is recoverable from any member measurement;
    # rebuild a key -> continent map from the Speedchecker side.
    continent_of: Dict[GroupKey, Continent] = {}
    for ping in pings(dataset, platform="speedchecker", protocol=protocol):
        meta = ping.meta
        continent_of[
            (meta.city_key, meta.isp_asn, meta.provider_code, meta.region_id)
        ] = meta.continent

    per_continent_diffs: Dict[Continent, List[np.ndarray]] = {}
    group_counts: Dict[Continent, int] = {}
    for key in set(sc_groups) & set(atlas_groups):
        sc = sc_groups[key]
        at = atlas_groups[key]
        if len(sc) < min_samples or len(at) < min_samples:
            continue
        continent = continent_of.get(key)
        if continent is None:
            continue
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


# -- inter-continental latency (Fig. 6) ----------------------------------------


def nearest_region_samples(
    dataset: MeasurementDataset,
    platform: str,
    protocol: Protocol,
    countries: Sequence[str],
    target_continents: Sequence[Continent],
) -> Dict[Tuple[str, Continent], List[float]]:
    """All samples grouped by (country, target continent), restricted per
    probe to its lowest-mean region within each target continent."""
    wanted = set(countries)
    targets = set(target_continents)
    # mean latency per (probe, target continent, region)
    sums: Dict[Tuple[str, Continent, Tuple[str, str]], List[float]] = {}
    samples: Dict[Tuple[str, Continent, Tuple[str, str]], List[float]] = {}
    country_of: Dict[str, str] = {}
    for ping in pings(dataset, platform=platform, protocol=protocol):
        meta = ping.meta
        if meta.country not in wanted:
            continue
        if meta.region_continent not in targets:
            continue
        key = (
            meta.probe_id,
            meta.region_continent,
            (meta.provider_code, meta.region_id),
        )
        bucket = sums.setdefault(key, [0.0, 0])
        bucket[0] += sum(ping.samples)
        bucket[1] += len(ping.samples)
        samples.setdefault(key, []).extend(ping.samples)
        country_of[meta.probe_id] = meta.country

    best: Dict[Tuple[str, Continent], Tuple[float, Tuple[str, str]]] = {}
    for (probe_id, continent, region_key), (total, count) in sums.items():
        mean = total / count
        current = best.get((probe_id, continent))
        if current is None or mean < current[0]:
            best[(probe_id, continent)] = (mean, region_key)

    grouped: Dict[Tuple[str, Continent], List[float]] = {}
    for (probe_id, continent), (_, region_key) in best.items():
        values = samples[(probe_id, continent, region_key)]
        group = (country_of[probe_id], continent)
        grouped.setdefault(group, []).extend(values)
    return grouped


# -- cross-provider consistency and composition --------------------------------


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
    sums: Dict[Tuple[str, str, str, str], List[float]] = {}
    samples: Dict[Tuple[str, str, str, str], List[float]] = {}
    continent_of: Dict[str, Continent] = {}
    for ping in pings(dataset, platform=platform, protocol=protocol):
        meta = ping.meta
        if meta.region_continent is not meta.continent:
            continue
        key = (meta.probe_id, meta.provider_code, meta.region_id, "")
        bucket = sums.setdefault(key, [0.0, 0])
        bucket[0] += sum(ping.samples)
        bucket[1] += len(ping.samples)
        samples.setdefault(key, []).extend(ping.samples)
        continent_of[meta.probe_id] = meta.continent

    best: Dict[Tuple[str, str], Tuple[float, Tuple]] = {}
    for key, (total, count) in sums.items():
        probe_id, provider_code, _, _ = key
        mean = total / count
        current = best.get((probe_id, provider_code))
        if current is None or mean < current[0]:
            best[(probe_id, provider_code)] = (mean, key)

    grouped: Dict[Tuple[Continent, str], List[float]] = {}
    for (probe_id, provider_code), (_, key) in best.items():
        continent = continent_of[probe_id]
        grouped.setdefault((continent, provider_code), []).extend(samples[key])

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


def dataset_composition(
    dataset: MeasurementDataset, platform: str = "speedchecker"
) -> CompositionReport:
    """Sample-count composition of a campaign dataset."""
    per_continent: Dict[Continent, int] = {}
    intra: Dict[Continent, int] = {}
    inter: Dict[Continent, int] = {}
    total = 0
    for ping in pings(dataset, platform=platform):
        count = len(ping.samples)
        continent = ping.meta.continent
        per_continent[continent] = per_continent.get(continent, 0) + count
        if ping.meta.region_continent is continent:
            intra[continent] = intra.get(continent, 0) + count
        else:
            inter[continent] = inter.get(continent, 0) + count
        total += count
    if total == 0:
        raise ValueError("dataset has no ping samples for the platform")
    continent_share = {
        continent: count / total for continent, count in per_continent.items()
    }
    intra_share = {}
    for continent in per_continent:
        cross = inter.get(continent, 0)
        home = intra.get(continent, 0)
        if cross:
            intra_share[continent] = home / (home + cross)
    return CompositionReport(
        total_samples=total,
        continent_share=continent_share,
        intra_share=intra_share,
    )


# -- temporal stability and sample counts (section 3.3) ------------------------


def temporal_report(
    dataset: MeasurementDataset,
    platform: str = "speedchecker",
    protocol: Protocol = Protocol.TCP,
    min_samples_per_day: int = 20,
) -> TemporalReport:
    """Summarize per-day latency across a campaign."""
    per_day: Dict[int, List[float]] = {}
    for ping in pings(dataset, platform=platform, protocol=protocol):
        per_day.setdefault(ping.meta.day, []).extend(ping.samples)
    daily_median = {
        day: float(np.median(samples))
        for day, samples in sorted(per_day.items())
        if len(samples) >= min_samples_per_day
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


def run_stats(world, dataset=None) -> ExperimentResult:
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
        per_country: Dict[str, int] = {}
        for ping in pings(dataset, platform="speedchecker"):
            per_country[ping.meta.country] = (
                per_country.get(ping.meta.country, 0) + len(ping.samples)
            )
        scaled_bar = max(10, int(paper_n * world.config.scale))
        cleared = sum(1 for count in per_country.values() if count >= scaled_bar)
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
