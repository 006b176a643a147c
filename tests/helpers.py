"""Builders for hand-crafted measurements used by analysis unit tests."""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.geo.continents import Continent
from repro.lastmile.base import AccessKind
from repro.measure.results import (
    MeasurementDataset,
    MeasurementMeta,
    PingMeasurement,
    Protocol,
    TracerouteMeasurement,
)


def make_meta(
    probe_id: str = "p1",
    platform: str = "speedchecker",
    country: str = "DE",
    continent: Continent = Continent.EU,
    access: AccessKind = AccessKind.HOME_WIFI,
    isp_asn: int = 3320,
    provider_code: str = "GCP",
    region_id: str = "frankfurt-2",
    region_country: str = "DE",
    region_continent: Continent = Continent.EU,
    day: int = 0,
    city_key: Tuple[int, int] = (25, 4),
) -> MeasurementMeta:
    return MeasurementMeta(
        probe_id=probe_id,
        platform=platform,
        country=country,
        continent=Continent(continent),
        access=AccessKind(access),
        isp_asn=isp_asn,
        provider_code=provider_code,
        region_id=region_id,
        region_country=region_country,
        region_continent=Continent(region_continent),
        day=day,
        city_key=city_key,
    )


def make_ping(
    samples: Sequence[float],
    protocol: Protocol = Protocol.TCP,
    **meta_kwargs: object,
) -> PingMeasurement:
    return PingMeasurement(
        meta=make_meta(**meta_kwargs),
        protocol=Protocol(protocol),
        samples=tuple(float(s) for s in samples),
    )


def dataset_of(
    *measurements: "PingMeasurement | TracerouteMeasurement",
) -> MeasurementDataset:
    dataset = MeasurementDataset()
    for measurement in measurements:
        if isinstance(measurement, PingMeasurement):
            dataset.add_ping(measurement)
        elif isinstance(measurement, TracerouteMeasurement):
            dataset.add_traceroute(measurement)
        else:
            raise TypeError(f"unsupported measurement {measurement!r}")
    return dataset
