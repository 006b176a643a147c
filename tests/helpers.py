"""Builders for hand-crafted measurements used by analysis unit tests,
and record filters over a dataset's blocks."""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional, Sequence, Tuple

from repro.geo.continents import Continent
from repro.lastmile.base import AccessKind
from repro.measure.results import (
    MeasurementDataset,
    MeasurementMeta,
    PingMeasurement,
    Protocol,
    TracerouteMeasurement,
    ping_block_from_records,
    trace_block_from_records,
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
    """A dataset of one ping block and one trace block holding
    ``measurements`` in order, as the JSONL loader builds it."""
    pings, traces = [], []
    for measurement in measurements:
        if isinstance(measurement, PingMeasurement):
            pings.append(measurement)
        elif isinstance(measurement, TracerouteMeasurement):
            traces.append(measurement)
        else:
            raise TypeError(f"unsupported measurement {measurement!r}")
    dataset = MeasurementDataset()
    dataset.add_ping_block(ping_block_from_records(pings))
    dataset.add_trace_block(trace_block_from_records(traces))
    return dataset


def _records(
    blocks: Iterable[Any],
    platform: Optional[str],
    protocol: Optional[Protocol],
) -> Iterator[Any]:
    """The record views of ``blocks`` on ``platform`` over ``protocol``
    (``None`` keeps every value), block after block."""
    wanted = None if protocol is None else Protocol(protocol)
    for block in blocks:
        for record in block.records():
            if platform is not None and record.meta.platform != platform:
                continue
            if wanted is not None and record.protocol is not wanted:
                continue
            yield record


def pings(
    dataset: MeasurementDataset,
    platform: Optional[str] = None,
    protocol: Optional[Protocol] = None,
) -> Iterator[PingMeasurement]:
    """A dataset's ping records, filtered like :func:`_records`."""
    return _records(dataset.ping_blocks(), platform, protocol)


def traceroutes(
    dataset: MeasurementDataset,
    platform: Optional[str] = None,
    protocol: Optional[Protocol] = None,
) -> Iterator[TracerouteMeasurement]:
    """A dataset's traceroute records, filtered like :func:`_records`."""
    return _records(dataset.trace_blocks(), platform, protocol)
