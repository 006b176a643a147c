"""Measurement records and the dataset container.

Records intentionally carry only what a real measurement platform would
return (addresses, RTTs) plus the probe/endpoint bookkeeping the paper's
pipeline keeps alongside (probe id, geolocation, serving ASN, target
region).  Everything inferred -- AS paths, last-mile segments, peering
classes -- is derived by :mod:`repro.resolve` and :mod:`repro.analysis`,
exactly as the paper derives it from raw traceroutes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

import numpy as np

from repro.cloud.regions import CloudRegion
from repro.geo.continents import Continent
from repro.geo.coords import GeoPoint
from repro.lastmile.base import AccessKind
from repro.platforms.probe import CITY_CELL_DEGREES, Probe, city_key_for


class Protocol(str, Enum):
    """Measurement protocol."""

    TCP = "tcp"
    ICMP = "icmp"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class TraceHop(NamedTuple):
    """One traceroute hop: ``address`` is ``None`` when unresponsive.

    A named tuple rather than a dataclass: campaigns allocate one per
    hop of every trace, and tuple construction is several times cheaper.
    """

    address: Optional[int]
    rtt_ms: Optional[float]

    @property
    def responded(self) -> bool:
        return self.address is not None


@dataclass(frozen=True)
class MeasurementMeta:
    """Bookkeeping shared by ping and traceroute records."""

    probe_id: str
    platform: str
    country: str
    continent: Continent
    access: AccessKind
    isp_asn: int
    provider_code: str
    region_id: str
    region_country: str
    region_continent: Continent
    day: int
    #: Probe location quantized to ~a city (used by the same-<city, ASN>
    #: platform comparison of Fig. 16).
    city_key: Tuple[int, int]


@dataclass(frozen=True)
class PingMeasurement:
    """One ping request: a handful of RTT samples to a region endpoint."""

    meta: MeasurementMeta
    protocol: Protocol
    samples: Tuple[float, ...]

    @property
    def min_rtt_ms(self) -> float:
        return min(self.samples)

    @property
    def median_rtt_ms(self) -> float:
        ordered = sorted(self.samples)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return 0.5 * (ordered[mid - 1] + ordered[mid])


@dataclass(frozen=True)
class TracerouteMeasurement:
    """One traceroute: hop list ending (when successful) at the endpoint."""

    meta: MeasurementMeta
    protocol: Protocol
    source_address: int
    dest_address: int
    hops: Tuple[TraceHop, ...]

    @property
    def reached(self) -> bool:
        last = self.hops[-1] if self.hops else None
        return last is not None and last.address == self.dest_address

    @property
    def end_to_end_rtt_ms(self) -> Optional[float]:
        """RTT of the final (destination) hop, when reached."""
        if not self.reached:
            return None
        return self.hops[-1].rtt_ms


#: Wire codes for protocols inside columnar blocks.
PROTOCOL_BY_CODE: Tuple[Protocol, ...] = (Protocol.TCP, Protocol.ICMP)
PROTOCOL_CODES = {protocol: code for code, protocol in enumerate(PROTOCOL_BY_CODE)}


def build_meta(probe: Probe, region: "CloudRegion", day: int) -> MeasurementMeta:
    """The :class:`MeasurementMeta` for one (probe, region, day) request."""
    return MeasurementMeta(
        probe_id=probe.probe_id,
        platform=probe.platform,
        country=probe.country,
        continent=probe.continent,
        access=probe.access,
        isp_asn=probe.isp_asn,
        provider_code=region.provider_code,
        region_id=region.region_id,
        region_country=region.country,
        region_continent=region.continent,
        day=day,
        city_key=city_key_for(probe),
    )


def _metas_by_key(
    probes: Sequence[Probe],
    regions: Sequence[CloudRegion],
    keys: Sequence[Tuple[int, int, int]],
) -> Dict[Tuple[int, int, int], MeasurementMeta]:
    """One :class:`MeasurementMeta` per distinct (probe code, region
    code, day) key of a block."""
    return {
        key: build_meta(probes[key[0]], regions[key[1]], key[2])
        for key in dict.fromkeys(keys)
    }


def _codes_by(table: Sequence[Any], key: Callable[[Any], object]) -> np.ndarray:
    """Per table row, the order in which its ``key`` first occurs."""
    codes: Dict[object, int] = {}
    return np.asarray(
        [codes.setdefault(key(row), len(codes)) for row in table], np.int64
    )


class PingBlock:
    """One batch of ping requests in columnar form.

    Instead of one frozen dataclass per request, a block holds structured
    NumPy arrays over the whole batch -- interned probe/region codes, a
    day column, protocol codes, and a flat sample array indexed by
    per-request offsets.  :meth:`record` materializes the classic
    :class:`PingMeasurement` view for one row; :meth:`records` does so for
    the whole block and caches the result.  The analyses read the columns
    instead (see :func:`dataset_pings`).
    """

    __slots__ = (
        "probes",
        "regions",
        "probe_codes",
        "region_codes",
        "days",
        "protocol_codes",
        "sample_values",
        "sample_offsets",
        "epochs",
        "outage_ids",
        "_records",
    )

    def __init__(
        self,
        probes: Sequence,
        regions: Sequence,
        probe_codes: np.ndarray,
        region_codes: np.ndarray,
        days: np.ndarray,
        protocol_codes: np.ndarray,
        sample_values: np.ndarray,
        sample_offsets: np.ndarray,
        epochs: Optional[np.ndarray] = None,
        outage_ids: Optional[np.ndarray] = None,
    ) -> None:
        self.probes = list(probes)
        self.regions = list(regions)
        self.probe_codes = np.asarray(probe_codes, dtype=np.int32)
        self.region_codes = np.asarray(region_codes, dtype=np.int32)
        self.days = np.asarray(days, dtype=np.int32)
        self.protocol_codes = np.asarray(protocol_codes, dtype=np.uint8)
        self.sample_values = np.asarray(sample_values, dtype=np.float64)
        self.sample_offsets = np.asarray(sample_offsets, dtype=np.int64)
        self.epochs: Optional[np.ndarray] = (
            None if epochs is None else np.asarray(epochs, dtype=np.int32)
        )
        self.outage_ids: Optional[np.ndarray] = (
            None
            if outage_ids is None
            else np.asarray(outage_ids, dtype=np.int32)
        )
        if len(self.sample_offsets) != len(self.probe_codes) + 1:
            raise ValueError("sample_offsets must have one entry per request + 1")
        self._records: Optional[List[PingMeasurement]] = None

    def __len__(self) -> int:
        return len(self.probe_codes)

    @property
    def sample_count(self) -> int:
        return int(self.sample_offsets[-1]) if len(self.sample_offsets) else 0

    def record(self, index: int) -> PingMeasurement:
        """The record view of one request row."""
        i = int(index)
        lo = int(self.sample_offsets[i])
        hi = int(self.sample_offsets[i + 1])
        probe = self.probes[int(self.probe_codes[i])]
        region = self.regions[int(self.region_codes[i])]
        return PingMeasurement(
            meta=build_meta(probe, region, int(self.days[i])),
            protocol=PROTOCOL_BY_CODE[int(self.protocol_codes[i])],
            samples=tuple(float(v) for v in self.sample_values[lo:hi]),
        )

    def records(self) -> List[PingMeasurement]:
        """All record views, materialized once and cached.

        One pass over the block's columns as Python lists; rows of one
        (probe, region, day) share a single :class:`MeasurementMeta`.
        """
        if self._records is None:
            keys = list(
                zip(
                    self.probe_codes.tolist(),
                    self.region_codes.tolist(),
                    self.days.tolist(),
                )
            )
            metas = _metas_by_key(self.probes, self.regions, keys)
            offsets = self.sample_offsets.tolist()
            values = self.sample_values.tolist()
            self._records = [
                PingMeasurement(
                    meta=metas[key],
                    protocol=PROTOCOL_BY_CODE[protocol_code],
                    samples=tuple(values[lo:hi]),
                )
                for key, protocol_code, lo, hi in zip(
                    keys, self.protocol_codes.tolist(), offsets, offsets[1:]
                )
            ]
        return self._records

    # -- columns for group-bys --------------------------------------------

    def select(
        self, platform: Optional[str] = None, protocol: Optional[Protocol] = None
    ) -> np.ndarray:
        """The rows ``pings(platform, protocol)`` would yield, ascending."""
        keep = np.ones(len(self), bool)
        if platform is not None:
            on_platform = [probe.platform == platform for probe in self.probes]
            keep &= np.asarray(on_platform, bool)[self.probe_codes]
        if protocol is not None:
            keep &= self.protocol_codes == PROTOCOL_CODES[Protocol(protocol)]
        return np.flatnonzero(keep)

    def probe_codes_by(self, key: Callable[[Probe], object]) -> np.ndarray:
        """Per row, a code two rows share exactly when ``key`` of their
        probes is equal."""
        return _codes_by(self.probes, key)[self.probe_codes]

    def region_codes_by(self, key: Callable[[CloudRegion], object]) -> np.ndarray:
        """Per row, a code two rows share exactly when ``key`` of their
        target regions is equal."""
        return _codes_by(self.regions, key)[self.region_codes]

    def same_continent(self) -> np.ndarray:
        """Per row, whether the probe and its region share a continent."""
        probes = np.asarray([probe.continent.value for probe in self.probes])
        regions = np.asarray([region.continent.value for region in self.regions])
        return probes[self.probe_codes] == regions[self.region_codes]

    def sample_sums(self) -> np.ndarray:
        """Per row, its samples added left to right, as ``sum`` adds them."""
        counts = np.diff(self.sample_offsets)
        sums = np.zeros(len(counts))
        for k in range(int(counts.max(initial=0))):
            rows = np.flatnonzero(counts > k)
            sums[rows] += self.sample_values[self.sample_offsets[rows] + k]
        return sums

    def samples_of(self, rows: np.ndarray) -> np.ndarray:
        """The samples of ``rows``, row after row."""
        starts = self.sample_offsets[rows]
        counts = self.sample_offsets[rows + 1] - starts
        shift = np.repeat(starts - np.cumsum(counts) + counts, counts)
        return self.sample_values[shift + np.arange(int(counts.sum()))]

    def grouped_samples(self, rows: np.ndarray, labels: np.ndarray) -> List[np.ndarray]:
        """Per group of ``labels`` (numbered from 0, one per row of
        ``rows``), the samples of its rows in the order of ``rows``."""
        if not len(rows):
            return []
        order = np.argsort(labels, kind="stable")
        sizes = np.diff(self.sample_offsets)[rows]
        ends = np.cumsum(np.bincount(labels, weights=sizes)).astype(np.int64)
        return np.split(self.samples_of(rows[order]), ends[:-1])

    def validate(self) -> None:
        """Check the block's columns against the canonical schema.

        Raises :class:`TypeError` on dtype mismatches and
        :class:`ValueError` on internal inconsistencies (offset shape,
        out-of-range interned codes).
        """
        n = len(self)
        _validate_columns(
            self, PING_COLUMN_DTYPES, n, "sample_offsets", ("sample_values",)
        )
        _validate_optional_columns(self, PING_OPTIONAL_COLUMN_DTYPES, n)
        if n:
            if int(self.probe_codes.min()) < 0 or int(
                self.probe_codes.max()
            ) >= len(self.probes):
                raise ValueError("probe_codes reference rows outside the table")
            if int(self.region_codes.min()) < 0 or int(
                self.region_codes.max()
            ) >= len(self.regions):
                raise ValueError("region_codes reference rows outside the table")
            if int(self.protocol_codes.max()) >= len(PROTOCOL_BY_CODE):
                raise ValueError("protocol_codes contain unknown wire codes")

    def __repr__(self) -> str:
        return f"PingBlock(requests={len(self)}, samples={self.sample_count})"


#: The canonical column schema of a :class:`PingBlock`: attribute name ->
#: expected NumPy dtype.  Shared by the in-memory store validation and
#: the on-disk shard format of :mod:`repro.store`.
PING_COLUMN_DTYPES: Dict[str, np.dtype] = {
    "probe_codes": np.dtype(np.int32),
    "region_codes": np.dtype(np.int32),
    "days": np.dtype(np.int32),
    "protocol_codes": np.dtype(np.uint8),
    "sample_values": np.dtype(np.float64),
    "sample_offsets": np.dtype(np.int64),
}

#: The canonical column schema of a :class:`TraceBlock`.
TRACE_COLUMN_DTYPES: Dict[str, np.dtype] = {
    "probe_codes": np.dtype(np.int32),
    "region_codes": np.dtype(np.int32),
    "days": np.dtype(np.int32),
    "protocol_codes": np.dtype(np.uint8),
    "source_addresses": np.dtype(np.int64),
    "dest_addresses": np.dtype(np.int64),
    "hop_offsets": np.dtype(np.int64),
    "hop_addresses": np.dtype(np.int64),
    "hop_rtts": np.dtype(np.float64),
}

#: Optional per-request provenance columns carried by blocks produced
#: under an active network fault plan (:mod:`repro.netfaults`):
#: ``epochs`` is the routing epoch a request executed in, ``outage_ids``
#: the network event id that rerouted it (``-1`` when none).  Absent on
#: blocks from static-world runs, keeping those bytes unchanged.
PING_OPTIONAL_COLUMN_DTYPES: Dict[str, np.dtype] = {
    "epochs": np.dtype(np.int32),
    "outage_ids": np.dtype(np.int32),
}

#: Optional provenance columns of a :class:`TraceBlock`; see
#: :data:`PING_OPTIONAL_COLUMN_DTYPES`.
TRACE_OPTIONAL_COLUMN_DTYPES: Dict[str, np.dtype] = {
    "epochs": np.dtype(np.int32),
    "outage_ids": np.dtype(np.int32),
}


def _validate_optional_columns(
    block: object, schema: Mapping[str, np.dtype], rows: int
) -> None:
    """Check optional provenance columns when present (``None`` is valid)."""
    for name, expected in schema.items():
        column = getattr(block, name)
        if column is None:
            continue
        if not isinstance(column, np.ndarray):
            raise TypeError(
                f"{type(block).__name__}.{name} must be a numpy array or "
                f"None, got {type(column).__name__}"
            )
        if column.dtype != expected:
            raise TypeError(
                f"{type(block).__name__}.{name} has dtype {column.dtype}, "
                f"expected {expected}"
            )
        if column.ndim != 1:
            raise ValueError(
                f"{type(block).__name__}.{name} must be one-dimensional"
            )
        if len(column) != rows:
            raise ValueError(
                f"{type(block).__name__}.{name} has {len(column)} entries "
                f"for {rows} requests"
            )


def _validate_columns(
    block: object,
    schema: Mapping[str, np.dtype],
    rows: int,
    offsets_name: str,
    values_names: Sequence[str],
) -> None:
    """Schema/consistency checks shared by ping and trace blocks."""
    for name, expected in schema.items():
        column = getattr(block, name)
        if not isinstance(column, np.ndarray):
            raise TypeError(
                f"{type(block).__name__}.{name} must be a numpy array, "
                f"got {type(column).__name__}"
            )
        if column.dtype != expected:
            raise TypeError(
                f"{type(block).__name__}.{name} has dtype {column.dtype}, "
                f"expected {expected}"
            )
        if column.ndim != 1:
            raise ValueError(
                f"{type(block).__name__}.{name} must be one-dimensional"
            )
    offsets = getattr(block, offsets_name)
    if len(offsets) != rows + 1:
        raise ValueError(
            f"{offsets_name} must have {rows + 1} entries, got {len(offsets)}"
        )
    if rows and (int(offsets[0]) != 0 or np.any(np.diff(offsets) < 0)):
        raise ValueError(f"{offsets_name} must start at 0 and be nondecreasing")
    total = int(offsets[-1]) if len(offsets) else 0
    for values_name in values_names:
        values = getattr(block, values_name)
        if len(values) != total:
            raise ValueError(
                f"{values_name} has {len(values)} entries but "
                f"{offsets_name} addresses {total}"
            )


class TraceBlock:
    """One batch of traceroutes in columnar form.

    The traceroute counterpart of :class:`PingBlock`: interned
    probe/region codes, day and protocol columns, endpoint address
    columns, and a flat hop array indexed by per-trace offsets.
    Unresponsive hops are encoded in-band (address ``-1``, RTT ``NaN``)
    so the hop columns stay fixed-dtype and memmap-friendly.
    """

    #: In-band encoding of an unresponsive hop's address.
    NO_ADDRESS = -1

    __slots__ = (
        "probes",
        "regions",
        "probe_codes",
        "region_codes",
        "days",
        "protocol_codes",
        "source_addresses",
        "dest_addresses",
        "hop_offsets",
        "hop_addresses",
        "hop_rtts",
        "epochs",
        "outage_ids",
        "_records",
    )

    def __init__(
        self,
        probes: Sequence[Probe],
        regions: Sequence[CloudRegion],
        probe_codes: np.ndarray,
        region_codes: np.ndarray,
        days: np.ndarray,
        protocol_codes: np.ndarray,
        source_addresses: np.ndarray,
        dest_addresses: np.ndarray,
        hop_offsets: np.ndarray,
        hop_addresses: np.ndarray,
        hop_rtts: np.ndarray,
        epochs: Optional[np.ndarray] = None,
        outage_ids: Optional[np.ndarray] = None,
    ) -> None:
        self.probes = list(probes)
        self.regions = list(regions)
        self.probe_codes = np.asarray(probe_codes, dtype=np.int32)
        self.region_codes = np.asarray(region_codes, dtype=np.int32)
        self.days = np.asarray(days, dtype=np.int32)
        self.protocol_codes = np.asarray(protocol_codes, dtype=np.uint8)
        self.source_addresses = np.asarray(source_addresses, dtype=np.int64)
        self.dest_addresses = np.asarray(dest_addresses, dtype=np.int64)
        self.hop_offsets = np.asarray(hop_offsets, dtype=np.int64)
        self.hop_addresses = np.asarray(hop_addresses, dtype=np.int64)
        self.hop_rtts = np.asarray(hop_rtts, dtype=np.float64)
        self.epochs: Optional[np.ndarray] = (
            None if epochs is None else np.asarray(epochs, dtype=np.int32)
        )
        self.outage_ids: Optional[np.ndarray] = (
            None
            if outage_ids is None
            else np.asarray(outage_ids, dtype=np.int32)
        )
        if len(self.hop_offsets) != len(self.probe_codes) + 1:
            raise ValueError("hop_offsets must have one entry per trace + 1")
        self._records: Optional[List[TracerouteMeasurement]] = None

    def __len__(self) -> int:
        return len(self.probe_codes)

    @property
    def hop_count(self) -> int:
        return int(self.hop_offsets[-1]) if len(self.hop_offsets) else 0

    def record(self, index: int) -> TracerouteMeasurement:
        """The record view of one trace row."""
        i = int(index)
        lo = int(self.hop_offsets[i])
        hi = int(self.hop_offsets[i + 1])
        probe = self.probes[int(self.probe_codes[i])]
        region = self.regions[int(self.region_codes[i])]
        hops = []
        for address, rtt in zip(
            self.hop_addresses[lo:hi].tolist(), self.hop_rtts[lo:hi].tolist()
        ):
            if address == TraceBlock.NO_ADDRESS:
                hops.append(TraceHop(address=None, rtt_ms=None))
            else:
                hops.append(TraceHop(address=address, rtt_ms=rtt))
        return TracerouteMeasurement(
            meta=build_meta(probe, region, int(self.days[i])),
            protocol=PROTOCOL_BY_CODE[int(self.protocol_codes[i])],
            source_address=int(self.source_addresses[i]),
            dest_address=int(self.dest_addresses[i]),
            hops=tuple(hops),
        )

    def records(self) -> List[TracerouteMeasurement]:
        """All record views, materialized once and cached.

        One pass over the block's columns as Python lists; rows of one
        (probe, region, day) share a single :class:`MeasurementMeta`.
        """
        if self._records is None:
            keys = list(
                zip(
                    self.probe_codes.tolist(),
                    self.region_codes.tolist(),
                    self.days.tolist(),
                )
            )
            metas = _metas_by_key(self.probes, self.regions, keys)
            offsets = self.hop_offsets.tolist()
            silent = TraceHop(address=None, rtt_ms=None)
            hops = [
                silent
                if address == TraceBlock.NO_ADDRESS
                else TraceHop(address=address, rtt_ms=rtt)
                for address, rtt in zip(
                    self.hop_addresses.tolist(), self.hop_rtts.tolist()
                )
            ]
            self._records = [
                TracerouteMeasurement(
                    meta=metas[key],
                    protocol=PROTOCOL_BY_CODE[protocol_code],
                    source_address=source,
                    dest_address=dest,
                    hops=tuple(hops[lo:hi]),
                )
                for key, protocol_code, source, dest, lo, hi in zip(
                    keys,
                    self.protocol_codes.tolist(),
                    self.source_addresses.tolist(),
                    self.dest_addresses.tolist(),
                    offsets,
                    offsets[1:],
                )
            ]
        return self._records

    def validate(self) -> None:
        """Check the block's columns against the canonical schema."""
        n = len(self)
        _validate_columns(
            self,
            TRACE_COLUMN_DTYPES,
            n,
            "hop_offsets",
            ("hop_addresses", "hop_rtts"),
        )
        _validate_optional_columns(self, TRACE_OPTIONAL_COLUMN_DTYPES, n)
        if n:
            if int(self.probe_codes.min()) < 0 or int(
                self.probe_codes.max()
            ) >= len(self.probes):
                raise ValueError("probe_codes reference rows outside the table")
            if int(self.region_codes.min()) < 0 or int(
                self.region_codes.max()
            ) >= len(self.regions):
                raise ValueError("region_codes reference rows outside the table")
            if int(self.protocol_codes.max()) >= len(PROTOCOL_BY_CODE):
                raise ValueError("protocol_codes contain unknown wire codes")

    def __repr__(self) -> str:
        return f"TraceBlock(traces={len(self)}, hops={self.hop_count})"


def standin_probe(meta: MeasurementMeta) -> Probe:
    """A placeholder :class:`Probe` carrying exactly a record's meta.

    Used when columnarizing records whose originating probe objects are
    gone (e.g. a JSONL import): the stand-in reproduces every
    :class:`MeasurementMeta` field bit-for-bit -- the location is the
    city-cell centre, which quantizes back to the same ``city_key`` --
    while fields outside the meta (addresses, quality) take neutral
    defaults.
    """
    return Probe(
        probe_id=meta.probe_id,
        platform=meta.platform,
        country=meta.country,
        continent=meta.continent,
        location=GeoPoint(
            meta.city_key[0] * CITY_CELL_DEGREES,
            meta.city_key[1] * CITY_CELL_DEGREES,
        ),
        isp_asn=meta.isp_asn,
        access=meta.access,
        device_address=0,
        public_address=0,
    )


def standin_region(meta: MeasurementMeta) -> CloudRegion:
    """A placeholder :class:`CloudRegion` carrying a record's meta."""
    return CloudRegion(
        provider_code=meta.provider_code,
        region_id=meta.region_id,
        city="",
        country=meta.region_country,
        continent=meta.region_continent,
        location=GeoPoint(0.0, 0.0),
    )


#: The fields of a :class:`MeasurementMeta` that a probe decides, read
#: off a probe or a meta.  Block tables hold one probe per distinct key,
#: so interning and concatenation keep every row's meta.
probe_key = attrgetter(
    "probe_id", "platform", "country", "continent", "access", "isp_asn", "city_key"
)


def region_key(region: CloudRegion) -> Tuple[object, ...]:
    """The fields of a :class:`MeasurementMeta` that a region decides."""
    return (region.provider_code, region.region_id, region.country, region.continent)


_meta_region_key = attrgetter(
    "provider_code", "region_id", "region_country", "region_continent"
)


class _BlockInterner:
    """Shared probe/region interning for the record -> block builders,
    by the probe and region parts of each record's meta.  A lookup-table
    object stands in only for the part it reproduces."""

    def __init__(
        self,
        probes_by_id: Optional[Mapping[str, Probe]],
        regions_by_key: Optional[Mapping[Tuple[str, str], CloudRegion]],
    ) -> None:
        self._probes_by_id = probes_by_id or {}
        self._regions_by_key = regions_by_key or {}
        self.probes: List[Probe] = []
        self.regions: List[CloudRegion] = []
        self._probe_codes: Dict[Tuple[object, ...], int] = {}
        self._region_codes: Dict[Tuple[object, ...], int] = {}

    def probe_code(self, meta: MeasurementMeta) -> int:
        key = probe_key(meta)
        code = self._probe_codes.get(key)
        if code is None:
            code = self._probe_codes[key] = len(self.probes)
            probe = self._probes_by_id.get(meta.probe_id)
            if probe is None or probe_key(probe) != key:
                probe = standin_probe(meta)
            self.probes.append(probe)
        return code

    def region_code(self, meta: MeasurementMeta) -> int:
        key = _meta_region_key(meta)
        code = self._region_codes.get(key)
        if code is None:
            code = self._region_codes[key] = len(self.regions)
            region = self._regions_by_key.get(key[:2])
            if region is None or region_key(region) != key:
                region = standin_region(meta)
            self.regions.append(region)
        return code


def ping_block_from_records(
    records: Sequence[PingMeasurement],
    probes_by_id: Optional[Mapping[str, Probe]] = None,
    regions_by_key: Optional[Mapping[Tuple[str, str], CloudRegion]] = None,
) -> PingBlock:
    """Columnarize ping records into one :class:`PingBlock`.

    The inverse of :meth:`PingBlock.records`.  When the optional lookup
    tables do not cover a record, a stand-in probe/region reproducing
    the record's meta exactly is interned instead -- see
    :func:`standin_probe`.
    """
    interner = _BlockInterner(probes_by_id, regions_by_key)
    probe_codes: List[int] = []
    region_codes: List[int] = []
    days: List[int] = []
    protocol_codes: List[int] = []
    sample_values: List[float] = []
    sample_offsets: List[int] = [0]
    for record in records:
        probe_codes.append(interner.probe_code(record.meta))
        region_codes.append(interner.region_code(record.meta))
        days.append(record.meta.day)
        protocol_codes.append(PROTOCOL_CODES[record.protocol])
        sample_values.extend(record.samples)
        sample_offsets.append(len(sample_values))
    return PingBlock(
        probes=interner.probes,
        regions=interner.regions,
        probe_codes=np.array(probe_codes, np.int32),
        region_codes=np.array(region_codes, np.int32),
        days=np.array(days, np.int32),
        protocol_codes=np.array(protocol_codes, np.uint8),
        sample_values=np.array(sample_values, np.float64),
        sample_offsets=np.array(sample_offsets, np.int64),
    )


def trace_block_from_records(
    records: Sequence[TracerouteMeasurement],
    probes_by_id: Optional[Mapping[str, Probe]] = None,
    regions_by_key: Optional[Mapping[Tuple[str, str], CloudRegion]] = None,
) -> TraceBlock:
    """Columnarize traceroute records into one :class:`TraceBlock`.

    The inverse of :meth:`TraceBlock.records`; unresponsive hops are
    encoded as (``TraceBlock.NO_ADDRESS``, ``NaN``).
    """
    interner = _BlockInterner(probes_by_id, regions_by_key)
    probe_codes: List[int] = []
    region_codes: List[int] = []
    days: List[int] = []
    protocol_codes: List[int] = []
    source_addresses: List[int] = []
    dest_addresses: List[int] = []
    hop_addresses: List[int] = []
    hop_rtts: List[float] = []
    hop_offsets: List[int] = [0]
    for record in records:
        probe_codes.append(interner.probe_code(record.meta))
        region_codes.append(interner.region_code(record.meta))
        days.append(record.meta.day)
        protocol_codes.append(PROTOCOL_CODES[record.protocol])
        source_addresses.append(record.source_address)
        dest_addresses.append(record.dest_address)
        for hop in record.hops:
            if hop.address is None:
                hop_addresses.append(TraceBlock.NO_ADDRESS)
                hop_rtts.append(math.nan)
            else:
                hop_addresses.append(hop.address)
                hop_rtts.append(
                    hop.rtt_ms if hop.rtt_ms is not None else math.nan
                )
        hop_offsets.append(len(hop_addresses))
    return TraceBlock(
        probes=interner.probes,
        regions=interner.regions,
        probe_codes=np.array(probe_codes, np.int32),
        region_codes=np.array(region_codes, np.int32),
        days=np.array(days, np.int32),
        protocol_codes=np.array(protocol_codes, np.uint8),
        source_addresses=np.array(source_addresses, np.int64),
        dest_addresses=np.array(dest_addresses, np.int64),
        hop_offsets=np.array(hop_offsets, np.int64),
        hop_addresses=np.array(hop_addresses, np.int64),
        hop_rtts=np.array(hop_rtts, np.float64),
    )


def first_seen(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Where each distinct key of ``keys`` first occurs, in that order,
    and each key's index among the distinct keys: the order in which a
    dict filled row by row would hold them."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(order), np.int64)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse]


def join_offsets(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Offsets of ragged columns laid end to end."""
    counts = np.concatenate([np.diff(part) for part in parts])
    offsets = np.zeros(len(counts) + 1, np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


#: A :class:`PingBlock` or a :class:`TraceBlock`.
Block = TypeVar("Block", "PingBlock", "TraceBlock")


def _merged_table(
    blocks: Sequence[Block],
    table: str,
    codes: str,
    key: Callable[[Any], Tuple[object, ...]],
) -> Tuple[List[Any], np.ndarray]:
    """One table for ``blocks``' ``table`` attributes, one row per distinct
    ``key`` (the first block's object wins), and every row's code in it."""
    index: Dict[Tuple[object, ...], int] = {}
    merged: List[Any] = []
    joined = []
    for block in blocks:
        remap = []
        for row in getattr(block, table):
            code = index.setdefault(key(row), len(merged))
            if code == len(merged):
                merged.append(row)
            remap.append(code)
        joined.append(np.asarray(remap, np.int32)[getattr(block, codes)])
    return merged, np.concatenate(joined)


def concatenate_blocks(blocks: Sequence[Block]) -> Block:
    """One block holding ``blocks``' rows in order; all of one kind.

    Probes are merged by :func:`probe_key` and regions by
    :func:`region_key`, so every row keeps its meta.  The netfault
    provenance columns are not carried over.
    """
    if len(blocks) == 1:
        return blocks[0]
    schema, offsets = (
        (PING_COLUMN_DTYPES, "sample_offsets")
        if isinstance(blocks[0], PingBlock)
        else (TRACE_COLUMN_DTYPES, "hop_offsets")
    )
    probes, probe_codes = _merged_table(blocks, "probes", "probe_codes", probe_key)
    regions, region_codes = _merged_table(
        blocks, "regions", "region_codes", region_key
    )
    columns = {
        name: np.concatenate([getattr(block, name) for block in blocks])
        for name in schema
        if name not in ("probe_codes", "region_codes", offsets)
    }
    columns[offsets] = join_offsets([getattr(block, offsets) for block in blocks])
    return type(blocks[0])(
        probes=probes,
        regions=regions,
        probe_codes=probe_codes,
        region_codes=region_codes,
        **columns,
    )


def dataset_pings(dataset: "MeasurementDataset") -> PingBlock:
    """Every ping of an in-memory or stored dataset as one block, in the
    order of its ``pings()``: its scalar records (as one block), then its
    blocks.  This is the column view the ping analyses group.

    The view is built once per dataset revision and shared by every
    caller until the dataset changes (see :class:`PingsView`), so its
    arrays are read-only.
    """
    return dataset.pings_view.get(dataset)


class PingsView:
    """A dataset's :func:`dataset_pings` view, kept until its revision
    changes.

    A dataset's ``revision`` changes whenever its pings may have: an
    in-memory dataset counts its additions, and a stored dataset reports
    its journal digest.
    """

    __slots__ = ("_revision", "_view")

    def __init__(self) -> None:
        self._revision: object = None
        self._view: Optional[PingBlock] = None

    def get(self, dataset: "MeasurementDataset") -> PingBlock:
        revision = dataset.revision
        if self._view is None or revision != self._revision:
            self._view = None  # let the old view go before the new one
            self._view = _read_only(_join_pings(dataset))
            self._revision = revision
        return self._view


def _join_pings(dataset: "MeasurementDataset") -> PingBlock:
    blocks = list(dataset.iter_ping_blocks())
    scalar = list(dataset.iter_scalar_pings())
    if scalar or not blocks:
        blocks.insert(0, ping_block_from_records(scalar))
    return concatenate_blocks(blocks)


def _read_only(block: PingBlock) -> PingBlock:
    """A block over read-only views of ``block``'s columns."""
    columns = {
        name: getattr(block, name).view() for name in PING_COLUMN_DTYPES
    }
    for column in columns.values():
        column.flags.writeable = False
    return PingBlock(probes=block.probes, regions=block.regions, **columns)


class MeasurementDataset:
    """An in-memory dataset of ping and traceroute measurements.

    Pings arrive either as individual records (:meth:`add_ping`) or as
    columnar :class:`PingBlock` batches from the vectorized engine
    (:meth:`add_ping_block`); :meth:`pings` yields the uniform record
    view over both backings, and :func:`dataset_pings` the uniform column
    view.
    """

    def __init__(self) -> None:
        self._pings: List[PingMeasurement] = []
        self._ping_blocks: List[PingBlock] = []
        self._traceroutes: List[TracerouteMeasurement] = []
        self._trace_blocks: List[TraceBlock] = []
        self._revision = 0
        #: The shared :func:`dataset_pings` view.
        self.pings_view = PingsView()

    @property
    def revision(self) -> int:
        """The number of additions so far: it changes whenever the
        dataset does."""
        return self._revision

    # -- construction -----------------------------------------------------

    def add_ping(self, measurement: PingMeasurement) -> None:
        self._pings.append(measurement)
        self._revision += 1

    def add_ping_block(self, block: PingBlock) -> None:
        """Append a ping batch.  The block is schema-validated first, so a
        malformed one (wrong dtypes, inconsistent offsets, out-of-range
        codes) fails here instead of in an analysis or a shard later."""
        block.validate()
        self._ping_blocks.append(block)
        self._revision += 1

    def add_traceroute(self, measurement: TracerouteMeasurement) -> None:
        self._traceroutes.append(measurement)
        self._revision += 1

    def add_trace_block(self, block: TraceBlock) -> None:
        """Append a traceroute batch, schema-validated like
        :meth:`add_ping_block`."""
        block.validate()
        self._trace_blocks.append(block)
        self._revision += 1

    def extend(self, other: "MeasurementDataset") -> None:
        """Merge another dataset -- in memory or a store view -- into this
        one, through its public read API."""
        self._pings.extend(other.iter_scalar_pings())
        for ping_block in other.iter_ping_blocks():
            self.add_ping_block(ping_block)
        self._traceroutes.extend(other.iter_scalar_traceroutes())
        for trace_block in other.iter_trace_blocks():
            self.add_trace_block(trace_block)
        self._revision += 1

    # -- access ------------------------------------------------------------

    @property
    def ping_count(self) -> int:
        return len(self._pings) + sum(len(block) for block in self._ping_blocks)

    @property
    def traceroute_count(self) -> int:
        return len(self._traceroutes) + sum(
            len(block) for block in self._trace_blocks
        )

    @property
    def ping_sample_count(self) -> int:
        return sum(len(p.samples) for p in self._pings) + sum(
            block.sample_count for block in self._ping_blocks
        )

    def pings(
        self,
        platform: Optional[str] = None,
        protocol: Optional[Protocol] = None,
        predicate: Optional[Callable[[PingMeasurement], bool]] = None,
    ) -> Iterator[PingMeasurement]:
        """Iterate pings (scalar records first, then columnar blocks)."""
        wanted = None if protocol is None else Protocol(protocol)
        for measurement in self._iter_all_pings():
            if platform is not None and measurement.meta.platform != platform:
                continue
            if wanted is not None and measurement.protocol is not wanted:
                continue
            if predicate is not None and not predicate(measurement):
                continue
            yield measurement

    def _iter_all_pings(self) -> Iterator[PingMeasurement]:
        yield from self._pings
        for block in self._ping_blocks:
            yield from block.records()

    def traceroutes(
        self,
        platform: Optional[str] = None,
        protocol: Optional[Protocol] = None,
        predicate: Optional[Callable[[TracerouteMeasurement], bool]] = None,
    ) -> Iterator[TracerouteMeasurement]:
        """Iterate traceroutes (scalar records first, then columnar blocks)."""
        wanted = None if protocol is None else Protocol(protocol)
        for measurement in self._iter_all_traceroutes():
            if platform is not None and measurement.meta.platform != platform:
                continue
            if wanted is not None and measurement.protocol is not wanted:
                continue
            if predicate is not None and not predicate(measurement):
                continue
            yield measurement

    def _iter_all_traceroutes(self) -> Iterator[TracerouteMeasurement]:
        yield from self._traceroutes
        for block in self._trace_blocks:
            yield from block.records()

    def iter_scalar_pings(self) -> Iterator[PingMeasurement]:
        """The individually-added ping records (no columnar blocks)."""
        return iter(self._pings)

    def iter_scalar_traceroutes(self) -> Iterator[TracerouteMeasurement]:
        """The individually-added traceroutes (no columnar blocks)."""
        return iter(self._traceroutes)

    def ping_blocks(self) -> List[PingBlock]:
        """The columnar ping blocks (batched pings only)."""
        return list(self._ping_blocks)

    def trace_blocks(self) -> List[TraceBlock]:
        """The columnar traceroute blocks."""
        return list(self._trace_blocks)

    def iter_ping_blocks(self) -> Iterator[PingBlock]:
        """Yield ping blocks lazily (list-copy-free counterpart of
        :meth:`ping_blocks`, mirroring the store view's generator)."""
        return iter(self._ping_blocks)

    def iter_trace_blocks(self) -> Iterator[TraceBlock]:
        """Yield trace blocks lazily."""
        return iter(self._trace_blocks)

    def __repr__(self) -> str:
        return (
            f"MeasurementDataset(pings={self.ping_count}, "
            f"traceroutes={self.traceroute_count})"
        )
