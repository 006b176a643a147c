"""Measurement records, the columnar blocks that hold them, and the
dataset container.

Records intentionally carry only what a real measurement platform would
return (addresses, RTTs) plus the probe/endpoint bookkeeping the paper's
pipeline keeps alongside (probe id, geolocation, serving ASN, target
region).  Everything inferred -- AS paths, last-mile segments, peering
classes -- is derived by :mod:`repro.resolve` and :mod:`repro.analysis`,
exactly as the paper derives it from raw traceroutes.

Every batch of rows is a :class:`Block`: the requests a scheduler emits
(:mod:`repro.measure.requests`) and the :class:`PingBlock` and
:class:`TraceBlock` the batch engine returns.  A block holds interned
probe and region tables and the columns its class's schema declares;
construction, validation, :meth:`Block.take` and
:meth:`Block.concatenate` are written once on the base, and the shard
codec (:mod:`repro.store.shards`) reads the same schema.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Type,
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


#: The columns every block starts with, in shard order: interned probe
#: and region codes, the day and the protocol's wire code.
KEY_COLUMNS: Dict[str, np.dtype] = {
    "probe_codes": np.dtype(np.int32),
    "region_codes": np.dtype(np.int32),
    "days": np.dtype(np.int32),
    "protocol_codes": np.dtype(np.uint8),
}

#: Optional per-row provenance columns of the measurement blocks that
#: run under an active network fault plan (:mod:`repro.netfaults`):
#: ``epochs`` is the routing epoch a request executed in, ``outage_ids``
#: the network event id that rerouted it (``-1`` when none).  Absent on
#: blocks from static-world runs, keeping those bytes unchanged.
PROVENANCE_COLUMNS: Dict[str, np.dtype] = {
    "epochs": np.dtype(np.int32),
    "outage_ids": np.dtype(np.int32),
}

_B = TypeVar("_B", bound="Block")


class Block:
    """One batch of rows in columns, over interned probe and region tables.

    ``probes`` and ``regions`` are the tables; the ``probe_codes`` and
    ``region_codes`` columns index them.  A subclass lists every
    attribute in its own ``__slots__`` and declares its schema:

    - :attr:`COLUMNS`: every column, name -> dtype, in shard order;
    - :attr:`RAGGED`: each offsets column of :attr:`COLUMNS` -> the value
      columns it indexes (row ``i`` owns values ``offsets[i]:offsets[i + 1]``);
      every other column holds one entry per row;
    - :attr:`OPTIONAL`: per-row columns that may be ``None``.

    Construction, :meth:`validate`, :meth:`take` and :meth:`concatenate`
    read nothing else, so they are written once for every block kind.
    """

    __slots__ = ()

    COLUMNS: ClassVar[Dict[str, np.dtype]]
    RAGGED: ClassVar[Dict[str, Tuple[str, ...]]] = {}
    OPTIONAL: ClassVar[Dict[str, np.dtype]] = {}

    probes: List[Probe]
    regions: List[CloudRegion]
    probe_codes: np.ndarray
    region_codes: np.ndarray
    days: np.ndarray
    protocol_codes: np.ndarray

    def __init__(
        self,
        probes: Sequence[Probe],
        regions: Sequence[CloudRegion],
        **columns: Optional[np.ndarray],
    ) -> None:
        unknown = [name for name in columns if name not in self._schema()]
        missing = [name for name in self.COLUMNS if name not in columns]
        if unknown or missing:
            raise TypeError(
                f"{type(self).__name__} got unknown columns {unknown} "
                f"and lacks {missing}"
            )
        self.probes = list(probes)
        self.regions = list(regions)
        for name, dtype in self._schema().items():
            column = columns.get(name)
            setattr(self, name, None if column is None else np.asarray(column, dtype))
        for offsets in self.RAGGED:
            if len(getattr(self, offsets)) != len(self) + 1:
                raise ValueError(f"{offsets} must have one entry per row + 1")
        # Private slots are caches, empty until first read.
        for name in self.__slots__:
            if name.startswith("_"):
                setattr(self, name, None)

    @classmethod
    def _schema(cls) -> Dict[str, np.dtype]:
        return {**cls.COLUMNS, **cls.OPTIONAL}

    @classmethod
    def _row_columns(cls) -> List[str]:
        """The columns of :attr:`COLUMNS` with one entry per row."""
        ragged = set(cls.RAGGED).union(*cls.RAGGED.values())
        return [name for name in cls.COLUMNS if name not in ragged]

    def __len__(self) -> int:
        return len(self.probe_codes)

    def validate(self) -> None:
        """Check the columns against the schema.

        Raises :class:`TypeError` on a column of the wrong type or dtype
        and :class:`ValueError` on internal inconsistencies (lengths,
        offsets, out-of-range interned or protocol codes).
        """
        kind = type(self).__name__
        rows = len(self)
        per_row = self._row_columns() + list(self.OPTIONAL)
        for name, dtype in self._schema().items():
            column = getattr(self, name)
            if column is None and name in self.OPTIONAL:
                continue
            if not isinstance(column, np.ndarray):
                raise TypeError(
                    f"{kind}.{name} must be a numpy array, "
                    f"got {type(column).__name__}"
                )
            if column.dtype != dtype:
                raise TypeError(
                    f"{kind}.{name} has dtype {column.dtype}, expected {dtype}"
                )
            if column.ndim != 1:
                raise ValueError(f"{kind}.{name} must be one-dimensional")
            if name in per_row and len(column) != rows:
                raise ValueError(
                    f"{kind}.{name} has {len(column)} entries for {rows} rows"
                )
        for offsets_name, values_names in self.RAGGED.items():
            offsets = getattr(self, offsets_name)
            if len(offsets) != rows + 1:
                raise ValueError(
                    f"{offsets_name} must have {rows + 1} entries, got {len(offsets)}"
                )
            if int(offsets[0]) != 0 or np.any(np.diff(offsets) < 0):
                raise ValueError(f"{offsets_name} must start at 0 and be nondecreasing")
            for values_name in values_names:
                values = getattr(self, values_name)
                if len(values) != int(offsets[-1]):
                    raise ValueError(
                        f"{values_name} has {len(values)} entries but "
                        f"{offsets_name} addresses {int(offsets[-1])}"
                    )
        if rows:
            for name, table in (("probe", self.probes), ("region", self.regions)):
                codes = getattr(self, f"{name}_codes")
                if int(codes.min()) < 0 or int(codes.max()) >= len(table):
                    raise ValueError(f"{name}_codes reference rows outside the table")
            if int(self.protocol_codes.max()) >= len(PROTOCOL_BY_CODE):
                raise ValueError("protocol_codes contain unknown wire codes")

    def take(self: _B, rows: np.ndarray) -> _B:
        """The block of ``rows`` (indices or a mask), in that order.

        Its tables keep only the probes and regions those rows name, in
        the order the rows first name them -- the tables a block built
        from those rows alone would have.  Ragged values and optional
        columns follow their rows.
        """
        rows = np.flatnonzero(rows) if rows.dtype == bool else rows
        columns = {name: getattr(self, name)[rows] for name in self._row_columns()}
        probes, columns["probe_codes"] = _first_seen_table(
            self.probes, columns["probe_codes"]
        )
        regions, columns["region_codes"] = _first_seen_table(
            self.regions, columns["region_codes"]
        )
        for offsets_name, values_names in self.RAGGED.items():
            positions, columns[offsets_name] = _ragged_rows(
                getattr(self, offsets_name), rows
            )
            for values_name in values_names:
                columns[values_name] = getattr(self, values_name)[positions]
        for name in self.OPTIONAL:
            column = getattr(self, name)
            columns[name] = None if column is None else column[rows]
        return type(self)(probes=probes, regions=regions, **columns)

    @classmethod
    def concatenate(cls: Type[_B], blocks: Sequence[_B]) -> _B:
        """One block holding ``blocks``' rows in order, or an empty block
        when there are none.

        Probes are merged by :func:`probe_key` and regions by
        :func:`region_key` (the first block's object wins), so every row
        keeps its meta.  An optional column is kept when every block
        has it.
        """
        if len(blocks) == 1:
            return blocks[0]
        if not blocks:
            return cls(
                probes=[],
                regions=[],
                **{
                    name: np.zeros(int(name in cls.RAGGED), dtype)
                    for name, dtype in cls.COLUMNS.items()
                },
            )
        probes, probe_codes = _union_table(
            [(block.probes, block.probe_codes) for block in blocks], probe_key
        )
        regions, region_codes = _union_table(
            [(block.regions, block.region_codes) for block in blocks], region_key
        )
        columns = {"probe_codes": probe_codes, "region_codes": region_codes}
        for name in cls._schema():
            if name in columns:
                continue
            parts = [getattr(block, name) for block in blocks]
            if all(part is not None for part in parts):
                join = join_offsets if name in cls.RAGGED else np.concatenate
                columns[name] = join(parts)
        return cls(probes=probes, regions=regions, **columns)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(requests={len(self)})"


class PingBlock(Block):
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

    COLUMNS = {
        **KEY_COLUMNS,
        "sample_values": np.dtype(np.float64),
        "sample_offsets": np.dtype(np.int64),
    }
    RAGGED = {"sample_offsets": ("sample_values",)}
    OPTIONAL = PROVENANCE_COLUMNS

    sample_values: np.ndarray
    sample_offsets: np.ndarray
    epochs: Optional[np.ndarray]
    outage_ids: Optional[np.ndarray]
    _records: Optional[List[PingMeasurement]]

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
        """The rows on ``platform`` over ``protocol`` (``None`` keeps
        every value), ascending."""
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
        return self.sample_values[_ragged_rows(self.sample_offsets, rows)[0]]

    def grouped_samples(self, rows: np.ndarray, labels: np.ndarray) -> List[np.ndarray]:
        """Per group of ``labels`` (numbered from 0, one per row of
        ``rows``), the samples of its rows in the order of ``rows``."""
        if not len(rows):
            return []
        order = np.argsort(labels, kind="stable")
        sizes = np.diff(self.sample_offsets)[rows]
        ends = np.cumsum(np.bincount(labels, weights=sizes)).astype(np.int64)
        return np.split(self.samples_of(rows[order]), ends[:-1])

    def __repr__(self) -> str:
        return f"PingBlock(requests={len(self)}, samples={self.sample_count})"


class TraceBlock(Block):
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

    COLUMNS = {
        **KEY_COLUMNS,
        "source_addresses": np.dtype(np.int64),
        "dest_addresses": np.dtype(np.int64),
        "hop_offsets": np.dtype(np.int64),
        "hop_addresses": np.dtype(np.int64),
        "hop_rtts": np.dtype(np.float64),
    }
    RAGGED = {"hop_offsets": ("hop_addresses", "hop_rtts")}
    OPTIONAL = PROVENANCE_COLUMNS

    source_addresses: np.ndarray
    dest_addresses: np.ndarray
    hop_offsets: np.ndarray
    hop_addresses: np.ndarray
    hop_rtts: np.ndarray
    epochs: Optional[np.ndarray]
    outage_ids: Optional[np.ndarray]
    _records: Optional[List[TracerouteMeasurement]]

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


def _ragged_rows(
    offsets: np.ndarray, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """For ``rows`` of a ragged column: the positions of their values,
    row after row, and the offsets of those values."""
    starts = offsets[rows]
    counts = offsets[rows + 1] - starts
    taken = np.zeros(len(rows) + 1, np.int64)
    np.cumsum(counts, out=taken[1:])
    return np.repeat(starts - taken[:-1], counts) + np.arange(taken[-1]), taken


def _first_seen_table(
    table: Sequence[Any], codes: np.ndarray
) -> Tuple[List[Any], np.ndarray]:
    """The entries of ``table`` that ``codes`` name, in the order the
    codes first name them, and the codes into that shorter table."""
    firsts, inverse = first_seen(codes)
    return [table[code] for code in codes[firsts].tolist()], inverse


def _union_table(
    parts: Sequence[Tuple[Sequence[Any], np.ndarray]],
    key: Callable[[Any], Tuple[object, ...]],
) -> Tuple[List[Any], np.ndarray]:
    """One table for the (table, codes) ``parts``, one row per distinct
    ``key`` (the first part's object wins), and every part's codes into
    it, laid end to end."""
    index: Dict[Tuple[object, ...], int] = {}
    merged: List[Any] = []
    joined = []
    for table, codes in parts:
        remap = []
        for row in table:
            code = index.setdefault(key(row), len(merged))
            if code == len(merged):
                merged.append(row)
            remap.append(code)
        joined.append(np.asarray(remap, np.int32)[codes])
    return merged, np.concatenate(joined)


def dataset_pings(dataset: "MeasurementDataset") -> PingBlock:
    """Every ping of an in-memory or stored dataset as one block, its
    blocks' rows in order.  This is the column view the ping analyses
    group.

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
    return PingBlock.concatenate(list(dataset.ping_blocks()))


def _read_only(block: PingBlock) -> PingBlock:
    """A block over read-only views of ``block``'s columns."""
    columns = {name: getattr(block, name).view() for name in PingBlock.COLUMNS}
    for column in columns.values():
        column.flags.writeable = False
    return PingBlock(probes=block.probes, regions=block.regions, **columns)


class MeasurementDataset:
    """An in-memory dataset: an ordered list of ping blocks and one of
    trace blocks.

    Campaigns add the blocks the batch engine returns, and the JSONL
    loader adds one block of each kind.  :func:`dataset_pings` is the
    column view of every ping; ``block.records()`` is the record view of
    one block.
    """

    def __init__(self) -> None:
        self._ping_blocks: List[PingBlock] = []
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

    def add_ping_block(self, block: PingBlock) -> None:
        """Append a ping batch.  The block is schema-validated first, so a
        malformed one (wrong dtypes, inconsistent offsets, out-of-range
        codes) fails here instead of in an analysis or a shard later."""
        block.validate()
        self._ping_blocks.append(block)
        self._revision += 1

    def add_trace_block(self, block: TraceBlock) -> None:
        """Append a traceroute batch, schema-validated like
        :meth:`add_ping_block`."""
        block.validate()
        self._trace_blocks.append(block)
        self._revision += 1

    def extend(self, other: "MeasurementDataset") -> None:
        """Append the blocks of another dataset -- in memory or a store
        view -- to this one."""
        for ping_block in other.ping_blocks():
            self.add_ping_block(ping_block)
        for trace_block in other.trace_blocks():
            self.add_trace_block(trace_block)
        self._revision += 1

    # -- access ------------------------------------------------------------

    @property
    def ping_count(self) -> int:
        return sum(len(block) for block in self._ping_blocks)

    @property
    def traceroute_count(self) -> int:
        return sum(len(block) for block in self._trace_blocks)

    @property
    def ping_sample_count(self) -> int:
        return sum(block.sample_count for block in self._ping_blocks)

    def ping_blocks(self) -> Iterator[PingBlock]:
        """The ping blocks, in the order they were added."""
        return iter(self._ping_blocks)

    def trace_blocks(self) -> Iterator[TraceBlock]:
        """The traceroute blocks, in the order they were added."""
        return iter(self._trace_blocks)

    def iter_scalar_pings(self) -> Iterator[PingMeasurement]:
        """Always empty: a dataset holds blocks only.  Kept because the
        benchmark's ``dataset_digest`` (``perfbench/workloads.py``) still
        reads it."""
        return iter(())

    def iter_scalar_traceroutes(self) -> Iterator[TracerouteMeasurement]:
        """Always empty, like the ping stub above, and kept for the same
        caller."""
        return iter(())

    def __repr__(self) -> str:
        return (
            f"MeasurementDataset(pings={self.ping_count}, "
            f"traceroutes={self.traceroute_count})"
        )
