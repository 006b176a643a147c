"""Encoding measurement blocks as shard files.

A shard holds one :class:`~repro.measure.results.PingBlock` (a *ping
shard*) or :class:`~repro.measure.results.TraceBlock` (a *trace
shard*): the block's columns as raw arrays, in the order of its schema
(:attr:`~repro.measure.results.Block.COLUMNS`, then the optional
provenance columns it carries), plus the interned probe/region tables
serialized into the shard header.  One writer and one reader serve both
kinds: :func:`write_block_shard` and :func:`read_block_shard`, which
checks the header's kind tag against the class it is asked for.
Decoding reverses the mapping exactly -- ``write`` then ``read`` yields
a block whose ``records()`` equal the original's.

Probe and region tables are small (hundreds of rows per shard) relative
to the measurement columns (tens of thousands), so they live as JSON in
the header where they stay human-inspectable; only the bulk numeric
columns take the binary path.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Type, TypeVar

import numpy as np

from repro.cloud.regions import CloudRegion
from repro.geo.continents import Continent
from repro.geo.coords import GeoPoint
from repro.lastmile.base import AccessKind
from repro.measure.results import Block, PingBlock, TraceBlock
from repro.platforms.probe import Probe
from repro.store.fileops import FileOps
from repro.store.format import (
    PathLike,
    ShardFormatError,
    read_columns,
    write_shard,
)

#: ``kind`` tags in shard headers.
PING_SHARD_KIND = "pings"
TRACE_SHARD_KIND = "traces"

#: The ``kind`` tag of each block class's shards.
SHARD_KINDS: Dict[type, str] = {
    PingBlock: PING_SHARD_KIND,
    TraceBlock: TRACE_SHARD_KIND,
}

_B = TypeVar("_B", PingBlock, TraceBlock)

#: Header key carrying the per-column zone map (shard version >= zones).
ZONES_KEY = "zones"


def column_zone(array: np.ndarray) -> Dict[str, Any]:
    """The zone-map entry for one column: row count and value min/max.

    NaN entries (unresponsive-hop RTTs) are ignored; a column that is
    empty or all-NaN carries ``min``/``max`` of ``None``.  Integer
    columns keep integer bounds so the JSON round-trips exactly.
    """
    array = np.asarray(array)
    zone: Dict[str, Any] = {"rows": int(array.size)}
    finite = array
    if array.dtype.kind == "f":
        finite = array[~np.isnan(array)]
    if finite.size == 0:
        zone["min"] = None
        zone["max"] = None
    elif array.dtype.kind == "f":
        zone["min"] = float(finite.min())
        zone["max"] = float(finite.max())
    else:
        zone["min"] = int(finite.min())
        zone["max"] = int(finite.max())
    return zone


def compute_zones(columns: Mapping[str, np.ndarray]) -> Dict[str, Dict[str, Any]]:
    """Zone-map metadata for a set of named columns."""
    return {name: column_zone(array) for name, array in columns.items()}


def header_zones(header: Mapping[str, Any]) -> Optional[Dict[str, Dict[str, Any]]]:
    """The zone map embedded in a shard header, or ``None`` for shards
    written before zone maps existed (backward compatible read)."""
    zones = header.get(ZONES_KEY)
    if zones is None:
        return None
    return dict(zones)


def probe_to_dict(probe: Probe) -> Dict[str, Any]:
    """Serialize one interned probe-table row."""
    return {
        "probe_id": probe.probe_id,
        "platform": probe.platform,
        "country": probe.country,
        "continent": probe.continent.value,
        "location": [probe.location.lat, probe.location.lon],
        "isp_asn": probe.isp_asn,
        "access": probe.access.value,
        "device_address": probe.device_address,
        "public_address": probe.public_address,
        "quality": probe.quality,
        "availability": probe.availability,
        "managed": probe.managed,
    }


def probe_from_dict(payload: Dict[str, Any]) -> Probe:
    """Deserialize one probe-table row."""
    return Probe(
        probe_id=payload["probe_id"],
        platform=payload["platform"],
        country=payload["country"],
        continent=Continent(payload["continent"]),
        location=GeoPoint(payload["location"][0], payload["location"][1]),
        isp_asn=payload["isp_asn"],
        access=AccessKind(payload["access"]),
        device_address=payload["device_address"],
        public_address=payload["public_address"],
        quality=payload["quality"],
        availability=payload["availability"],
        managed=payload["managed"],
    )


def region_to_dict(region: CloudRegion) -> Dict[str, Any]:
    """Serialize one interned region-table row."""
    return {
        "provider_code": region.provider_code,
        "region_id": region.region_id,
        "city": region.city,
        "country": region.country,
        "continent": region.continent.value,
        "location": [region.location.lat, region.location.lon],
    }


def region_from_dict(payload: Dict[str, Any]) -> CloudRegion:
    """Deserialize one region-table row."""
    return CloudRegion(
        provider_code=payload["provider_code"],
        region_id=payload["region_id"],
        city=payload["city"],
        country=payload["country"],
        continent=Continent(payload["continent"]),
        location=GeoPoint(payload["location"][0], payload["location"][1]),
    )


def write_block_shard(
    path: PathLike,
    block: Block,
    unit: str,
    fileops: "FileOps | None" = None,
) -> Dict[str, Any]:
    """Write one validated block as a shard file; returns the header.

    The block's columns go in schema order, followed by the optional
    columns it carries.  The header names the shard's kind and unit,
    holds the probe and region tables, and carries a per-column zone map
    (row count, min/max) that the query planner (:mod:`repro.query`)
    reads to prune shards without touching column bytes.
    """
    block.validate()
    columns = {
        name: getattr(block, name)
        for name in [*block.COLUMNS, *block.OPTIONAL]
        if getattr(block, name) is not None
    }
    metadata = {
        "kind": SHARD_KINDS[type(block)],
        "unit": unit,
        "probes": [probe_to_dict(probe) for probe in block.probes],
        "regions": [region_to_dict(region) for region in block.regions],
        ZONES_KEY: compute_zones(columns),
    }
    return write_shard(path, columns, metadata, fileops=fileops)


def zone_problems(
    path: PathLike,
    header: Mapping[str, Any],
    columns: Mapping[str, np.ndarray],
) -> List[str]:
    """Zone-map inconsistencies between a header and its column contents.

    Recomputes every column's zone entry and compares it with what the
    header claims; a mismatch means the shard was edited after writing
    (or the writer is broken), so ``python -m repro.store verify``
    treats it like any other corruption.  Shards written before zone
    maps existed carry none and report no problems.
    """
    declared = header_zones(header)
    if declared is None:
        return []
    problems: List[str] = []
    actual = compute_zones(columns)
    for name in sorted(set(declared) | set(actual)):
        if declared.get(name) != actual.get(name):
            problems.append(
                f"{path}: column {name!r} zone map "
                f"{declared.get(name)} disagrees with contents "
                f"{actual.get(name)}"
            )
    return problems


def read_block_shard(path: PathLike, kind: Type[_B], mmap: bool = True) -> _B:
    """Decode one shard back into a validated block of class ``kind``.

    Raises :class:`~repro.store.format.ShardFormatError` when the shard
    holds another kind.  With ``mmap=True`` the block's columns are
    read-only memmap views -- record materialization faults pages in
    lazily and nothing is copied up front.
    """
    header, columns = read_columns(path, mmap=mmap)
    expected = SHARD_KINDS[kind]
    if header.get("kind") != expected:
        raise ShardFormatError(
            f"{path}: expected a {expected!r} shard, found {header.get('kind')!r}"
        )
    block = kind(
        probes=[probe_from_dict(row) for row in header["probes"]],
        regions=[region_from_dict(row) for row in header["regions"]],
        **columns,
    )
    block.validate()
    return block
