"""Dataset serialization.

The paper publishes its collected dataset (3.8M pings, 7M+ traceroutes)
for reproducibility; this module provides the equivalent for simulated
datasets: a line-delimited JSON format (one measurement per line) that
round-trips exactly and is stable across library versions.

Format: a leading ``header`` line names the format and version and
counts the pings and traceroutes that follow.  Each further line is an
object with a ``kind`` tag (``"ping"`` or ``"traceroute"``), the
measurement metadata, and the payload.  The writer serializes a
dataset's blocks, and the loader parses the lines into records and
columnarizes them into one ping block and one trace block.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path
from typing import IO, List, Tuple, Union

from repro.geo.continents import Continent
from repro.lastmile.base import AccessKind
from repro.measure.results import (
    PROTOCOL_BY_CODE,
    MeasurementDataset,
    MeasurementMeta,
    PingBlock,
    PingMeasurement,
    Protocol,
    TraceBlock,
    TraceHop,
    TracerouteMeasurement,
    ping_block_from_records,
    trace_block_from_records,
)
from repro.platforms.probe import CITY_CELL_DEGREES, Probe, city_key_for

FORMAT_NAME = "repro-dataset"
FORMAT_VERSION = 1

PathLike = Union[str, Path]


def _city_key(payload: dict) -> Tuple[int, int]:
    """A meta's ``city_key``, which must name a cell of the
    ``CITY_CELL_DEGREES`` grid over valid locations."""
    lat, lon = payload["city_key"]
    if abs(lat) * CITY_CELL_DEGREES > 90 or abs(lon) * CITY_CELL_DEGREES > 180:
        raise ValueError(f"city_key {[lat, lon]} lies off the grid")
    return (lat, lon)


def _meta_from_dict(payload: dict) -> MeasurementMeta:
    return MeasurementMeta(
        probe_id=payload["probe_id"],
        platform=payload["platform"],
        country=payload["country"],
        continent=Continent(payload["continent"]),
        access=AccessKind(payload["access"]),
        isp_asn=payload["isp_asn"],
        provider_code=payload["provider_code"],
        region_id=payload["region_id"],
        region_country=payload["region_country"],
        region_continent=Continent(payload["region_continent"]),
        day=payload["day"],
        city_key=_city_key(payload),
    )


def _ping_from_dict(payload: dict) -> PingMeasurement:
    return PingMeasurement(
        meta=_meta_from_dict(payload["meta"]),
        protocol=Protocol(payload["protocol"]),
        samples=tuple(payload["samples"]),
    )


def _trace_from_dict(payload: dict) -> TracerouteMeasurement:
    return TracerouteMeasurement(
        meta=_meta_from_dict(payload["meta"]),
        protocol=Protocol(payload["protocol"]),
        source_address=payload["source_address"],
        dest_address=payload["dest_address"],
        hops=tuple(
            TraceHop(address=address, rtt_ms=rtt)
            for address, rtt in payload["hops"]
        ),
    )


def _open(path: PathLike, mode: str) -> IO:
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


# -- writers ------------------------------------------------------------------
#
# Blocks hold tens of thousands of measurements each; routing them
# through the record view would allocate one frozen MeasurementMeta +
# PingMeasurement per row just to tear them straight back down into
# dicts.  The writers below compose each line's meta dict from fragments
# cached per interned (probe, region) pair instead.


def _probe_meta_fragment(probe: Probe) -> dict:
    """The probe-derived prefix of a meta dict (key order matters)."""
    return {
        "probe_id": probe.probe_id,
        "platform": probe.platform,
        "country": probe.country,
        "continent": probe.continent.value,
        "access": probe.access.value,
        "isp_asn": probe.isp_asn,
    }


def _block_meta_cache(block) -> "tuple[list, list, list]":
    """Per-code meta fragments for one block's interned tables."""
    probe_fragments = [_probe_meta_fragment(probe) for probe in block.probes]
    city_keys = [list(city_key_for(probe)) for probe in block.probes]
    region_fragments = [
        {
            "provider_code": region.provider_code,
            "region_id": region.region_id,
            "region_country": region.country,
            "region_continent": region.continent.value,
        }
        for region in block.regions
    ]
    return probe_fragments, city_keys, region_fragments


def _write_ping_block(fh: IO, block: PingBlock) -> int:
    """Serialize one ping block without materializing record objects."""
    probe_fragments, city_keys, region_fragments = _block_meta_cache(block)
    protocol_values = [protocol.value for protocol in PROTOCOL_BY_CODE]
    probe_codes = block.probe_codes.tolist()
    region_codes = block.region_codes.tolist()
    days = block.days.tolist()
    protocol_codes = block.protocol_codes.tolist()
    offsets = block.sample_offsets.tolist()
    samples = block.sample_values.tolist()
    for i in range(len(probe_codes)):
        probe_code = probe_codes[i]
        meta = dict(probe_fragments[probe_code])
        meta.update(region_fragments[region_codes[i]])
        meta["day"] = days[i]
        meta["city_key"] = city_keys[probe_code]
        payload = {
            "kind": "ping",
            "meta": meta,
            "protocol": protocol_values[protocol_codes[i]],
            "samples": samples[offsets[i] : offsets[i + 1]],
        }
        fh.write(json.dumps(payload) + "\n")
    return len(probe_codes)


def _write_trace_block(fh: IO, block: TraceBlock) -> int:
    """Serialize one trace block without materializing record objects."""
    probe_fragments, city_keys, region_fragments = _block_meta_cache(block)
    protocol_values = [protocol.value for protocol in PROTOCOL_BY_CODE]
    probe_codes = block.probe_codes.tolist()
    region_codes = block.region_codes.tolist()
    days = block.days.tolist()
    protocol_codes = block.protocol_codes.tolist()
    sources = block.source_addresses.tolist()
    dests = block.dest_addresses.tolist()
    offsets = block.hop_offsets.tolist()
    hop_addresses = block.hop_addresses.tolist()
    hop_rtts = block.hop_rtts.tolist()
    no_address = TraceBlock.NO_ADDRESS
    for i in range(len(probe_codes)):
        probe_code = probe_codes[i]
        meta = dict(probe_fragments[probe_code])
        meta.update(region_fragments[region_codes[i]])
        meta["day"] = days[i]
        meta["city_key"] = city_keys[probe_code]
        hops = [
            [None, None]
            if hop_addresses[position] == no_address
            else [hop_addresses[position], hop_rtts[position]]
            for position in range(offsets[i], offsets[i + 1])
        ]
        payload = {
            "kind": "traceroute",
            "meta": meta,
            "protocol": protocol_values[protocol_codes[i]],
            "source_address": sources[i],
            "dest_address": dests[i],
            "hops": hops,
        }
        fh.write(json.dumps(payload) + "\n")
    return len(probe_codes)


def save_dataset(dataset: MeasurementDataset, path: PathLike) -> int:
    """Write a dataset as line-delimited JSON (gzip if path ends ``.gz``).

    Returns the number of measurement lines written: every ping block's
    rows in order, then every trace block's.  Besides
    :class:`MeasurementDataset` this accepts the store view
    :class:`repro.store.view.StoredDataset`, which is streamed
    shard-at-a-time.
    """
    lines = 0
    with _open(path, "w") as fh:
        header = {
            "kind": "header",
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "pings": dataset.ping_count,
            "traceroutes": dataset.traceroute_count,
        }
        fh.write(json.dumps(header) + "\n")
        for ping_block in dataset.ping_blocks():
            lines += _write_ping_block(fh, ping_block)
        for trace_block in dataset.trace_blocks():
            lines += _write_trace_block(fh, trace_block)
    return lines


def load_dataset(path: PathLike) -> MeasurementDataset:
    """Read a dataset written by :func:`save_dataset`, as one ping block
    and one trace block.

    Raises :class:`ValueError` when the file holds more or fewer pings
    or traceroutes than its header counts, as a cut-off file does; a
    header without counts matches no file.  A line that does not parse
    (bad JSON, a missing field, an unknown value, a ``city_key`` off the
    grid) raises :class:`ValueError` naming the file and the line.
    """
    pings: List[PingMeasurement] = []
    traces: List[TracerouteMeasurement] = []
    with _open(path, "r") as fh:
        header_line = fh.readline()
        if not header_line:
            raise ValueError(f"{path}: empty dataset file")
        header = json.loads(header_line)
        if header.get("format") != FORMAT_NAME:
            raise ValueError(f"{path}: not a {FORMAT_NAME} file")
        if header.get("version") != FORMAT_VERSION:
            raise ValueError(
                f"{path}: unsupported format version {header.get('version')}"
            )
        for line_number, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                payload = json.loads(line)
                kind = payload.get("kind")
                if kind == "ping":
                    pings.append(_ping_from_dict(payload))
                elif kind == "traceroute":
                    traces.append(_trace_from_dict(payload))
                else:
                    raise ValueError(f"unknown record kind {kind!r}")
            except KeyError as exc:
                raise ValueError(f"{path}:{line_number}: missing field {exc}") from exc
            except (AttributeError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{line_number}: {exc}") from exc
    counted = (header.get("pings"), header.get("traceroutes"))
    if counted != (len(pings), len(traces)):
        raise ValueError(
            f"{path}: header counts {counted[0]} pings and {counted[1]} "
            f"traceroutes, file holds {len(pings)} and {len(traces)}"
        )
    dataset = MeasurementDataset()
    dataset.add_ping_block(ping_block_from_records(pings))
    dataset.add_trace_block(trace_block_from_records(traces))
    return dataset
