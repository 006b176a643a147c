"""Measurement requests in columnar form: what a scheduler asks the
batch engine to run.

A scheduler emits each batch as one request block.  A request block is
a :class:`~repro.measure.results.Block`, as the
:class:`~repro.measure.results.PingBlock` or
:class:`~repro.measure.results.TraceBlock` of the same rows is: the
probe and region tables in first-seen order, ``int32`` probe and region
code columns, a day column and protocol codes; a ping block also holds
each request's sample count.  The batch engine, the planner and the
fault wrappers read these columns, and the wrappers filter them with
:meth:`~repro.measure.results.Block.take`; no per-request object is
built on the way from the scheduler to the shard.

:class:`PingRequest` and :class:`TraceRequest` are the record views a
block yields when iterated, as :class:`~repro.measure.results.PingMeasurement`
is for a ping block; :meth:`PingRequests.from_records` and
:meth:`TraceRequests.from_records` build a block from such records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.cloud.regions import CloudRegion
from repro.measure.results import (
    KEY_COLUMNS,
    PROTOCOL_BY_CODE,
    PROTOCOL_CODES,
    Block,
    Protocol,
)
from repro.platforms.probe import Probe


@dataclass(frozen=True)
class PingRequest:
    """One ping request: ``samples`` RTT draws probe -> region."""

    probe: Probe
    region: CloudRegion
    protocol: Protocol = Protocol.TCP
    samples: int = 4
    day: int = 0


@dataclass(frozen=True)
class TraceRequest:
    """One traceroute request probe -> region."""

    probe: Probe
    region: CloudRegion
    protocol: Protocol = Protocol.ICMP
    day: int = 0


def _record_columns(
    records: Sequence["PingRequest | TraceRequest"],
) -> Dict[str, object]:
    """The tables and key columns of request records, in their order."""
    rows = RequestRows()
    for record in records:
        rows.add(record.probe, (record.region,), record.day)
    return dict(
        rows.columns(),
        protocol_codes=np.array(
            [PROTOCOL_CODES[record.protocol] for record in records], np.uint8
        ),
    )


class PingRequests(Block):
    """A ping request batch; ``samples`` is each request's sample count."""

    __slots__ = (
        "probes",
        "regions",
        "probe_codes",
        "region_codes",
        "days",
        "protocol_codes",
        "samples",
    )

    COLUMNS = {**KEY_COLUMNS, "samples": np.dtype(np.int64)}

    samples: np.ndarray

    def __iter__(self) -> Iterator[PingRequest]:
        for probe, region, day, protocol, samples in zip(
            self.probe_codes.tolist(),
            self.region_codes.tolist(),
            self.days.tolist(),
            self.protocol_codes.tolist(),
            self.samples.tolist(),
        ):
            yield PingRequest(
                probe=self.probes[probe],
                region=self.regions[region],
                protocol=PROTOCOL_BY_CODE[protocol],
                samples=samples,
                day=day,
            )

    @classmethod
    def from_records(cls, records: Iterable[PingRequest]) -> "PingRequests":
        """The block of ping request records, in their order."""
        records = list(records)
        return cls(
            **_record_columns(records),  # type: ignore[arg-type]
            samples=np.array([record.samples for record in records], np.int64),
        )


class TraceRequests(Block):
    """A traceroute request batch."""

    __slots__ = (
        "probes",
        "regions",
        "probe_codes",
        "region_codes",
        "days",
        "protocol_codes",
    )

    COLUMNS = KEY_COLUMNS

    def __iter__(self) -> Iterator[TraceRequest]:
        for probe, region, day, protocol in zip(
            self.probe_codes.tolist(),
            self.region_codes.tolist(),
            self.days.tolist(),
            self.protocol_codes.tolist(),
        ):
            yield TraceRequest(
                probe=self.probes[probe],
                region=self.regions[region],
                protocol=PROTOCOL_BY_CODE[protocol],
                day=day,
            )

    @classmethod
    def from_records(cls, records: Iterable[TraceRequest]) -> "TraceRequests":
        """The block of traceroute request records, in their order."""
        return cls(**_record_columns(list(records)))  # type: ignore[arg-type]


def pair_requests(pairs: Sequence[Tuple[Probe, CloudRegion]]) -> TraceRequests:
    """Day-0 ICMP trace requests, one per (probe, region) pair: the form
    in which single pairs and pair lists reach the planner."""
    rows = RequestRows()
    for probe, region in pairs:
        rows.add(probe, (region,), 0)
    return rows.traces(Protocol.ICMP)


class RequestRows:
    """A scheduler's batch, built probe visit by probe visit.

    Each :meth:`add` appends one row per target region of one probe on
    one day; :meth:`pings` and :meth:`traces` turn the rows into request
    blocks.  The probe and region tables are interned in first-seen
    order as the rows arrive, so no per-request object is built.
    """

    def __init__(self) -> None:
        self._probes: List[Probe] = []
        self._regions: List[CloudRegion] = []
        self._probe_index: Dict[str, int] = {}
        self._region_index: Dict[Tuple[str, str], int] = {}
        self._probe_codes: List[int] = []
        self._region_codes: List[int] = []
        self._days: List[int] = []

    def __len__(self) -> int:
        return len(self._days)

    def add(self, probe: Probe, regions: Sequence[CloudRegion], day: int) -> None:
        """One row per region of ``regions``, each from ``probe`` on ``day``."""
        if not regions:
            return
        code = self._probe_index.get(probe.probe_id)
        if code is None:
            code = self._probe_index[probe.probe_id] = len(self._probes)
            self._probes.append(probe)
        self._probe_codes.extend([code] * len(regions))
        self._region_codes.extend(map(self._region_code, regions))
        self._days.extend([day] * len(regions))

    def _region_code(self, region: CloudRegion) -> int:
        key = (region.provider_code, region.region_id)
        code = self._region_index.get(key)
        if code is None:
            code = self._region_index[key] = len(self._regions)
            self._regions.append(region)
        return code

    def columns(self, repeat: int = 1) -> Dict[str, object]:
        """The tables and the code and day columns, each row ``repeat``
        times in a row."""
        return {
            "probes": self._probes,
            "regions": self._regions,
            "probe_codes": np.repeat(np.array(self._probe_codes, np.int32), repeat),
            "region_codes": np.repeat(
                np.array(self._region_codes, np.int32), repeat
            ),
            "days": np.repeat(np.array(self._days, np.int32), repeat),
        }

    def pings(self, protocols: Sequence[Protocol], samples: int) -> PingRequests:
        """One ping request per row and protocol: each row's requests
        follow each other, in the order of ``protocols``."""
        codes = np.array([PROTOCOL_CODES[p] for p in protocols], np.uint8)
        return PingRequests(
            **self.columns(len(protocols)),  # type: ignore[arg-type]
            protocol_codes=np.tile(codes, len(self)),
            samples=np.full(len(codes) * len(self), samples, np.int64),
        )

    def traces(self, protocol: Protocol) -> TraceRequests:
        """One traceroute request per row."""
        return TraceRequests(
            **self.columns(),  # type: ignore[arg-type]
            protocol_codes=np.full(len(self), PROTOCOL_CODES[protocol], np.uint8),
        )
