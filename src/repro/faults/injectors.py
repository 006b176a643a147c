"""Fault-injecting wrappers around the platform, engine, and file layers.

Each wrapper delegates to a real object and consults the per-attempt
fault generators in an :class:`~repro.faults.plan.AttemptFaults` before
(or after) the real operation:

- :class:`FaultySpeedchecker` / :class:`FaultyAtlas` fail platform API
  calls with timeouts, HTTP-5xx-style errors, and mid-unit quota races;
- :class:`FaultyEngine` loses ping replies, disconnects a probe
  mid-batch, and truncates traceroutes;
- :class:`FaultyFileOps` tears shard writes, flips bytes, and fails
  fsyncs.

Every fired fault appends a human-readable event to the attempt's log so
the resilient runner can journal exactly what happened.  All draws come
from the attempt's forked generators -- the schedule is a pure function
of (seed, unit, attempt, config), never of wall-clock or call order
across units.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional

import numpy as np

from repro.faults.errors import FsyncFailure, PlatformError, PlatformTimeout, TornWrite
from repro.faults.plan import AttemptFaults
from repro.measure.engine import BatchEngine
from repro.measure.requests import PingRequests, TraceRequests
from repro.measure.results import Block, PingBlock, TraceBlock
from repro.platforms.probe import Probe
from repro.platforms.protocols import AtlasLike, SpeedcheckerLike
from repro.platforms.speedchecker import VPSnapshot
from repro.store.fileops import FileOps


def _draw_api_fault(faults: AttemptFaults, platform: str, operation: str) -> None:
    """One API-fault draw; raises if the call should fail."""
    config = faults.config
    if config.api_timeout_rate + config.api_error_rate <= 0.0:
        return
    draw = float(faults.api.random())
    if draw < config.api_timeout_rate:
        faults.record(f"api-timeout:{operation}")
        raise PlatformTimeout(f"{platform}: {operation} timed out")
    if draw < config.api_timeout_rate + config.api_error_rate:
        faults.record(f"api-error:{operation}")
        raise PlatformError(f"{platform}: {operation} returned HTTP 503")


class FaultySpeedchecker:
    """A Speedchecker platform whose API calls can fail.

    Structurally a :class:`~repro.platforms.protocols.SpeedcheckerLike`.
    Inventory queries (``countries`` etc.) are pure local bookkeeping
    and pass straight through; the remote-API-shaped operations --
    snapshots and probe selection -- draw for timeout/error faults, and
    quota charging can lose a race against a simulated concurrent
    consumer that drains part of the remaining budget.
    """

    def __init__(self, inner: SpeedcheckerLike, faults: AttemptFaults) -> None:
        self._inner = inner
        self._faults = faults
        self._race_checked = False

    @property
    def name(self) -> str:
        return self._inner.name

    # -- pure passthrough --------------------------------------------------

    def countries(self) -> List[str]:
        return self._inner.countries()

    def countries_with_at_least(self, minimum: int) -> List[str]:
        return self._inner.countries_with_at_least(minimum)

    def connected_in_country(
        self, iso: str, snapshot: VPSnapshot
    ) -> List[Probe]:
        return self._inner.connected_in_country(iso, snapshot)

    @property
    def daily_quota(self) -> int:
        return self._inner.daily_quota

    @property
    def remaining_quota(self) -> int:
        return self._inner.remaining_quota

    def refresh_quota(self) -> None:
        self._inner.refresh_quota()

    # -- faulted API calls -------------------------------------------------

    def snapshot(
        self, day: int, hour: int, rng: Optional[np.random.Generator] = None
    ) -> VPSnapshot:
        _draw_api_fault(self._faults, self.name, "snapshot")
        return self._inner.snapshot(day, hour, rng=rng)

    def select_probes(
        self,
        iso: str,
        snapshot: VPSnapshot,
        count: int,
        pool: Optional[List[Probe]] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> List[Probe]:
        _draw_api_fault(self._faults, self.name, "select_probes")
        return self._inner.select_probes(iso, snapshot, count, pool=pool, rng=rng)

    def _maybe_quota_race(self) -> None:
        """At most once per attempt, a concurrent consumer may steal quota."""
        if self._race_checked:
            return
        self._race_checked = True
        config = self._faults.config
        if config.quota_race_rate <= 0.0:
            return
        if float(self._faults.api.random()) >= config.quota_race_rate:
            return
        stolen = int(self._inner.remaining_quota * config.quota_race_fraction)
        if stolen <= 0:
            return
        self._inner.charge(stolen)
        self._faults.record(f"quota-race:{stolen}")

    def charge(self, requests: int = 1) -> None:
        self._maybe_quota_race()
        self._inner.charge(requests)

    def charge_up_to(self, requests: int) -> int:
        self._maybe_quota_race()
        return self._inner.charge_up_to(requests)


class FaultyAtlas:
    """An Atlas platform whose connected-set query can fail."""

    def __init__(self, inner: AtlasLike, faults: AttemptFaults) -> None:
        self._inner = inner
        self._faults = faults

    @property
    def name(self) -> str:
        return self._inner.name

    def connected_probes(
        self, rng: Optional[np.random.Generator] = None
    ) -> List[Probe]:
        _draw_api_fault(self._faults, self.name, "connected_probes")
        return self._inner.connected_probes(rng=rng)


class FaultyEngine:
    """A batch engine with reply loss, probe disconnects, and truncation.

    Structurally a :class:`~repro.measure.engine.BatchEngine`.  The
    disconnect decision is made once per attempt, on the ping batch: the
    victim probe keeps only the pings issued before the disconnect and
    loses all of its traceroutes (a disconnected device answers
    nothing).  Reply loss and trace truncation are per-request draws
    from the measurement fault stream.  Every fault is a row mask over
    the request block; a filtered block keeps the first-seen order of
    its tables (:meth:`~repro.measure.results.Block.take`).
    """

    def __init__(self, inner: BatchEngine, faults: AttemptFaults) -> None:
        self._inner = inner
        self._faults = faults
        self._disconnect_decided = False
        self._disconnect_victim: Optional[str] = None
        self._disconnect_after = 0

    def _victim_rows(self, requests: Block) -> np.ndarray:
        """Mask of the rows whose probe is the disconnect victim."""
        codes = [
            code
            for code, probe in enumerate(requests.probes)
            if probe.probe_id == self._disconnect_victim
        ]
        return np.isin(requests.probe_codes, codes)

    def _decide_disconnect(self, requests: PingRequests) -> None:
        """One disconnect draw per attempt, over the ping batch."""
        if self._disconnect_decided:
            return
        self._disconnect_decided = True
        config = self._faults.config
        if config.probe_disconnect_rate <= 0.0 or not len(requests):
            return
        if float(self._faults.measure.random()) >= config.probe_disconnect_rate:
            return
        probe_ids = sorted(
            requests.probes[code].probe_id
            for code in np.unique(requests.probe_codes).tolist()
        )
        victim = probe_ids[int(self._faults.measure.integers(len(probe_ids)))]
        self._disconnect_victim = victim
        owned = int(np.count_nonzero(self._victim_rows(requests)))
        self._disconnect_after = int(self._faults.measure.integers(owned))
        self._faults.record(
            f"probe-disconnect:{victim}@{self._disconnect_after}"
        )

    def ping_batch(
        self,
        requests: PingRequests,
        rng: Optional[np.random.Generator] = None,
    ) -> PingBlock:
        batch = requests
        self._decide_disconnect(batch)
        if self._disconnect_victim is not None:
            # The victim's pings after the disconnect are never issued.
            cut = np.flatnonzero(self._victim_rows(batch))[self._disconnect_after :]
            if len(cut):
                keep = np.ones(len(batch), bool)
                keep[cut] = False
                batch = batch.take(keep)
        config = self._faults.config
        if config.reply_loss_rate > 0.0 and len(batch):
            draws = self._faults.measure.random(len(batch))
            answered = draws >= config.reply_loss_rate
            lost = len(batch) - int(np.count_nonzero(answered))
            if lost:
                batch = batch.take(answered)
                self._faults.record(f"reply-loss:{lost}")
        return self._inner.ping_batch(batch, rng=rng)

    def traceroute_batch(
        self,
        requests: TraceRequests,
        rng: Optional[np.random.Generator] = None,
    ) -> TraceBlock:
        batch = requests
        if self._disconnect_victim is not None:
            dropped = self._victim_rows(batch)
            count = int(np.count_nonzero(dropped))
            if count:
                self._faults.record(f"trace-drop:{count}")
                batch = batch.take(~dropped)
        block = self._inner.traceroute_batch(batch, rng=rng)
        config = self._faults.config
        if config.trace_truncation_rate > 0.0 and len(block):
            draws = self._faults.measure.random(len(block))
            kept = np.diff(block.hop_offsets)
            truncated = 0
            for index in np.flatnonzero(
                draws < config.trace_truncation_rate
            ).tolist():
                hops = int(kept[index])
                if hops <= 1:
                    continue
                kept[index] = 1 + int(self._faults.measure.integers(hops - 1))
                truncated += 1
            if truncated:
                block = _truncate_traces(block, kept)
                self._faults.record(f"trace-truncated:{truncated}")
        return block


def _truncate_traces(block: TraceBlock, kept: np.ndarray) -> TraceBlock:
    """``block`` with trace ``i`` cut to its first ``kept[i]`` hops.

    Rows, tables and provenance columns are kept; only the hop offsets
    shorten and the cut hops leave the hop columns.
    """
    starts = block.hop_offsets[:-1]
    lengths = np.diff(block.hop_offsets)
    trace_of = np.repeat(np.arange(len(block)), lengths)
    keep = np.arange(block.hop_count) - starts[trace_of] < kept[trace_of]
    hop_offsets = np.zeros(len(block) + 1, np.int64)
    np.cumsum(kept, out=hop_offsets[1:])
    return TraceBlock(
        probes=block.probes,
        regions=block.regions,
        probe_codes=block.probe_codes,
        region_codes=block.region_codes,
        days=block.days,
        protocol_codes=block.protocol_codes,
        source_addresses=block.source_addresses,
        dest_addresses=block.dest_addresses,
        hop_offsets=hop_offsets,
        hop_addresses=block.hop_addresses[keep],
        hop_rtts=block.hop_rtts[keep],
        epochs=block.epochs,
        outage_ids=block.outage_ids,
    )


class FaultyFileOps(FileOps):
    """Shard file operations that can tear, corrupt, or fail fsync.

    One storage draw per shard write decides its fate: a *torn write*
    leaves an unsynced prefix on disk and raises; a *corrupt write*
    flips one byte and returns silently (only the post-write CRC
    verification catches it); an *fsync failure* writes everything but
    raises before durability is guaranteed.  Errors name the shard by
    file name only: a unit's last error is journaled as its skip reason,
    which must not depend on where the store (or a worker's staging
    copy of it) lives.
    """

    def __init__(self, faults: AttemptFaults) -> None:
        self._faults = faults

    def write_bytes(self, path: Path, payload: bytes) -> None:
        config = self._faults.config
        total = (
            config.torn_write_rate
            + config.corrupt_write_rate
            + config.fsync_failure_rate
        )
        if total <= 0.0 or not payload:
            super().write_bytes(path, payload)
            return
        draw = float(self._faults.storage.random())
        if draw < config.torn_write_rate:
            cut = int(self._faults.storage.integers(len(payload)))
            with open(path, "wb") as fh:
                fh.write(payload[:cut])
            self._faults.record(f"torn-write:{path.name}@{cut}")
            raise TornWrite(f"{path.name}: write torn at byte {cut}")
        if draw < config.torn_write_rate + config.corrupt_write_rate:
            index = int(self._faults.storage.integers(len(payload)))
            corrupted = bytearray(payload)
            corrupted[index] ^= 0xFF
            super().write_bytes(path, bytes(corrupted))
            self._faults.record(f"corrupt-write:{path.name}@{index}")
            return
        if draw < total:
            with open(path, "wb") as fh:
                fh.write(payload)
                fh.flush()
            self._faults.record(f"fsync-failure:{path.name}")
            raise FsyncFailure(f"{path.name}: fsync failed after write")
        super().write_bytes(path, payload)
