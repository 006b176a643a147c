"""Per-request references for the request columns and the fault wrappers.

This is how requests ran before schedulers emitted request blocks: one
frozen :class:`~repro.measure.requests.PingRequest` or
:class:`~repro.measure.requests.TraceRequest` per request, in a list
that the fault wrappers filtered request by request and that the batch
engine interned into probe and region codes (:func:`intern`).

- :func:`intern` is the engine's old code interning, in first-seen order;
- :class:`ReferenceFaultyEngine` is ``FaultyEngine`` over request lists;
- :func:`segments`, :func:`filter_segment` and
  :class:`ReferenceNetfaultEngine` are ``NetfaultEngine``'s per-request
  epoch segmentation and event filter.  The filter takes its routing
  verdicts from the eager routes of :class:`~oracles.routing.EpochRoutes`
  (a full sweep of the epoch's scope graph) and finds the rerouting
  event itself: it shares no route token, verdict shortcut or
  ``_reroute_event`` with the engine;
- :func:`_merge_blocks` is its old segment merge, which interns the
  tables by probe id and (provider, region id) instead of going through
  :meth:`~repro.measure.results.Block.concatenate`.

Property tests hold the columnar versions to these, column for column.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type, TypeVar

import numpy as np
from oracles.routing import EpochRoutes

from repro.cloud.regions import CloudRegion
from repro.faults.injectors import _truncate_traces
from repro.faults.plan import AttemptFaults
from repro.measure.requests import PingRequest, TraceRequest
from repro.measure.results import PingBlock, TraceBlock
from repro.netfaults.engine import NetfaultEngine
from repro.netfaults.events import SLOTS_PER_DAY, DayTimeline
from repro.platforms.probe import Probe

Request = Any
#: Per-request annotation: (epoch, outage event id or -1).
Annotation = Tuple[int, int]


def intern(
    requests: Sequence[Request],
) -> Tuple[List[Probe], np.ndarray, List[CloudRegion], np.ndarray]:
    """Probe and region codes of a request list, in first-seen order
    (the order a block lists its probes and regions in)."""
    probes: List[Probe] = []
    probe_codes_by_id: Dict[str, int] = {}
    regions: List[CloudRegion] = []
    region_codes_by_key: Dict[Tuple[str, str], int] = {}
    probe_code_list: List[int] = []
    region_code_list: List[int] = []
    for request in requests:
        probe = request.probe
        probe_code = probe_codes_by_id.get(probe.probe_id)
        if probe_code is None:
            probe_code = len(probes)
            probes.append(probe)
            probe_codes_by_id[probe.probe_id] = probe_code
        region = request.region
        region_key = (region.provider_code, region.region_id)
        region_code = region_codes_by_key.get(region_key)
        if region_code is None:
            region_code = len(regions)
            regions.append(region)
            region_codes_by_key[region_key] = region_code
        probe_code_list.append(probe_code)
        region_code_list.append(region_code)
    return (
        probes,
        np.array(probe_code_list, np.int32),
        regions,
        np.array(region_code_list, np.int32),
    )


class ReferenceFaultyEngine:
    """``FaultyEngine`` as it filtered request lists, one request at a
    time.  The inner engine receives lists of request records."""

    def __init__(self, inner: Any, faults: AttemptFaults) -> None:
        self._inner = inner
        self._faults = faults
        self._disconnect_decided = False
        self._disconnect_victim: Optional[str] = None
        self._disconnect_after = 0

    def _decide_disconnect(self, requests: Sequence[PingRequest]) -> None:
        if self._disconnect_decided:
            return
        self._disconnect_decided = True
        config = self._faults.config
        if config.probe_disconnect_rate <= 0.0 or not requests:
            return
        if float(self._faults.measure.random()) >= config.probe_disconnect_rate:
            return
        probe_ids = sorted({request.probe.probe_id for request in requests})
        victim = probe_ids[int(self._faults.measure.integers(len(probe_ids)))]
        owned = sum(1 for request in requests if request.probe.probe_id == victim)
        self._disconnect_victim = victim
        self._disconnect_after = int(self._faults.measure.integers(owned))
        self._faults.record(f"probe-disconnect:{victim}@{self._disconnect_after}")

    def _surviving_pings(self, requests: List[PingRequest]) -> List[PingRequest]:
        if self._disconnect_victim is None:
            return requests
        kept: List[PingRequest] = []
        seen_of_victim = 0
        for request in requests:
            if request.probe.probe_id == self._disconnect_victim:
                if seen_of_victim >= self._disconnect_after:
                    continue
                seen_of_victim += 1
            kept.append(request)
        return kept

    def ping_batch(
        self,
        requests: Sequence[PingRequest],
        rng: Optional[np.random.Generator] = None,
    ) -> PingBlock:
        batch = list(requests)
        self._decide_disconnect(batch)
        batch = self._surviving_pings(batch)
        config = self._faults.config
        if config.reply_loss_rate > 0.0 and batch:
            draws = self._faults.measure.random(len(batch))
            lost = int(np.count_nonzero(draws < config.reply_loss_rate))
            if lost:
                batch = [
                    request
                    for request, draw in zip(batch, draws)
                    if draw >= config.reply_loss_rate
                ]
                self._faults.record(f"reply-loss:{lost}")
        return self._inner.ping_batch(batch, rng=rng)

    def traceroute_batch(
        self,
        requests: Sequence[TraceRequest],
        rng: Optional[np.random.Generator] = None,
    ) -> TraceBlock:
        batch = list(requests)
        if self._disconnect_victim is not None:
            survivors = [
                request
                for request in batch
                if request.probe.probe_id != self._disconnect_victim
            ]
            if len(survivors) != len(batch):
                self._faults.record(f"trace-drop:{len(batch) - len(survivors)}")
            batch = survivors
        block = self._inner.traceroute_batch(batch, rng=rng)
        config = self._faults.config
        if config.trace_truncation_rate > 0.0 and len(block):
            draws = self._faults.measure.random(len(block))
            kept = np.diff(block.hop_offsets)
            truncated = 0
            for index in np.flatnonzero(draws < config.trace_truncation_rate).tolist():
                hops = int(kept[index])
                if hops <= 1:
                    continue
                kept[index] = 1 + int(self._faults.measure.integers(hops - 1))
                truncated += 1
            if truncated:
                block = _truncate_traces(block, kept)
                self._faults.record(f"trace-truncated:{truncated}")
        return block


def segments(
    netfault: NetfaultEngine, requests: Sequence[Request]
) -> List[Tuple[int, int, int, int]]:
    """Contiguous (start, end, day, epoch) runs of a request list:
    request ``i`` of ``n`` executes at slot ``i * SLOTS_PER_DAY // n``."""
    n = len(requests)
    runs: List[Tuple[int, int, int, int]] = []
    start = 0
    current: Optional[Tuple[int, int]] = None
    slots_day = -1
    slots: List[int] = []
    for i in range(n):
        day = int(requests[i].day)
        if day != slots_day:
            timeline = netfault.plan.timeline(day)
            slots = [timeline.epoch_at(slot) for slot in range(SLOTS_PER_DAY)]
            slots_day = day
        epoch = slots[i * SLOTS_PER_DAY // n]
        if current is None:
            current = (day, epoch)
        elif (day, epoch) != current:
            runs.append((start, i, current[0], current[1]))
            start = i
            current = (day, epoch)
    if current is not None:
        runs.append((start, n, current[0], current[1]))
    return runs


def filter_segment(
    netfault: NetfaultEngine,
    requests: Sequence[Request],
    timeline: DayTimeline,
    epoch: int,
    routes: EpochRoutes,
) -> Tuple[List[Request], List[Annotation], Dict[int, List[int]]]:
    """One epoch's events applied to a segment, request by request: the
    survivors, their (epoch, outage id) annotations, and per-event
    (dropped, rerouted) counters.

    A request keeps its route when ``routes`` finds one under the
    policy's state.  The blame of a dropped request is the epoch's
    first link event; a kept request is rerouted by the lowest-id link
    event on its baseline path, if any.
    """
    topology = netfault.plan.topology
    policy = netfault.policy
    outages = timeline.outages(epoch)
    removed = timeline.removed_edges(epoch)
    graph_events = tuple(
        event for event in timeline.active[epoch] if event.edge is not None
    )
    effects: Dict[int, List[int]] = {}
    survivors: List[Request] = []
    annotations: List[Annotation] = []
    outage_keys = {
        (event.network, event.continent): event.event_id
        for event in reversed(outages)
    }
    if not outage_keys and not removed:
        return list(requests), [(epoch, -1)] * len(requests), effects
    for request in requests:
        probe = request.probe
        region = request.region
        provider_code = region.provider_code
        if outage_keys:
            network = topology.network_code(provider_code)
            outage_id = outage_keys.get((network, region.continent))
            if outage_id is not None:
                effects.setdefault(outage_id, [0, 0])[0] += 1
                continue
        reroute_id = -1
        if removed:
            if (
                routes.as_path(
                    policy, probe.isp_asn, provider_code, probe.continent
                )
                is None
            ):
                blame = graph_events[0].event_id if graph_events else -1
                if blame >= 0:
                    effects.setdefault(blame, [0, 0])[0] += 1
                continue
            base = topology.as_path(probe.isp_asn, provider_code, probe.continent)
            links = {frozenset(link) for link in zip(base, base[1:])}
            reroute_id = min(
                (
                    event.event_id
                    for event in graph_events
                    if frozenset(event.edge) in links
                ),
                default=-1,
            )
            if reroute_id >= 0:
                effects.setdefault(reroute_id, [0, 0])[1] += 1
        survivors.append(request)
        annotations.append((epoch, reroute_id))
    return survivors, annotations, effects


#: Per block kind: its column schema and the offsets column in it.
_BLOCK_SCHEMAS: Dict[type, Tuple[Dict[str, np.dtype], str]] = {
    PingBlock: (PingBlock.COLUMNS, "sample_offsets"),
    TraceBlock: (TraceBlock.COLUMNS, "hop_offsets"),
}

_Block = TypeVar("_Block", PingBlock, TraceBlock)


def _merge_blocks(
    kind: Type[_Block],
    segments: Sequence[_Block],
    epochs: np.ndarray,
    outage_ids: np.ndarray,
) -> _Block:
    """Concatenate per-segment blocks of one kind, re-interning codes.

    Probe/region tables are re-interned in first-seen order over the
    concatenated rows -- the same order a single-segment batch would
    have produced -- and offsets are shifted into one flat value array.
    Every other column concatenates as it is.
    """
    schema, offsets_name = _BLOCK_SCHEMAS[kind]
    probes: List[Probe] = []
    probe_code_by_id: Dict[str, int] = {}
    regions: List[CloudRegion] = []
    region_code_by_key: Dict[Tuple[str, str], int] = {}
    columns: Dict[str, List[np.ndarray]] = {
        name: [np.empty(0, dtype)]
        for name, dtype in schema.items()
        if name != offsets_name
    }
    offsets: List[np.ndarray] = [np.zeros(1, np.int64)]
    shift = 0
    for block in segments:
        probe_remap = np.empty(max(len(block.probes), 1), np.int32)
        for local, probe in enumerate(block.probes):
            code = probe_code_by_id.get(probe.probe_id)
            if code is None:
                code = len(probes)
                probes.append(probe)
                probe_code_by_id[probe.probe_id] = code
            probe_remap[local] = code
        region_remap = np.empty(max(len(block.regions), 1), np.int32)
        for local, region in enumerate(block.regions):
            key = (region.provider_code, region.region_id)
            code = region_code_by_key.get(key)
            if code is None:
                code = len(regions)
                regions.append(region)
                region_code_by_key[key] = code
            region_remap[local] = code
        for name, parts in columns.items():
            parts.append(getattr(block, name))
        columns["probe_codes"][-1] = probe_remap[block.probe_codes]
        columns["region_codes"][-1] = region_remap[block.region_codes]
        block_offsets = getattr(block, offsets_name)
        offsets.append(block_offsets[1:] + shift)
        shift += int(block_offsets[-1])
    merged = {name: np.concatenate(parts) for name, parts in columns.items()}
    merged[offsets_name] = np.concatenate(offsets)
    return kind(
        probes=probes,
        regions=regions,
        epochs=epochs,
        outage_ids=outage_ids,
        **merged,
    )


class ReferenceNetfaultEngine(NetfaultEngine):
    """``NetfaultEngine`` over request lists: per-request segments and
    filters, each segment's survivors handed to the inner engine as a
    list of records."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._routes = EpochRoutes(self.plan.topology)

    def _execute(  # type: ignore[override]
        self,
        kind: Type[Any],
        execute: Callable[..., Any],
        requests: Sequence[Request],
        rng: Optional[np.random.Generator],
    ) -> Any:
        requests = list(requests)
        blocks: List[Any] = []
        annotations: List[Annotation] = []
        try:
            for start, end, day, epoch in segments(self, requests):
                timeline = self.plan.timeline(day)
                view = self.plan.view(timeline.removed_edges(epoch))
                self.policy.set_view(view)
                survivors, notes, effects = filter_segment(
                    self, requests[start:end], timeline, epoch, self._routes
                )
                self._journal(timeline, effects)
                if survivors:
                    blocks.append(execute(survivors, rng=rng))
                    annotations.extend(notes)
        finally:
            self.policy.set_view(None)
        epochs = np.array([note[0] for note in annotations], np.int32)
        outage_ids = np.array([note[1] for note in annotations], np.int32)
        if len(blocks) == 1:
            block = blocks[0]
            block.epochs = epochs
            block.outage_ids = outage_ids
            return block
        return _merge_blocks(kind, blocks, epochs, outage_ids)

