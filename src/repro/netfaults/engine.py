"""Fault-aware batch execution: the engine wrapper that reacts to events.

:class:`NetfaultEngine` wraps a batch engine the way
:class:`repro.faults.injectors.FaultyEngine` does for harness faults,
but instead of corrupting calls it *reshapes* them around the network:

- a unit's request list is mapped onto the day's virtual-time slots
  (request ``i`` of ``n`` executes at slot ``i * SLOTS_PER_DAY // n``),
  splitting the batch into contiguous per-epoch segments;
- each segment installs its epoch's :class:`EpochTopologyView` on the
  planner's :class:`~repro.measure.pathpolicy.FailoverPathPolicy`, so
  surviving requests plan over re-converged routes;
- requests towards a region under a regional outage, and requests whose
  serving ISP lost all routes to the provider in this epoch, are dropped
  (no measurement row) with the responsible event recorded;
- survivors execute through the inner engine *with the unit's own
  generator threaded sequentially through the segments*, so the wrapper
  adds no draws of its own and an event-free day is draw-for-draw
  identical to an unwrapped run.

Per-row provenance (routing epoch + rerouting event id) is attached to
the resulting blocks as the optional ``epochs`` / ``outage_ids``
columns; human-readable event effects accumulate in the journal drained
by :meth:`take_events`.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    TypeVar,
)

import numpy as np

from repro.cloud.regions import CloudRegion
from repro.measure.batch import PingRequest, TraceRequest
from repro.measure.engine import BatchEngine
from repro.measure.pathpolicy import FailoverPathPolicy
from repro.measure.results import (
    PING_COLUMN_DTYPES,
    TRACE_COLUMN_DTYPES,
    PingBlock,
    TraceBlock,
)
from repro.netfaults.events import SLOTS_PER_DAY, DayTimeline, NetworkEvent
from repro.netfaults.plan import NetworkFaultPlan
from repro.platforms.probe import Probe

#: Per-request annotation: (epoch, outage event id or -1).
_Annotation = Tuple[int, int]


def find_netfault_engine(engine: object) -> Optional["NetfaultEngine"]:
    """The :class:`NetfaultEngine` inside a wrapper chain, if any.

    Campaign units receive the engine behind zero or more wrappers
    (e.g. :class:`repro.faults.injectors.FaultyEngine`); this walks the
    conventional ``_inner`` links so units can drain the netfault
    journal without knowing the wrapping order.
    """
    current: object = engine
    for _ in range(8):
        if isinstance(current, NetfaultEngine):
            return current
        current = getattr(current, "_inner", None)
        if current is None:
            return None
    return None


#: Per block kind: its column schema and the offsets column in it.
_BLOCK_SCHEMAS: Dict[type, Tuple[Dict[str, np.dtype], str]] = {
    PingBlock: (PING_COLUMN_DTYPES, "sample_offsets"),
    TraceBlock: (TRACE_COLUMN_DTYPES, "hop_offsets"),
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


class NetfaultEngine:
    """A batch engine that executes through a network fault plan."""

    def __init__(
        self,
        inner: BatchEngine,
        plan: NetworkFaultPlan,
        policy: FailoverPathPolicy,
    ) -> None:
        self._inner = inner
        self._plan = plan
        self._policy = policy
        self._events: List[str] = []
        #: (day, epoch, policy token) -> (provider, isp, continent) ->
        #: (keep, blame event id, reroute event id).  Routing verdicts
        #: are pure given the epoch's view and the policy state, and the
        #: key space collapses hard (probes share ISPs, regions share
        #: networks), so ping and trace batches resolve each scope once
        #: and the per-request loop is a single dict probe.
        self._verdicts: Dict[
            Tuple, Dict[Tuple, Tuple[bool, int, int]]
        ] = {}
        #: provider code -> network code (the topology is fixed for the
        #: engine's lifetime, so this never invalidates).
        self._network_of: Dict[str, str] = {}

    @property
    def inner(self) -> BatchEngine:
        return self._inner

    @property
    def plan(self) -> NetworkFaultPlan:
        return self._plan

    @property
    def policy(self) -> FailoverPathPolicy:
        return self._policy

    def take_events(self) -> List[str]:
        """Drain the accumulated event-effect journal."""
        events, self._events = self._events, []
        return events

    # -- segmentation ------------------------------------------------------

    def _segments(
        self, requests: Sequence
    ) -> List[Tuple[int, int, int, int]]:
        """Contiguous (start, end, day, epoch) runs of a request list.

        Request ``i`` of ``n`` executes at virtual slot
        ``i * SLOTS_PER_DAY // n``; the slot is non-decreasing in ``i``
        so equal-epoch runs are contiguous and the inner engine sees
        each epoch's survivors as one ordered sub-batch.
        """
        n = len(requests)
        segments: List[Tuple[int, int, int, int]] = []
        start = 0
        current: Optional[Tuple[int, int]] = None
        slots_day = -1
        slots: List[int] = []
        for i in range(n):
            day = int(requests[i].day)
            if day != slots_day:
                timeline = self._plan.timeline(day)
                slots = [
                    timeline.epoch_at(slot) for slot in range(SLOTS_PER_DAY)
                ]
                slots_day = day
            epoch = slots[i * SLOTS_PER_DAY // n]
            if current is None:
                current = (day, epoch)
            elif (day, epoch) != current:
                segments.append((start, i, current[0], current[1]))
                start = i
                current = (day, epoch)
        if current is not None:
            segments.append((start, n, current[0], current[1]))
        return segments

    def _filter_segment(
        self,
        requests: Sequence,
        timeline: DayTimeline,
        epoch: int,
        view,
    ) -> Tuple[List, List[_Annotation], Dict[int, List[int]]]:
        """Apply one epoch's events to a segment's requests.

        Returns the surviving requests, their (epoch, outage id)
        annotations, and per-event (dropped, rerouted) counters.
        """
        topology = self._plan.topology
        outages = timeline.outages(epoch)
        removed = timeline.removed_edges(epoch)
        graph_events = tuple(
            event
            for event in timeline.active[epoch]
            if event.edge is not None
        )
        effects: Dict[int, List[int]] = {}
        survivors: List = []
        annotations: List[_Annotation] = []
        outage_keys = {
            (event.network, event.continent): event.event_id
            for event in reversed(outages)
        }
        if not outage_keys and not removed:
            # Event-free epoch: everything survives on baseline routes.
            return (
                list(requests),
                [(epoch, -1)] * len(requests),
                effects,
            )
        network_of = self._network_of
        has_outages = bool(outage_keys)
        # Scopes whose table is the baseline object need no per-pair
        # verdict at all: every measured pair has a baseline route
        # (the planner raises otherwise), and a baseline table proves no
        # selected path rides a removed edge, so the verdict is always
        # (keep, no reroute).  Only valid while no path is explicitly
        # marked down -- down marks are per (isp, network, continent),
        # finer than scope.
        scope_fastpath = bool(removed) and not self._policy.down_paths
        verdicts: Dict[Tuple, Tuple[bool, int, int]] = {}
        if removed:
            verdicts = self._verdicts.setdefault(
                (timeline.day, epoch, self._policy.cache_token()), {}
            )
        keep_verdict = (True, -1, -1)
        for request in requests:
            probe = request.probe
            region = request.region
            provider_code = region.provider_code
            if has_outages:
                network = network_of.get(provider_code)
                if network is None:
                    network = topology.network_code(provider_code)
                    network_of[provider_code] = network
                outage_id = outage_keys.get((network, region.continent))
                if outage_id is not None:
                    effects.setdefault(outage_id, [0, 0])[0] += 1
                    continue
            reroute_id = -1
            if removed:
                vkey = (provider_code, probe.isp_asn, probe.continent)
                verdict = verdicts.get(vkey)
                if verdict is None:
                    if scope_fastpath and (
                        view.scope_token(provider_code, probe.continent)
                        is None
                    ):
                        verdict = keep_verdict
                    elif (
                        self._policy.as_path(
                            topology,
                            probe.isp_asn,
                            provider_code,
                            probe.continent,
                        )
                        is None
                    ):
                        blame = (
                            graph_events[0].event_id if graph_events else -1
                        )
                        verdict = (False, blame, -1)
                    else:
                        verdict = (
                            True,
                            -1,
                            self._reroute_event(
                                topology,
                                probe,
                                provider_code,
                                graph_events,
                            ),
                        )
                    verdicts[vkey] = verdict
                keep, blame, reroute_id = verdict
                if not keep:
                    if blame >= 0:
                        effects.setdefault(blame, [0, 0])[0] += 1
                    continue
                if reroute_id >= 0:
                    effects.setdefault(reroute_id, [0, 0])[1] += 1
            survivors.append(request)
            annotations.append((epoch, reroute_id))
        return survivors, annotations, effects

    @staticmethod
    def _reroute_event(
        topology,
        probe,
        provider_code: str,
        graph_events: Tuple[NetworkEvent, ...],
    ) -> int:
        """The lowest-id active event whose downed link the baseline
        route rode, or ``-1`` if the baseline route is unaffected."""
        base = topology.as_path(
            probe.isp_asn, provider_code, probe.continent
        )
        if base is None or len(base) < 2:
            return -1
        path_edges = {
            (min(a, b), max(a, b)) for a, b in zip(base, base[1:])
        }
        for event in graph_events:
            assert event.edge is not None
            a, b = event.edge
            if (min(a, b), max(a, b)) in path_edges:
                return event.event_id
        return -1

    def _journal(
        self,
        timeline: DayTimeline,
        effects: Dict[int, List[int]],
    ) -> None:
        by_id = {event.event_id: event for event in timeline.events}
        for event_id in sorted(effects):
            dropped, rerouted = effects[event_id]
            event = by_id[event_id]
            self._events.append(
                f"{event.label()} dropped={dropped} rerouted={rerouted}"
            )

    # -- batch surface -----------------------------------------------------

    def _execute(
        self,
        kind: Type[_Block],
        execute: Callable[..., _Block],
        requests: Sequence,
        rng: Optional[np.random.Generator],
    ) -> _Block:
        """Run ``execute`` on each epoch segment's survivors; one block.

        The block carries every surviving row's (epoch, outage id) in
        its ``epochs`` / ``outage_ids`` columns.
        """
        blocks: List[_Block] = []
        annotations: List[_Annotation] = []
        try:
            for start, end, day, epoch in self._segments(requests):
                timeline = self._plan.timeline(day)
                view = self._plan.view(timeline.removed_edges(epoch))
                self._policy.set_view(view)
                survivors, notes, effects = self._filter_segment(
                    requests[start:end], timeline, epoch, view
                )
                self._journal(timeline, effects)
                if survivors:
                    blocks.append(execute(survivors, rng=rng))
                    annotations.extend(notes)
        finally:
            self._policy.set_view(None)
        epochs = np.array(
            [note[0] for note in annotations], np.int32
        )
        outage_ids = np.array(
            [note[1] for note in annotations], np.int32
        )
        if len(blocks) == 1:
            block = blocks[0]
            block.epochs = epochs
            block.outage_ids = outage_ids
            return block
        return _merge_blocks(kind, blocks, epochs, outage_ids)

    def ping_batch(
        self,
        requests: Sequence[PingRequest],
        rng: Optional[np.random.Generator] = None,
    ) -> PingBlock:
        return self._execute(PingBlock, self._inner.ping_batch, requests, rng)

    def traceroute_batch(
        self,
        requests: Sequence[TraceRequest],
        rng: Optional[np.random.Generator] = None,
    ) -> TraceBlock:
        return self._execute(
            TraceBlock, self._inner.traceroute_batch, requests, rng
        )

    def __repr__(self) -> str:
        return f"NetfaultEngine(plan={self._plan!r})"
