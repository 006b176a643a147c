"""Fault-aware batch execution: the engine wrapper that reacts to events.

:class:`NetfaultEngine` wraps a batch engine the way
:class:`repro.faults.injectors.FaultyEngine` does for harness faults,
but instead of corrupting calls it *reshapes* them around the network:

- a unit's request block is mapped onto the day's virtual-time slots
  (request ``i`` of ``n`` executes at slot ``i * SLOTS_PER_DAY // n``),
  splitting the batch into contiguous per-epoch segments cut from one
  slot array;
- each segment installs its epoch's :class:`EpochTopologyView` on the
  planner's :class:`~repro.measure.pathpolicy.FailoverPathPolicy`, so
  surviving requests plan over re-converged routes;
- requests towards a region under a regional outage, and requests whose
  serving ISP lost all routes to the provider in this epoch, are dropped
  (no measurement row) with the responsible event recorded.  Outages
  are decided once per region of the block's table and routing verdicts
  once per (provider, ISP, continent) route, then applied to the rows as
  masks; only a route that rides a downed link re-converges its scope
  for its verdict.  A segment's survivors are a
  :meth:`~repro.measure.results.Block.take` of the block;
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
    Tuple,
    Type,
    TypeVar,
)

import numpy as np

from repro.measure.engine import BatchEngine
from repro.measure.pathpolicy import FailoverPathPolicy
from repro.measure.requests import PingRequests, TraceRequests
from repro.measure.results import Block, PingBlock, TraceBlock, first_seen
from repro.netfaults.events import SLOTS_PER_DAY, DayTimeline, NetworkEvent
from repro.netfaults.plan import NetworkFaultPlan

_Block = TypeVar("_Block", PingBlock, TraceBlock)


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
        #: networks), so ping and trace batches resolve each scope once.
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
        self, requests: Block
    ) -> List[Tuple[int, int, int, int]]:
        """Contiguous (start, end, day, epoch) runs of a request block.

        Request ``i`` of ``n`` executes at virtual slot
        ``i * SLOTS_PER_DAY // n``; the slot is non-decreasing in ``i``
        so a day's equal-epoch runs are contiguous and the inner engine
        sees each epoch's survivors as one ordered sub-batch.  Every
        row's epoch comes from one slot array per day of the block.
        """
        n = len(requests)
        if not n:
            return []
        days = requests.days
        slots = np.arange(n, dtype=np.int64) * SLOTS_PER_DAY // n
        epochs = np.empty(n, np.int64)
        for day in np.unique(days).tolist():
            boundaries = self._plan.timeline(day).boundaries
            on_day = days == day
            epochs[on_day] = (
                np.searchsorted(boundaries, slots[on_day], side="right") - 1
            )
        cuts = np.ones(n, bool)
        cuts[1:] = (days[1:] != days[:-1]) | (epochs[1:] != epochs[:-1])
        starts = np.flatnonzero(cuts)
        ends = np.append(starts[1:], n)
        return list(
            zip(
                starts.tolist(),
                ends.tolist(),
                days[starts].tolist(),
                epochs[starts].tolist(),
            )
        )

    def _filter_segment(
        self,
        requests: Block,
        scopes: np.ndarray,
        rows: np.ndarray,
        timeline: DayTimeline,
        epoch: int,
    ) -> Tuple[np.ndarray, np.ndarray, Dict[int, List[int]]]:
        """Apply one epoch's events to the block's ``rows``.

        ``scopes`` are the block's :func:`_verdict_scopes`.  Returns the
        surviving rows, their outage ids (the rerouting event, or
        ``-1``), and per-event (dropped, rerouted) counters.
        """
        outages = timeline.outages(epoch)
        removed = timeline.removed_edges(epoch)
        effects: Dict[int, List[int]] = {}
        reroutes = np.full(len(rows), -1, np.int64)
        outage_keys = {
            (event.network, event.continent): event.event_id
            for event in reversed(outages)
        }
        if not outage_keys and not removed:
            # Event-free epoch: everything survives on baseline routes.
            return rows, reroutes, effects
        keep = np.ones(len(rows), bool)
        if outage_keys:
            outage_of = np.array(
                [
                    outage_keys.get(
                        (self._network(region.provider_code), region.continent),
                        -1,
                    )
                    for region in requests.regions
                ],
                np.int64,
            )[requests.region_codes[rows]]
            keep = outage_of < 0
            _count_effects(effects, outage_of[~keep], 0)
        if removed:
            live = np.flatnonzero(keep)
            keeps, blames, reroute_ids = self._verdicts_of(
                requests, scopes, rows[live], timeline, epoch
            )
            _count_effects(effects, blames[~keeps & (blames >= 0)], 0)
            rerouted = keeps & (reroute_ids >= 0)
            _count_effects(effects, reroute_ids[rerouted], 1)
            keep[live[~keeps]] = False
            reroutes[live] = np.where(keeps, reroute_ids, -1)
        return rows[keep], reroutes[keep], effects

    def _network(self, provider_code: str) -> str:
        network = self._network_of.get(provider_code)
        if network is None:
            network = self._network_of[provider_code] = (
                self._plan.topology.network_code(provider_code)
            )
        return network

    def _verdicts_of(
        self,
        requests: Block,
        scopes: np.ndarray,
        rows: np.ndarray,
        timeline: DayTimeline,
        epoch: int,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per row, whether it keeps a route, the event blamed when it
        does not, and the event that rerouted it: one verdict per
        distinct (provider, ISP, continent) route (``scopes``) of the
        rows.

        A route whose pair token is ``None`` is its baseline route (no
        downed link on its path, no path marked down), and every
        measured pair has one (the planner raises otherwise), so its
        verdict is (keep, no reroute) without re-converging its scope.
        Only a route that rides a downed link asks the policy for its
        re-converged path.
        """
        topology = self._plan.topology
        graph_events = tuple(
            event for event in timeline.active[epoch] if event.edge is not None
        )
        policy = self._policy
        verdicts = self._verdicts.setdefault(
            (timeline.day, epoch, policy.cache_token()), {}
        )
        probes, regions = requests.probes, requests.regions
        firsts, scope_of = first_seen(scopes[rows])
        probe_codes = requests.probe_codes[rows]
        region_codes = requests.region_codes[rows]
        scope_verdicts: List[Tuple[bool, int, int]] = []
        for probe_code, region_code in zip(
            probe_codes[firsts].tolist(), region_codes[firsts].tolist()
        ):
            probe = probes[probe_code]
            provider_code = regions[region_code].provider_code
            vkey = (provider_code, probe.isp_asn, probe.continent)
            verdict = verdicts.get(vkey)
            if verdict is None:
                if (
                    policy.pair_token(
                        topology, probe.isp_asn, provider_code, probe.continent
                    )
                    is None
                ):
                    verdict = (True, -1, -1)
                elif (
                    policy.as_path(
                        topology, probe.isp_asn, provider_code, probe.continent
                    )
                    is None
                ):
                    blame = graph_events[0].event_id if graph_events else -1
                    verdict = (False, blame, -1)
                else:
                    verdict = (
                        True,
                        -1,
                        self._reroute_event(
                            topology, probe, provider_code, graph_events
                        ),
                    )
                verdicts[vkey] = verdict
            scope_verdicts.append(verdict)
        if not scope_verdicts:
            return np.empty(0, bool), np.empty(0, np.int64), np.empty(0, np.int64)
        keeps, blames, reroute_ids = zip(*scope_verdicts)
        return (
            np.array(keeps, bool)[scope_of],
            np.array(blames, np.int64)[scope_of],
            np.array(reroute_ids, np.int64)[scope_of],
        )

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
        requests: Block,
        rng: Optional[np.random.Generator],
    ) -> _Block:
        """Run ``execute`` on each epoch segment's survivors; one block.

        The block carries every surviving row's (epoch, outage id) in
        its ``epochs`` / ``outage_ids`` columns.
        """
        blocks: List[_Block] = []
        epochs: List[np.ndarray] = [np.empty(0, np.int32)]
        outage_ids: List[np.ndarray] = [np.empty(0, np.int32)]
        scopes = _verdict_scopes(requests)
        try:
            for start, end, day, epoch in self._segments(requests):
                timeline = self._plan.timeline(day)
                view = self._plan.view(timeline.removed_edges(epoch))
                self._policy.set_view(view)
                rows, reroutes, effects = self._filter_segment(
                    requests, scopes, np.arange(start, end), timeline, epoch
                )
                self._journal(timeline, effects)
                if len(rows):
                    blocks.append(execute(requests.take(rows), rng=rng))
                    epochs.append(np.full(len(rows), epoch, np.int32))
                    outage_ids.append(reroutes.astype(np.int32))
        finally:
            self._policy.set_view(None)
        block = kind.concatenate(blocks)
        block.epochs = np.concatenate(epochs)
        block.outage_ids = np.concatenate(outage_ids)
        return block

    def ping_batch(
        self,
        requests: PingRequests,
        rng: Optional[np.random.Generator] = None,
    ) -> PingBlock:
        return self._execute(PingBlock, self._inner.ping_batch, requests, rng)

    def traceroute_batch(
        self,
        requests: TraceRequests,
        rng: Optional[np.random.Generator] = None,
    ) -> TraceBlock:
        return self._execute(
            TraceBlock, self._inner.traceroute_batch, requests, rng
        )

    def __repr__(self) -> str:
        return f"NetfaultEngine(plan={self._plan!r})"


def _count_effects(
    effects: Dict[int, List[int]], event_ids: np.ndarray, slot: int
) -> None:
    """Add each event's number of rows in ``event_ids`` to its
    (dropped, rerouted) counter ``slot``."""
    ids, counts = np.unique(event_ids, return_counts=True)
    for event_id, count in zip(ids.tolist(), counts.tolist()):
        effects.setdefault(event_id, [0, 0])[slot] += count


def _verdict_scopes(requests: Block) -> np.ndarray:
    """Per row, a code two rows share exactly when their probes' (ISP,
    continent) and their regions' provider are equal: the scope of a
    routing verdict."""
    probe_scopes: Dict[Tuple[int, object], int] = {}
    probe_scope = np.array(
        [
            probe_scopes.setdefault((probe.isp_asn, probe.continent), len(probe_scopes))
            for probe in requests.probes
        ],
        np.int64,
    )
    providers: Dict[str, int] = {}
    region_provider = np.array(
        [
            providers.setdefault(region.provider_code, len(providers))
            for region in requests.regions
        ],
        np.int64,
    )
    return (
        probe_scope[requests.probe_codes] * max(len(providers), 1)
        + region_provider[requests.region_codes]
    )
