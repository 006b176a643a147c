"""Per-record reference for :func:`repro.measure.batch.execute_traceroute_batch`.

This is the traceroute batch as it ran before it returned a columnar
:class:`~repro.measure.results.TraceBlock`: the same draws in the same
order, assembled into one frozen
:class:`~repro.measure.results.TracerouteMeasurement` (with its own
:class:`~repro.measure.results.MeasurementMeta` and one
:class:`~repro.measure.results.TraceHop` per hop) per request.  Parity
tests assert that ``trace_block_from_records`` over its output equals
the engine's block column for column, from the same generator state.

:func:`truncate_records` and :func:`netfault_traceroute_records` are the
record-level halves of the fault wrappers as they ran over that list:
``FaultyEngine``'s per-record truncation and ``NetfaultEngine``'s
per-epoch concatenation with its (epoch, outage id) annotations.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np
from oracles.requests import filter_segment, segments
from oracles.routing import EpochRoutes

from repro.lastmile.base import AccessKind
from repro.measure.latency import (
    congestion_cycle_multiplier,
    icmp_penalty_probability_for,
    sample_hop_rtt_block,
)
from repro.measure.path import HOME_ROUTER_ADDRESS
from repro.measure.requests import TraceRequest, pair_requests
from repro.measure.results import (
    Protocol,
    TraceHop,
    TracerouteMeasurement,
    build_meta,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plan import AttemptFaults
    from repro.measure.engine import MeasurementEngine
    from repro.netfaults.engine import NetfaultEngine


def execute_traceroute_batch(
    engine: "MeasurementEngine",
    requests: Sequence["TraceRequest"],
    rng: Optional[np.random.Generator] = None,
) -> List[TracerouteMeasurement]:
    """Execute a traceroute batch in one vectorized pass.

    Phase 1 walks the request list once: paths are planned (cached), the
    per-trace last-mile is drawn, and home probes behind a NAT router get
    their private first hop.  Phase 2 samples jitter / congestion / ICMP
    penalty / control-plane processing for *every hop of every trace* as
    flat arrays, then slices the results back into per-trace hop lists.

    ``rng`` overrides the engine's measurement stream (see
    :func:`execute_ping_batch`).
    """
    n = len(requests)
    if n == 0:
        return []
    config = engine.config
    if rng is None:
        rng = engine.rng
    path_config = config.path_model
    unresponsive_p = path_config.hop_unresponsive_probability

    # Plan (or fetch) every trace's path first so the planner's own RNG
    # draws stay grouped ahead of the measurement draws below; the
    # records read each row through its PlannedPath view.
    planner = engine.planner
    paths = [
        planner.path(row)
        for row in planner.plan_many(
            pair_requests([(request.probe, request.region) for request in requests])
        )
    ]
    accesses: List[AccessKind] = []
    lastmile_rows: List[Tuple[float, ...]] = []
    sigma = np.empty(n)
    congestion_p = np.empty(n)
    icmp_p = np.empty(n)
    icmp_mask = np.empty(n, bool)
    counts = np.empty(n, np.int64)
    icmp_probability: Dict[object, float] = {}
    cycle_multiplier: Dict[int, float] = {}

    # One array draw decides every trace's access switch: a wireless
    # probe measures over the other medium (WiFi <-> cellular) when its
    # draw falls below the access-switch probability, which flips the
    # traceroute's first-hop signature (a section-5 caveat); wired
    # probes never switch.
    switch_p = config.last_mile.access_switch_probability
    access_draws = rng.random(n).tolist()
    # Per-request access resolution branches on probe state; the draws
    # it consumes are already a single array pull above.
    for i, request in enumerate(requests):
        probe = request.probe
        path = paths[i]
        counts[i] = path.hop_count
        access = probe.access
        if access.is_wireless and access_draws[i] < switch_p:
            access = (
                AccessKind.CELLULAR
                if access is AccessKind.HOME_WIFI
                else AccessKind.HOME_WIFI
            )
        accesses.append(access)
        lastmile_rows.append(
            engine.lastmile_model(probe, access).batch_params()
        )

        day = request.day
        multiplier = cycle_multiplier.get(day)
        if multiplier is None:
            multiplier = congestion_cycle_multiplier(day, config)
            cycle_multiplier[day] = multiplier
        is_icmp = request.protocol is Protocol.ICMP
        if is_icmp:
            penalty = icmp_probability.get(probe.continent)
            if penalty is None:
                penalty = icmp_penalty_probability_for(probe.continent, config)
                icmp_probability[probe.continent] = penalty
        else:
            penalty = 0.0
        sigma[i] = path.jitter_sigma
        congestion_p[i] = path.congestion_probability * multiplier
        icmp_p[i] = penalty
        icmp_mask[i] = is_icmp

    # One last-mile draw per trace (all traces at once; draw order is
    # air noise, bufferbloat uniforms, wire noise, router processing).
    lastmile = np.array(lastmile_rows, np.float64)
    z_air = rng.standard_normal(n)
    u_bloat = rng.random(n)
    z_wire = rng.standard_normal(n)
    air_median = lastmile[:, 0]
    air = np.where(
        air_median > 0.0, air_median * np.exp(lastmile[:, 1] * z_air), 0.0
    )
    air = np.where(u_bloat < lastmile[:, 4], air * lastmile[:, 5], air)
    wire_median = lastmile[:, 2]
    wire = np.where(
        wire_median > 0.0, wire_median * np.exp(lastmile[:, 3] * z_wire), 0.0
    )
    lastmile_total = air + wire
    # Hop-1 home-router RTT for probes measuring from behind a NAT: the
    # WiFi air segment plus the router's own processing.
    router_rtts = np.round(air + rng.exponential(0.3, n), 3).tolist()

    # -- phase 2: one vectorized pass over every hop of every trace ---------
    total = int(counts.sum())
    hop_of = np.repeat(np.arange(n), counts)
    base = np.fromiter(
        (rtt for path in paths for rtt in path.hop_base_rtts),
        np.float64,
        count=total,
    )
    hop_core = sample_hop_rtt_block(
        base,
        sigma[hop_of],
        congestion_p[hop_of],
        icmp_mask[hop_of],
        icmp_p[hop_of],
        config,
        rng,
    )
    rtts = np.round(lastmile_total[hop_of] + hop_core, 3).tolist()
    unresponsive_draws = rng.random(total).tolist()

    results: List[TracerouteMeasurement] = []
    position = 0
    # Assembly of ragged per-trace hop lists from the flat column draws
    # above -- the numeric work is already vectorized, this loop only
    # slices it back into TracerouteMeasurement objects.
    for i, (request, path, access) in enumerate(
        zip(requests, paths, accesses)
    ):
        probe = request.probe
        hops: List[TraceHop] = []
        behind_router = access is AccessKind.HOME_WIFI and (
            probe.access is not AccessKind.HOME_WIFI
            or probe.device_address != probe.public_address
        )
        if behind_router:
            # Hop 1: the home router, reached over the WiFi air segment.
            hops.append(
                TraceHop(address=HOME_ROUTER_ADDRESS, rtt_ms=router_rtts[i])
            )
        dest_address = path.dest_address
        for address in path.hop_addresses:
            if (
                address != dest_address
                and unresponsive_draws[position] < unresponsive_p
            ):
                hops.append(TraceHop(address=None, rtt_ms=None))
            else:
                hops.append(TraceHop(address=address, rtt_ms=rtts[position]))
            position += 1
        results.append(
            TracerouteMeasurement(
                meta=build_meta(request.probe, request.region, request.day),
                protocol=request.protocol,
                source_address=request.probe.device_address,
                dest_address=dest_address,
                hops=tuple(hops),
            )
        )
    return results


def truncate_records(
    records: List[TracerouteMeasurement], faults: "AttemptFaults"
) -> List[TracerouteMeasurement]:
    """``FaultyEngine``'s trace truncation over a record list.

    One uniform per record from the measurement fault stream; a record
    drawn below the truncation rate with more than one hop keeps a
    prefix of ``1 + integers(len(hops) - 1)`` hops, drawn in record
    order.
    """
    config = faults.config
    if config.trace_truncation_rate > 0.0 and records:
        draws = faults.measure.random(len(records))
        truncated = 0
        for index, record in enumerate(records):
            if draws[index] >= config.trace_truncation_rate:
                continue
            hops = record.hops
            if len(hops) <= 1:
                continue
            keep = 1 + int(faults.measure.integers(len(hops) - 1))
            records[index] = dataclasses.replace(
                record, hops=hops[:keep]
            )
            truncated += 1
        if truncated:
            faults.record(f"trace-truncated:{truncated}")
    return records


def netfault_traceroute_records(
    netfault: "NetfaultEngine",
    requests: Sequence[TraceRequest],
    rng: Optional[np.random.Generator] = None,
) -> Tuple[List[TracerouteMeasurement], Tuple[np.ndarray, np.ndarray]]:
    """``NetfaultEngine.traceroute_batch`` over the record reference.

    Returns the concatenated per-epoch records and their
    ``(epochs, outage_ids)`` annotations in record order.
    """
    records: List[TracerouteMeasurement] = []
    annotations: List[Tuple[int, int]] = []
    routes = EpochRoutes(netfault.plan.topology)
    try:
        for start, end, day, epoch in segments(netfault, requests):
            timeline = netfault.plan.timeline(day)
            view = netfault.plan.view(timeline.removed_edges(epoch))
            netfault.policy.set_view(view)
            survivors, notes, effects = filter_segment(
                netfault, requests[start:end], timeline, epoch, routes
            )
            netfault._journal(timeline, effects)
            if survivors:
                records.extend(
                    execute_traceroute_batch(netfault.inner, survivors, rng=rng)
                )
                annotations.extend(notes)
    finally:
        netfault.policy.set_view(None)
    return records, (
        np.array([note[0] for note in annotations], np.int32),
        np.array([note[1] for note in annotations], np.int32),
    )
