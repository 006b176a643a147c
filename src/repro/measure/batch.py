"""The vectorized batch measurement fast path.

The scalar engine executes one :meth:`~repro.measure.engine.MeasurementEngine.ping`
at a time, drawing 3-5 random numbers per RTT sample from the generator
one call at a time.  At campaign scale that is millions of scalar RNG
round-trips per simulated day.  This module provides the batched
equivalent: a whole request list is planned, grouped by forwarding path,
and *all* jitter / congestion / ICMP-penalty / last-mile noise for every
sample of every request is drawn as a handful of NumPy arrays.

The results are columnar: a :class:`~repro.measure.results.PingBlock`
per ping batch and a :class:`~repro.measure.results.TraceBlock` per
traceroute batch.  No per-request
:class:`~repro.measure.results.PingMeasurement` or
:class:`~repro.measure.results.TracerouteMeasurement` is allocated on
the way to the dataset or the store; analysis code materializes the
record views lazily via :meth:`MeasurementDataset.pings` and
:meth:`MeasurementDataset.traceroutes`.

Determinism: the draw order inside a batch is fixed (core-path arrays
first, then last-mile arrays -- see
:func:`repro.measure.latency.sample_path_rtt_block` and
:func:`execute_traceroute_batch`), so the same seed and the same request
list always produce an identical block.  The batch path is
*distributionally* equivalent to the scalar path (same noise processes,
different stream consumption); the KS-equivalence tests in
``tests/unit/test_batch.py`` guard that property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cloud.regions import CloudRegion
from repro.lastmile.base import AccessKind
from repro.measure.latency import (
    congestion_cycle_multiplier,
    icmp_penalty_probability_for,
    sample_hop_rtt_block,
    sample_path_rtt_block,
)
from repro.measure.path import HOME_ROUTER_ADDRESS
from repro.measure.results import (
    PROTOCOL_CODES,
    PingBlock,
    Protocol,
    TraceBlock,
)
from repro.platforms.probe import Probe

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.measure.engine import MeasurementEngine


@dataclass(frozen=True)
class PingRequest:
    """One planned ping request: ``samples`` RTT draws probe -> region."""

    probe: Probe
    region: CloudRegion
    protocol: Protocol = Protocol.TCP
    samples: int = 4
    day: int = 0


@dataclass(frozen=True)
class TraceRequest:
    """One planned traceroute request probe -> region."""

    probe: Probe
    region: CloudRegion
    protocol: Protocol = Protocol.ICMP
    day: int = 0


def execute_ping_batch(
    engine: "MeasurementEngine",
    requests: Sequence[PingRequest],
    rng: Optional[np.random.Generator] = None,
) -> PingBlock:
    """Execute a request batch in one vectorized pass.

    Phase 1 walks the request list once in Python: paths are planned (the
    planner caches per pair), per-path noise parameters and per-probe
    last-mile parameters are interned, and probe/region code columns are
    built.  Phase 2 is pure array math over every sample of every
    request.

    ``rng`` overrides the engine's measurement stream -- checkpointed
    campaigns pass a per-unit generator so a unit's draws are independent
    of every other unit's.
    """
    n = len(requests)
    config = engine.config
    if rng is None:
        rng = engine.rng
    if n == 0:
        return PingBlock(
            probes=[],
            regions=[],
            probe_codes=np.empty(0, np.int32),
            region_codes=np.empty(0, np.int32),
            days=np.empty(0, np.int32),
            protocol_codes=np.empty(0, np.uint8),
            sample_values=np.empty(0, np.float64),
            sample_offsets=np.zeros(1, np.int64),
        )

    # Plan every pair in one vectorized pass; the loop below reuses the
    # returned paths directly instead of re-probing the planner cache.
    paths = engine.planner.plan_many(
        [(request.probe, request.region) for request in requests]
    )

    probes: List[Probe] = []
    probe_codes_by_id: Dict[str, int] = {}
    regions: List[CloudRegion] = []
    region_codes_by_key: Dict[Tuple[str, str], int] = {}
    #: Per-probe last-mile parameters, interned by probe code.
    lastmile_params: Dict[int, Tuple[float, float, float, float, float, float]] = {}
    #: Per-(continent,) ICMP penalty probability and per-day congestion
    #: cycle multiplier.
    icmp_probability: Dict[object, float] = {}
    cycle_multiplier: Dict[int, float] = {}
    #: Noise-parameter rows (10 floats), interned per distinct
    #: (probe, region, protocol, day) combination -- a batch of many
    #: requests over few paths pays the parameter lookups only once.
    rows: List[Tuple[float, ...]] = []
    row_by_key: Dict[Tuple[int, int, int, int], int] = {}

    probe_code_list: List[int] = []
    region_code_list: List[int] = []
    day_list: List[int] = []
    proto_list: List[int] = []
    count_list: List[int] = []
    row_code_list: List[int] = []

    # Validation plus dict-based code interning -- inherently sequential
    # (first-seen order defines the codes the RNG draws depend on).
    for i, request in enumerate(requests):  # repro-lint: disable=PERF001
        if request.samples < 1:
            raise ValueError(f"samples must be >= 1, got {request.samples}")
        probe = request.probe
        region = request.region
        probe_code = probe_codes_by_id.get(probe.probe_id)
        if probe_code is None:
            probe_code = len(probes)
            probes.append(probe)
            probe_codes_by_id[probe.probe_id] = probe_code
            lastmile_params[probe_code] = engine.lastmile_model(probe).batch_params()
        region_key = (region.provider_code, region.region_id)
        region_code = region_codes_by_key.get(region_key)
        if region_code is None:
            region_code = len(regions)
            regions.append(region)
            region_codes_by_key[region_key] = region_code

        proto_code = PROTOCOL_CODES[request.protocol]
        day = request.day
        key = (probe_code, region_code, proto_code, day)
        row_code = row_by_key.get(key)
        if row_code is None:
            path = paths[i]
            multiplier = cycle_multiplier.get(day)
            if multiplier is None:
                multiplier = congestion_cycle_multiplier(day, config)
                cycle_multiplier[day] = multiplier
            if request.protocol is Protocol.ICMP:
                penalty = icmp_probability.get(probe.continent)
                if penalty is None:
                    penalty = icmp_penalty_probability_for(
                        probe.continent, config
                    )
                    icmp_probability[probe.continent] = penalty
            else:
                penalty = 0.0
            row_code = len(rows)
            rows.append(
                (
                    path.base_path_rtt_ms,
                    path.jitter_sigma,
                    path.congestion_probability * multiplier,
                    penalty,
                )
                + lastmile_params[probe_code]
            )
            row_by_key[key] = row_code

        probe_code_list.append(probe_code)
        region_code_list.append(region_code)
        day_list.append(day)
        proto_list.append(proto_code)
        count_list.append(request.samples)
        row_code_list.append(row_code)

    probe_codes = np.array(probe_code_list, np.int32)
    region_codes = np.array(region_code_list, np.int32)
    days = np.array(day_list, np.int32)
    protocol_codes = np.array(proto_list, np.uint8)
    counts = np.array(count_list, np.int64)
    per_request = np.array(rows, np.float64)[row_code_list]
    base = per_request[:, 0]
    sigma = per_request[:, 1]
    congestion_p = per_request[:, 2]
    icmp_p = per_request[:, 3]
    air_median = per_request[:, 4]
    air_sigma = per_request[:, 5]
    wire_median = per_request[:, 6]
    wire_sigma = per_request[:, 7]
    bloat_p = per_request[:, 8]
    bloat_x = per_request[:, 9]

    # -- phase 2: one vectorized pass over every sample --------------------
    offsets = np.zeros(n + 1, np.int64)
    np.cumsum(counts, out=offsets[1:])
    sample_of = np.repeat(np.arange(n), counts)

    core = sample_path_rtt_block(
        base[sample_of],
        sigma[sample_of],
        congestion_p[sample_of],
        protocol_codes[sample_of] == PROTOCOL_CODES[Protocol.ICMP],
        icmp_p[sample_of],
        config,
        rng,
    )

    m = sample_of.shape[0]
    z_air = rng.standard_normal(m)
    u_bloat = rng.random(m)
    z_wire = rng.standard_normal(m)
    air_median_s = air_median[sample_of]
    air = np.where(
        air_median_s > 0.0,
        air_median_s * np.exp(air_sigma[sample_of] * z_air),
        0.0,
    )
    air = np.where(u_bloat < bloat_p[sample_of], air * bloat_x[sample_of], air)
    wire_median_s = wire_median[sample_of]
    wire = np.where(
        wire_median_s > 0.0,
        wire_median_s * np.exp(wire_sigma[sample_of] * z_wire),
        0.0,
    )

    return PingBlock(
        probes=probes,
        regions=regions,
        probe_codes=probe_codes,
        region_codes=region_codes,
        days=days,
        protocol_codes=protocol_codes,
        sample_values=np.round(air + wire + core, 3),
        sample_offsets=offsets,
    )


def execute_traceroute_batch(
    engine: "MeasurementEngine",
    requests: Sequence["TraceRequest"],
    rng: Optional[np.random.Generator] = None,
) -> TraceBlock:
    """Execute a traceroute batch in one vectorized pass.

    Phase 1 walks the request list once: paths are planned (cached),
    probe/region codes are interned in first-seen order, the per-trace
    last-mile is drawn, and home probes behind a NAT router are marked
    for their private first hop.  Phase 2 samples jitter / congestion /
    ICMP penalty / control-plane processing for *every hop of every
    trace* as flat arrays, silences unresponsive hops in place, and
    inserts the router hops at their traces' hop offsets -- the result
    is the columnar :class:`TraceBlock`, with no per-trace record built.

    Draw order (fixed): access-switch uniforms, air / bufferbloat / wire
    noise, the router exponential (one each per trace), the per-hop core
    RTTs of :func:`sample_hop_rtt_block`, then one unresponsive uniform
    per planned hop.  ``rng`` overrides the engine's measurement stream
    (see :func:`execute_ping_batch`).
    """
    n = len(requests)
    if n == 0:
        return TraceBlock(
            probes=[],
            regions=[],
            probe_codes=np.empty(0, np.int32),
            region_codes=np.empty(0, np.int32),
            days=np.empty(0, np.int32),
            protocol_codes=np.empty(0, np.uint8),
            source_addresses=np.empty(0, np.int64),
            dest_addresses=np.empty(0, np.int64),
            hop_offsets=np.zeros(1, np.int64),
            hop_addresses=np.empty(0, np.int64),
            hop_rtts=np.empty(0, np.float64),
        )
    config = engine.config
    if rng is None:
        rng = engine.rng
    unresponsive_p = config.path_model.hop_unresponsive_probability

    # Plan (or fetch) every trace's path first so the planner's own RNG
    # draws stay grouped ahead of the measurement draws below.
    paths = engine.planner.plan_many(
        [(request.probe, request.region) for request in requests]
    )
    probes: List[Probe] = []
    probe_codes_by_id: Dict[str, int] = {}
    regions: List[CloudRegion] = []
    region_codes_by_key: Dict[Tuple[str, str], int] = {}
    icmp_probability: Dict[object, float] = {}
    cycle_multiplier: Dict[int, float] = {}
    lastmile_rows: List[Tuple[float, ...]] = []
    probe_code_list: List[int] = []
    region_code_list: List[int] = []
    day_list: List[int] = []
    proto_list: List[int] = []
    source_list: List[int] = []
    dest_list: List[int] = []
    count_list: List[int] = []
    routed_list: List[bool] = []
    sigma_list: List[float] = []
    congestion_list: List[float] = []
    icmp_p_list: List[float] = []

    # One array draw decides every trace's access switch: a wireless
    # probe measures over the other medium (WiFi <-> cellular) when its
    # draw falls below the access-switch probability, which flips the
    # traceroute's first-hop signature (a section-5 caveat); wired
    # probes never switch.
    switch_p = config.last_mile.access_switch_probability
    access_draws = rng.random(n).tolist()
    # Per-request access resolution and code interning branch on probe
    # state; the draws they consume are already a single array pull.
    for i, request in enumerate(requests):  # repro-lint: disable=PERF001
        probe = request.probe
        region = request.region
        path = paths[i]
        access = probe.access
        if access.is_wireless and access_draws[i] < switch_p:
            access = (
                AccessKind.CELLULAR
                if access is AccessKind.HOME_WIFI
                else AccessKind.HOME_WIFI
            )
        lastmile_rows.append(
            engine.lastmile_model(probe, access).batch_params()
        )
        # Hop 1 is the home router, reached over the WiFi air segment,
        # for a probe measuring over WiFi from behind a NAT.
        routed_list.append(
            access is AccessKind.HOME_WIFI
            and (
                probe.access is not AccessKind.HOME_WIFI
                or probe.device_address != probe.public_address
            )
        )

        probe_code = probe_codes_by_id.get(probe.probe_id)
        if probe_code is None:
            probe_code = len(probes)
            probes.append(probe)
            probe_codes_by_id[probe.probe_id] = probe_code
        region_key = (region.provider_code, region.region_id)
        region_code = region_codes_by_key.get(region_key)
        if region_code is None:
            region_code = len(regions)
            regions.append(region)
            region_codes_by_key[region_key] = region_code
        probe_code_list.append(probe_code)
        region_code_list.append(region_code)

        day = request.day
        multiplier = cycle_multiplier.get(day)
        if multiplier is None:
            multiplier = congestion_cycle_multiplier(day, config)
            cycle_multiplier[day] = multiplier
        if request.protocol is Protocol.ICMP:
            penalty = icmp_probability.get(probe.continent)
            if penalty is None:
                penalty = icmp_penalty_probability_for(probe.continent, config)
                icmp_probability[probe.continent] = penalty
        else:
            penalty = 0.0
        day_list.append(day)
        proto_list.append(PROTOCOL_CODES[request.protocol])
        source_list.append(probe.device_address)
        dest_list.append(path.dest_address)
        count_list.append(path.hop_count)
        sigma_list.append(path.jitter_sigma)
        congestion_list.append(path.congestion_probability * multiplier)
        icmp_p_list.append(penalty)

    protocol_codes = np.array(proto_list, np.uint8)
    dest_addresses = np.array(dest_list, np.int64)
    counts = np.array(count_list, np.int64)
    routed = np.array(routed_list, bool)

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
    router_rtts = np.round(air + rng.exponential(0.3, n), 3)

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
        np.array(sigma_list, np.float64)[hop_of],
        np.array(congestion_list, np.float64)[hop_of],
        (protocol_codes == PROTOCOL_CODES[Protocol.ICMP])[hop_of],
        np.array(icmp_p_list, np.float64)[hop_of],
        config,
        rng,
    )
    rtts = np.round(lastmile_total[hop_of] + hop_core, 3)
    planned = np.fromiter(
        (address for path in paths for address in path.hop_addresses),
        np.int64,
        count=total,
    )
    # An unresponsive hop keeps its slot, encoded in-band; the
    # destination always answers.
    silenced = (rng.random(total) < unresponsive_p) & (
        planned != dest_addresses[hop_of]
    )
    hop_addresses = np.where(silenced, TraceBlock.NO_ADDRESS, planned)
    hop_rtts = np.where(silenced, np.nan, rtts)

    # Router hops go in front of their trace's planned hops: one
    # insertion at each routed trace's planned-hop offset.
    planned_offsets = np.zeros(n + 1, np.int64)
    np.cumsum(counts, out=planned_offsets[1:])
    router_at = planned_offsets[:-1][routed]
    hop_offsets = planned_offsets
    if len(router_at):
        hop_addresses = np.insert(hop_addresses, router_at, HOME_ROUTER_ADDRESS)
        hop_rtts = np.insert(hop_rtts, router_at, router_rtts[routed])
        hop_offsets = np.zeros(n + 1, np.int64)
        np.cumsum(counts + routed, out=hop_offsets[1:])

    return TraceBlock(
        probes=probes,
        regions=regions,
        probe_codes=np.array(probe_code_list, np.int32),
        region_codes=np.array(region_code_list, np.int32),
        days=np.array(day_list, np.int32),
        protocol_codes=protocol_codes,
        source_addresses=np.array(source_list, np.int64),
        dest_addresses=dest_addresses,
        hop_offsets=hop_offsets,
        hop_addresses=hop_addresses,
        hop_rtts=hop_rtts,
    )
