"""The vectorized batch measurement fast path.

The scalar engine executes one :meth:`~repro.measure.engine.MeasurementEngine.ping`
at a time, drawing 3-5 random numbers per RTT sample from the generator
one call at a time.  At campaign scale that is millions of scalar RNG
round-trips per simulated day.  This module provides the batched
equivalent: a whole request list is planned, grouped by forwarding path,
and *all* jitter / congestion / ICMP-penalty / last-mile noise for every
sample of every request is drawn as a handful of NumPy arrays.

The result is a columnar :class:`~repro.measure.results.PingBlock` --
no per-request :class:`~repro.measure.results.PingMeasurement` objects
are allocated on the hot path; analysis code materializes the record
view lazily via :meth:`MeasurementDataset.pings`.

Determinism: the draw order inside a batch is fixed (core-path arrays
first, then last-mile arrays -- see
:func:`repro.measure.latency.sample_path_rtt_block`), so the same seed
and the same request list always produce an identical block.  The batch
path is *distributionally* equivalent to the scalar path (same noise
processes, different stream consumption); the KS-equivalence tests in
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
    TraceHop,
    TracerouteMeasurement,
    build_meta,
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
    # draws stay grouped ahead of the measurement draws below.
    paths = engine.planner.plan_many(
        [(request.probe, request.region) for request in requests]
    )
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
    for i, request in enumerate(requests):  # repro-lint: disable=PERF001
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
    for i, (request, path, access) in enumerate(  # repro-lint: disable=PERF001
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
