"""The vectorized measurement path: every ping and traceroute batch.

A request block (:mod:`repro.measure.requests`) is planned into the
planner's :class:`~repro.measure.path.PathTable`, its path parameters
are gathered from the table by row, and *all* jitter / congestion /
ICMP-penalty / last-mile noise for every sample of every request is
drawn as a handful of NumPy arrays, never one generator call per
sample.

The results are columnar: a :class:`~repro.measure.results.PingBlock`
per ping batch and a :class:`~repro.measure.results.TraceBlock` per
traceroute batch, each with the probe and region tables and the code,
day and protocol columns of its request block.  No per-request object
is allocated between the scheduler and the dataset or the store; the
analyses group the block columns (:func:`~repro.measure.results.dataset_pings`,
:func:`~repro.resolve.pipeline.resolve_dataset`).

Determinism: the draw order inside a batch is fixed (core-path arrays
first, then last-mile arrays -- see
:func:`repro.measure.latency.sample_path_rtt_block`,
:func:`repro.lastmile.base.sample_lastmile_block` and
:func:`execute_traceroute_batch`), so the same seed and the same request
block always produce an identical block.  The KS-equivalence tests in
``tests/unit/test_batch.py`` check the batch distributions against a
per-sample scalar reference sampler (``tests/oracles/latency.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.lastmile.base import AccessKind, sample_lastmile_block
from repro.measure.latency import (
    congestion_cycle_multiplier,
    icmp_penalty_probability_for,
    sample_hop_rtt_block,
    sample_path_rtt_block,
)
from repro.measure.path import HOME_ROUTER_ADDRESS
from repro.measure.requests import PingRequests, TraceRequests
from repro.measure.results import (
    PROTOCOL_CODES,
    PingBlock,
    Protocol,
    TraceBlock,
)
from repro.platforms.probe import Probe

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import SimulationConfig
    from repro.measure.engine import MeasurementEngine


def _day_multipliers(days: np.ndarray, config: "SimulationConfig") -> np.ndarray:
    """The weekly congestion-cycle multiplier of every request's day."""
    unique, inverse = np.unique(days, return_inverse=True)
    return np.array(
        [congestion_cycle_multiplier(day, config) for day in unique.tolist()]
    )[inverse]


def _icmp_penalties(
    probes: Sequence[Probe], config: "SimulationConfig"
) -> np.ndarray:
    """The ICMP penalty probability of every probe's continent."""
    by_continent = {
        continent: icmp_penalty_probability_for(continent, config)
        for continent in dict.fromkeys(probe.continent for probe in probes)
    }
    return np.array([by_continent[probe.continent] for probe in probes])


def execute_ping_batch(
    engine: "MeasurementEngine",
    requests: PingRequests,
    rng: Optional[np.random.Generator] = None,
) -> PingBlock:
    """Execute a request batch in one vectorized pass.

    Phase 1 plans every pair into the planner's
    :class:`~repro.measure.path.PathTable` (cached per pair); the
    per-request path parameters are gathered from the table by row, the
    last-mile parameters and ICMP penalties per probe of the block's
    probe table.  Phase 2 is pure array math over every sample of every
    request.  The block keeps the request block's tables and columns.

    ``rng`` overrides the engine's measurement stream -- checkpointed
    campaigns pass a per-unit generator so a unit's draws are independent
    of every other unit's.
    """
    n = len(requests)
    config = engine.config
    if rng is None:
        rng = engine.rng
    if n == 0:
        return PingBlock.concatenate([])
    counts = requests.samples
    if counts.min() < 1:
        raise ValueError(f"samples must be >= 1, got {counts[counts < 1][0]}")

    planner = engine.planner
    rows = np.array(planner.plan_many(requests), np.int64)
    probes = requests.probes
    probe_codes = requests.probe_codes
    days = requests.days
    protocol_codes = requests.protocol_codes
    icmp = protocol_codes == PROTOCOL_CODES[Protocol.ICMP]
    table = planner.table
    base = table.base_rtt[rows]
    sigma = table.sigma[rows]
    congestion_p = table.congestion[rows] * _day_multipliers(days, config)
    icmp_p = np.where(icmp, _icmp_penalties(probes, config)[probe_codes], 0.0)
    lastmile = np.array(
        [engine.lastmile_model(probe).batch_params() for probe in probes],
        np.float64,
    )[probe_codes]

    # -- phase 2: one vectorized pass over every sample --------------------
    offsets = np.zeros(n + 1, np.int64)
    np.cumsum(counts, out=offsets[1:])
    sample_of = np.repeat(np.arange(n), counts)

    core = sample_path_rtt_block(
        base[sample_of],
        sigma[sample_of],
        congestion_p[sample_of],
        icmp[sample_of],
        icmp_p[sample_of],
        config,
        rng,
    )

    air, wire = sample_lastmile_block(lastmile[sample_of], rng)

    return PingBlock(
        probes=probes,
        regions=requests.regions,
        probe_codes=probe_codes,
        region_codes=requests.region_codes,
        days=days,
        protocol_codes=protocol_codes,
        sample_values=np.round(air + wire + core, 3),
        sample_offsets=offsets,
    )


def execute_traceroute_batch(
    engine: "MeasurementEngine",
    requests: TraceRequests,
    rng: Optional[np.random.Generator] = None,
) -> TraceBlock:
    """Execute a traceroute batch in one vectorized pass.

    Phase 1 plans every pair into the planner's
    :class:`~repro.measure.path.PathTable` (cached per pair), draws the
    per-trace last mile, and marks home probes behind a NAT router for
    their private first hop, from per-probe columns of the request
    block's probe table.  Phase 2 gathers every trace's planned hops
    from the table by row, samples jitter / congestion / ICMP penalty /
    control-plane processing for *every hop of every trace* as flat
    arrays, silences unresponsive hops in place, and inserts the router
    hops at their traces' hop offsets -- the result is the columnar
    :class:`TraceBlock`, with no per-trace record built.

    Draw order (fixed): access-switch uniforms, air / bufferbloat / wire
    noise, the router exponential (one each per trace), the per-hop core
    RTTs of :func:`sample_hop_rtt_block`, then one unresponsive uniform
    per planned hop.  ``rng`` overrides the engine's measurement stream
    (see :func:`execute_ping_batch`).
    """
    n = len(requests)
    if n == 0:
        return TraceBlock.concatenate([])
    config = engine.config
    if rng is None:
        rng = engine.rng
    unresponsive_p = config.path_model.hop_unresponsive_probability

    # Plan (or fetch) every trace's path first so the planner's own RNG
    # draws stay grouped ahead of the measurement draws below.
    planner = engine.planner
    rows = np.array(planner.plan_many(requests), np.int64)
    probes = requests.probes
    probe_codes = requests.probe_codes

    # One array draw decides every trace's access switch: a wireless
    # probe measures over the other medium (WiFi <-> cellular) when its
    # draw falls below the access-switch probability, which flips the
    # traceroute's first-hop signature (a section-5 caveat); wired
    # probes never switch.
    wifi = np.array([probe.access is AccessKind.HOME_WIFI for probe in probes])
    cellular = np.array([probe.access is AccessKind.CELLULAR for probe in probes])
    switch_p = config.last_mile.access_switch_probability
    switched = (wifi | cellular)[probe_codes] & (rng.random(n) < switch_p)
    lastmile = np.array(
        [engine.lastmile_model(probe).batch_params() for probe in probes],
        np.float64,
    )
    flipped = lastmile.copy()
    for code in np.unique(probe_codes[switched]).tolist():
        probe = probes[code]
        other = AccessKind.CELLULAR if wifi[code] else AccessKind.HOME_WIFI
        flipped[code] = engine.lastmile_model(probe, other).batch_params()
    lastmile_rows = np.where(
        switched[:, None], flipped[probe_codes], lastmile[probe_codes]
    )
    # Hop 1 is the home router, reached over the WiFi air segment, for a
    # probe measuring over WiFi from behind a NAT; a cellular probe that
    # switched to WiFi always is.
    nat = np.array(
        [probe.device_address != probe.public_address for probe in probes], bool
    )
    routed = ((wifi & nat)[probe_codes] & ~switched) | (
        cellular[probe_codes] & switched
    )

    days = requests.days
    protocol_codes = requests.protocol_codes
    icmp = protocol_codes == PROTOCOL_CODES[Protocol.ICMP]
    table = planner.table
    dest_addresses = table.dest[rows]
    counts = table.hop_count[rows].astype(np.int64)
    sigma = table.sigma[rows]
    congestion_p = table.congestion[rows] * _day_multipliers(days, config)
    icmp_p = np.where(icmp, _icmp_penalties(probes, config)[probe_codes], 0.0)

    # One last-mile draw per trace, all traces at once.
    air, wire = sample_lastmile_block(lastmile_rows, rng)
    lastmile_total = air + wire
    # Hop-1 home-router RTT for probes measuring from behind a NAT: the
    # WiFi air segment plus the router's own processing.
    router_rtts = np.round(air + rng.exponential(0.3, n), 3)

    # -- phase 2: one vectorized pass over every hop of every trace ---------
    planned_offsets = np.zeros(n + 1, np.int64)
    np.cumsum(counts, out=planned_offsets[1:])
    total = int(planned_offsets[-1])
    hop_of = np.repeat(np.arange(n), counts)
    # Each trace's planned hops, gathered from its row's hop range.
    planned_hops = (
        np.arange(total) + (table.hop_start[rows] - planned_offsets[:-1])[hop_of]
    )
    hop_core = sample_hop_rtt_block(
        table.hop_rtt[planned_hops],
        sigma[hop_of],
        congestion_p[hop_of],
        icmp[hop_of],
        icmp_p[hop_of],
        config,
        rng,
    )
    rtts = np.round(lastmile_total[hop_of] + hop_core, 3)
    planned = table.hop_address[planned_hops]
    # An unresponsive hop keeps its slot, encoded in-band; the
    # destination always answers.
    silenced = (rng.random(total) < unresponsive_p) & (
        planned != dest_addresses[hop_of]
    )
    hop_addresses = np.where(silenced, TraceBlock.NO_ADDRESS, planned)
    hop_rtts = np.where(silenced, np.nan, rtts)

    # Router hops go in front of their trace's planned hops: one
    # insertion at each routed trace's planned-hop offset.
    router_at = planned_offsets[:-1][routed]
    hop_offsets = planned_offsets
    if len(router_at):
        hop_addresses = np.insert(hop_addresses, router_at, HOME_ROUTER_ADDRESS)
        hop_rtts = np.insert(hop_rtts, router_at, router_rtts[routed])
        hop_offsets = np.zeros(n + 1, np.int64)
        np.cumsum(counts + routed, out=hop_offsets[1:])

    return TraceBlock(
        probes=probes,
        regions=requests.regions,
        probe_codes=probe_codes,
        region_codes=requests.region_codes,
        days=days,
        protocol_codes=protocol_codes,
        source_addresses=np.array(
            [probe.device_address for probe in probes], np.int64
        )[probe_codes],
        dest_addresses=dest_addresses,
        hop_offsets=hop_offsets,
        hop_addresses=hop_addresses,
        hop_rtts=hop_rtts,
    )
