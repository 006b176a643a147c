"""Per-sample reference for the batch RTT samplers.

This is the measurement engine's scalar path as it ran before every
request went through :mod:`repro.measure.batch`: one ping sample at a
time, one generator call per noise draw.  The batch samplers draw the
same noise processes as whole arrays, so the two agree in distribution,
not bit for bit; ``tests/unit/test_batch.py`` bounds the difference with
two-sample KS distances.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.cloud.regions import CloudRegion
from repro.core.config import SimulationConfig
from repro.geo.continents import Continent
from repro.measure.latency import (
    congestion_cycle_multiplier,
    icmp_penalty_probability_for,
)
from repro.measure.path import PlannedPath
from repro.measure.results import PingMeasurement, Protocol, build_meta
from repro.platforms.probe import Probe

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.measure.engine import MeasurementEngine


def ping(
    engine: "MeasurementEngine",
    probe: Probe,
    region: CloudRegion,
    protocol: Protocol = Protocol.TCP,
    samples: int = 4,
    day: int = 0,
) -> PingMeasurement:
    """One ping request: ``samples`` end-to-end RTT measurements."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    path = engine.planner.plan(probe, region)
    model = engine.lastmile_model(probe)
    rtts = []
    for _ in range(samples):
        last_mile = model.draw(engine.rng)
        core = sample_path_rtt(
            path,
            Protocol(protocol),
            probe.continent,
            engine.config,
            engine.rng,
            day=day,
        )
        rtts.append(round(last_mile.total_ms + core, 3))
    return PingMeasurement(
        meta=build_meta(probe, region, day),
        protocol=Protocol(protocol),
        samples=tuple(rtts),
    )


def sample_path_rtt(
    path: PlannedPath,
    protocol: Protocol,
    source_continent: Continent,
    config: SimulationConfig,
    rng: np.random.Generator,
    day: int = 0,
) -> float:
    """One RTT sample over the path core (excludes the last mile)."""
    rtt = path.base_path_rtt_ms * _jitter(path, rng)
    rtt = _apply_congestion(rtt, path, rng, day, config)
    if protocol is Protocol.ICMP:
        rtt = _apply_icmp_penalty(rtt, source_continent, config, rng)
    return rtt


def sample_hop_rtt(
    base_rtt_ms: float,
    path: PlannedPath,
    protocol: Protocol,
    source_continent: Continent,
    config: SimulationConfig,
    rng: np.random.Generator,
    day: int = 0,
) -> float:
    """One per-hop RTT sample for a traceroute probe packet.

    Each hop's probe packet experiences its own queueing draw, which is
    why raw traceroutes show non-monotone hop RTTs in practice.
    """
    rtt = base_rtt_ms * _jitter(path, rng)
    rtt = _apply_congestion(rtt, path, rng, day, config)
    if protocol is Protocol.ICMP:
        rtt = _apply_icmp_penalty(rtt, source_continent, config, rng)
    # Router control-plane processing of the expiring packet.
    rtt += float(rng.exponential(0.4))
    return rtt


def _jitter(path: PlannedPath, rng: np.random.Generator) -> float:
    return float(np.exp(path.jitter_sigma * rng.standard_normal()))


def _apply_congestion(
    rtt: float,
    path: PlannedPath,
    rng: np.random.Generator,
    day: int,
    config: SimulationConfig,
) -> float:
    probability = path.congestion_probability * congestion_cycle_multiplier(
        day, config
    )
    if rng.random() < probability:
        return rtt * _congestion_factor(rng)
    return rtt


def _congestion_factor(rng: np.random.Generator) -> float:
    # Congestion episodes inflate by 1.3x-2.5x.
    return 1.3 + 1.2 * float(rng.random())


def _apply_icmp_penalty(
    rtt: float,
    source_continent: Continent,
    config: SimulationConfig,
    rng: np.random.Generator,
) -> float:
    path_config = config.path_model
    rtt *= path_config.icmp_base_inflation
    probability = icmp_penalty_probability_for(source_continent, config)
    if rng.random() < probability:
        return rtt * path_config.icmp_penalty_factor
    return rtt
