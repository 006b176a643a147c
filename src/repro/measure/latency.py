"""Latency sampling around a planned path.

Separates the three noise processes the paper discusses:

- multiplicative path jitter (queueing along transit; sigma depends on
  interconnect class and distance -- computed at planning time);
- transient congestion episodes on public paths;
- ICMP deprioritisation / load-balancer effects, strongest in Africa
  (paper Fig. 15 and appendix A.2).
"""

from __future__ import annotations

import numpy as np

from repro.core.config import SimulationConfig
from repro.geo.continents import Continent


def congestion_cycle_multiplier(day: int, config: SimulationConfig) -> float:
    """Weekly congestion cycle: weekday rush vs quieter weekends."""
    path_config = config.path_model
    if day % 7 in (5, 6):
        return path_config.weekend_congestion_multiplier
    return path_config.weekday_congestion_multiplier


def sample_path_rtt_block(
    base_rtt_ms: np.ndarray,
    jitter_sigma: np.ndarray,
    congestion_probability: np.ndarray,
    icmp_mask: np.ndarray,
    icmp_penalty_probability: np.ndarray,
    config: SimulationConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Path-core RTT samples (no last mile), one per entry of the aligned
    per-sample parameter arrays.

    ``congestion_probability`` already includes the weekly cycle
    multiplier (see :func:`congestion_cycle_multiplier`).  Each sample is
    the base RTT times a lognormal jitter, inflated 1.3x-2.5x during a
    congestion episode; ICMP samples also carry the base inflation and,
    with ``icmp_penalty_probability``, the penalty factor.  Draw order is
    fixed -- jitter normals, congestion uniforms, congestion factors, ICMP
    uniforms -- so a given seed always produces the same block.
    """
    path_config = config.path_model
    z_jitter = rng.standard_normal(base_rtt_ms.shape[0])
    u_congestion = rng.random(base_rtt_ms.shape[0])
    u_factor = rng.random(base_rtt_ms.shape[0])
    u_icmp = rng.random(base_rtt_ms.shape[0])

    rtt = base_rtt_ms * np.exp(jitter_sigma * z_jitter)
    congested = u_congestion < congestion_probability
    rtt = np.where(congested, rtt * (1.3 + 1.2 * u_factor), rtt)
    rtt = np.where(icmp_mask, rtt * path_config.icmp_base_inflation, rtt)
    penalized = icmp_mask & (u_icmp < icmp_penalty_probability)
    return np.where(penalized, rtt * path_config.icmp_penalty_factor, rtt)


def sample_hop_rtt_block(
    base_rtt_ms: np.ndarray,
    jitter_sigma: np.ndarray,
    congestion_probability: np.ndarray,
    icmp_mask: np.ndarray,
    icmp_penalty_probability: np.ndarray,
    config: SimulationConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-hop RTT samples of traceroute probe packets, one per entry of
    the aligned per-hop parameter arrays.

    Each hop's probe packet has its own queueing draw, which is why raw
    traceroutes show non-monotone hop RTTs.  A hop sample is a
    :func:`sample_path_rtt_block` sample plus the router's control-plane
    handling of the expiring packet; the draw order (path-block draws
    first, then one exponential array) is fixed so a given seed always
    produces the same block.
    """
    core = sample_path_rtt_block(
        base_rtt_ms,
        jitter_sigma,
        congestion_probability,
        icmp_mask,
        icmp_penalty_probability,
        config,
        rng,
    )
    return core + rng.exponential(0.4, base_rtt_ms.shape[0])


def icmp_penalty_probability_for(
    source_continent: Continent, config: SimulationConfig
) -> float:
    """The per-sample ICMP penalty probability for a source continent."""
    path_config = config.path_model
    probability = path_config.icmp_penalty_probability
    if source_continent is Continent.AF:
        probability *= path_config.icmp_africa_multiplier
    return probability
