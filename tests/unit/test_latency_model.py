"""Statistical tests for the latency sampling model (repro.measure.latency)."""

import numpy as np
import pytest

from repro.core.config import SimulationConfig
from repro.geo.continents import Continent
from repro.measure.latency import (
    congestion_cycle_multiplier,
    icmp_penalty_probability_for,
    sample_hop_rtt_block,
    sample_path_rtt_block,
)
from repro.measure.results import Protocol


def path_arrays(
    config,
    n,
    base_rtt=50.0,
    sigma=0.1,
    congestion=0.0,
    protocol=Protocol.TCP,
    continent=Continent.EU,
):
    """Per-sample parameter arrays for ``n`` day-0 draws over one path."""
    return (
        np.full(n, base_rtt),
        np.full(n, sigma),
        np.full(n, congestion * congestion_cycle_multiplier(0, config)),
        np.full(n, protocol is Protocol.ICMP),
        np.full(n, icmp_penalty_probability_for(continent, config)),
    )


def path_rtts(config, rng, n, **path):
    return sample_path_rtt_block(*path_arrays(config, n, **path), config, rng)


def hop_rtts(config, rng, n, base_rtt, **path):
    return sample_hop_rtt_block(
        *path_arrays(config, n, base_rtt=base_rtt, **path), config, rng
    )


@pytest.fixture
def config():
    return SimulationConfig()


class TestSamplePathRtt:
    def test_median_tracks_base(self, config, rng):
        draws = path_rtts(config, rng, 3000, base_rtt=80.0, sigma=0.05)
        assert np.median(draws) == pytest.approx(80.0, rel=0.05)

    def test_zero_sigma_zero_congestion_is_deterministic(self, config, rng):
        draws = path_rtts(config, rng, 50, base_rtt=50.0, sigma=0.0)
        assert set(np.round(draws, 6).tolist()) == {50.0}

    def test_higher_sigma_wider_spread(self, config, rng):
        tight_draws = path_rtts(config, rng, 2000, sigma=0.03)
        wide_draws = path_rtts(config, rng, 2000, sigma=0.3)
        assert wide_draws.std() > 3 * tight_draws.std()

    def test_congestion_fattens_the_tail(self, config, rng):
        calm_draws = path_rtts(config, rng, 3000, sigma=0.05, congestion=0.0)
        hot_draws = path_rtts(config, rng, 3000, sigma=0.05, congestion=0.3)
        assert np.percentile(hot_draws, 95) > np.percentile(calm_draws, 95) * 1.15

    def test_icmp_slightly_inflated(self, config, rng):
        tcp = np.mean(path_rtts(config, rng, 4000, sigma=0.0))
        icmp = np.mean(
            path_rtts(config, rng, 4000, sigma=0.0, protocol=Protocol.ICMP)
        )
        assert 1.005 < icmp / tcp < 1.08  # paper: within a few percent

    def test_icmp_penalty_stronger_in_africa(self, config, rng):
        eu = np.mean(
            path_rtts(config, rng, 6000, sigma=0.0, protocol=Protocol.ICMP)
        )
        af = np.mean(
            path_rtts(
                config,
                rng,
                6000,
                sigma=0.0,
                protocol=Protocol.ICMP,
                continent=Continent.AF,
            )
        )
        assert af > eu


class TestSampleHopRtt:
    def test_includes_control_plane_overhead(self, config, rng):
        draws = hop_rtts(config, rng, 2000, 20.0, sigma=0.0)
        assert min(draws) >= 20.0
        assert np.mean(draws) > 20.2  # exponential(0.4) on top

    def test_scales_with_base(self, config, rng):
        near = np.mean(hop_rtts(config, rng, 1000, 10.0, sigma=0.0))
        far = np.mean(hop_rtts(config, rng, 1000, 60.0, sigma=0.0))
        assert far > near + 45.0
