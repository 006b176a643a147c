"""Tests for the vectorized batch measurement engine.

The batch path must be (a) deterministic under a fixed seed, and
(b) distributionally equivalent to the per-sample scalar reference in
``tests/oracles/latency.py`` -- same lognormal jitter, congestion
mixture, ICMP penalty process and last-mile noise, just drawn as whole
arrays.  Equivalence is bounded with a two-sample Kolmogorov-Smirnov
distance; determinism is byte-exact.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from oracles import latency as scalar_oracle

from repro import build_world
from repro.analysis.stats import ks_distance
from repro.core.config import SimulationConfig
from repro.geo.continents import Continent
from repro.measure.io import load_dataset, save_dataset
from repro.measure.latency import icmp_penalty_probability_for, sample_hop_rtt_block
from repro.measure.requests import (
    PingRequest,
    PingRequests,
    TraceRequest,
    TraceRequests,
)
from repro.measure.results import MeasurementDataset, Protocol

SEED = 99
SCALE = 0.006

#: Two-sample KS bound for equivalent distributions at the sample sizes
#: below (critical value at alpha=0.001 is ~1.95 * sqrt(2/n) ~= 0.05;
#: the bound leaves headroom so the test is not flaky across platforms).
KS_BOUND = 0.07
BATCH_SAMPLES = 3000
SCALAR_REQUESTS = 750
SCALAR_SAMPLES = 4


@pytest.fixture(scope="module")
def world():
    return build_world(seed=SEED, scale=SCALE)


@pytest.fixture(scope="module")
def scalar_world():
    """A second same-seed world whose engine the scalar reference draws from."""
    return build_world(seed=SEED, scale=SCALE)


def probes_by_continent(world, limit=3):
    """One probe per continent, up to ``limit`` continents."""
    chosen = {}
    for probe in world.speedchecker.probes:
        if probe.continent not in chosen:
            chosen[probe.continent] = probe
        if len(chosen) >= limit:
            break
    return chosen


class TestBatchScalarEquivalence:
    @pytest.mark.parametrize("protocol", [Protocol.TCP, Protocol.ICMP])
    def test_ping_ks_distance_per_continent(
        self, world, scalar_world, protocol
    ):
        """Batch and scalar RTT distributions agree per source continent."""
        region = next(iter(world.catalog))
        batch_probes = probes_by_continent(world)
        scalar_probes = probes_by_continent(scalar_world)
        assert batch_probes, "world has no probes"
        for continent, probe in batch_probes.items():
            block = world.engine.ping_batch(
                PingRequests.from_records([
                    PingRequest(
                        probe=probe,
                        region=region,
                        protocol=protocol,
                        samples=BATCH_SAMPLES,
                        day=0,
                    )
                ])
            )
            batch = np.asarray(block.sample_values)
            scalar_probe = scalar_probes[continent]
            scalar = [
                sample
                for _ in range(SCALAR_REQUESTS)
                for sample in scalar_oracle.ping(
                    scalar_world.engine,
                    scalar_probe,
                    region,
                    protocol=protocol,
                    samples=SCALAR_SAMPLES,
                    day=0,
                ).samples
            ]
            distance = ks_distance(batch, scalar)
            assert distance < KS_BOUND, (
                f"{continent}: KS {distance:.4f} >= {KS_BOUND}"
            )

    @pytest.mark.parametrize("protocol", [Protocol.TCP, Protocol.ICMP])
    def test_hop_rtt_ks_distance(self, protocol):
        """Batch and scalar per-hop RTT distributions agree.

        Jitter and congestion are off, so the router's processing term --
        the part of the hop process the ping test never draws -- sets the
        spread.
        """
        config = SimulationConfig()
        base_rtt = 20.0
        penalty = icmp_penalty_probability_for(Continent.EU, config)
        n = BATCH_SAMPLES
        batch = sample_hop_rtt_block(
            np.full(n, base_rtt),
            np.zeros(n),
            np.zeros(n),
            np.full(n, protocol is Protocol.ICMP),
            np.full(n, penalty),
            config,
            np.random.default_rng(SEED),
        )
        quiet_path = SimpleNamespace(jitter_sigma=0.0, congestion_probability=0.0)
        rng = np.random.default_rng(SEED + 1)
        scalar = [
            scalar_oracle.sample_hop_rtt(
                base_rtt, quiet_path, protocol, Continent.EU, config, rng
            )
            for _ in range(SCALAR_REQUESTS * SCALAR_SAMPLES)
        ]
        distance = ks_distance(batch, scalar)
        assert distance < KS_BOUND, f"KS {distance:.4f} >= {KS_BOUND}"

    def test_traceroute_batch_matches_planned_path(self, world):
        """Batch traceroutes walk the planned hop sequence to the dest."""
        region = next(iter(world.catalog))
        probe = world.speedchecker.probes[0]
        traces = world.engine.traceroute_batch(
            TraceRequests.from_records([
                TraceRequest(
                    probe=probe, region=region, protocol=Protocol.ICMP, day=0
                )
                for _ in range(20)
            ])
        )
        path = world.engine.planned_path(probe, region)
        assert len(traces) == 20
        for trace in traces.records():
            assert trace.protocol is Protocol.ICMP
            assert trace.dest_address == path.dest_address
            # Responsive hops carry the planned addresses in order; the
            # optional NAT-router first hop rides in front.
            planned = list(path.hop_addresses)
            observed = list(trace.hops)
            if len(observed) == len(planned) + 1:
                observed = observed[1:]
            assert len(observed) == len(planned)
            for hop, address in zip(observed, planned):
                if hop.responded:
                    assert hop.address == address
                    assert hop.rtt_ms > 0.0
            assert trace.reached
            assert trace.end_to_end_rtt_ms is not None


class TestBatchDeterminism:
    def requests_for(self, world):
        regions = list(world.catalog)[:3]
        probes = world.speedchecker.probes[:5]
        return [
            PingRequest(
                probe=probe,
                region=region,
                protocol=protocol,
                samples=4,
                day=day,
            )
            for day, probe in enumerate(probes)
            for region in regions
            for protocol in (Protocol.TCP, Protocol.ICMP)
        ]

    def test_same_seed_same_block(self):
        blocks = []
        for _ in range(2):
            world = build_world(seed=SEED, scale=SCALE)
            requests = PingRequests.from_records(self.requests_for(world))
            blocks.append(world.engine.ping_batch(requests))
        first, second = blocks
        assert np.array_equal(first.sample_values, second.sample_values)
        assert np.array_equal(first.sample_offsets, second.sample_offsets)
        assert np.array_equal(first.protocol_codes, second.protocol_codes)
        assert np.array_equal(first.days, second.days)

    def test_batch_order_preserved(self, world):
        """Row i of the block is request i, whatever the path grouping."""
        requests = self.requests_for(world)
        block = world.engine.ping_batch(PingRequests.from_records(requests))
        assert len(block) == len(requests)
        for i, request in enumerate(requests):
            record = block.record(i)
            assert record.meta.probe_id == request.probe.probe_id
            assert record.meta.region_id == request.region.region_id
            assert record.protocol is request.protocol
            assert len(record.samples) == request.samples


class TestBatchEdgeCases:
    def test_empty_ping_batch(self, world):
        block = world.engine.ping_batch(PingRequests.from_records([]))
        assert len(block) == 0
        assert block.sample_count == 0
        assert block.records() == []

    def test_empty_traceroute_batch(self, world):
        block = world.engine.traceroute_batch(TraceRequests.from_records([]))
        assert len(block) == 0
        assert block.hop_count == 0
        assert block.records() == []

    def test_rejects_nonpositive_samples(self, world):
        region = next(iter(world.catalog))
        probe = world.speedchecker.probes[0]
        request = PingRequest(
            probe=probe, region=region, protocol=Protocol.TCP, samples=0, day=0
        )
        with pytest.raises(ValueError, match="samples"):
            world.engine.ping_batch(PingRequests.from_records([request]))


class TestBlockBackedDatasetIO:
    def test_roundtrip(self, world, tmp_path):
        region = next(iter(world.catalog))
        requests = [
            PingRequest(
                probe=probe,
                region=region,
                protocol=Protocol.TCP,
                samples=4,
                day=0,
            )
            for probe in world.speedchecker.probes[:4]
        ]
        dataset = MeasurementDataset()
        dataset.add_ping_block(
            world.engine.ping_batch(PingRequests.from_records(requests))
        )
        dataset.add_trace_block(
            world.engine.traceroute_batch(
                TraceRequests.from_records([
                    TraceRequest(
                        probe=requests[0].probe,
                        region=region,
                        protocol=Protocol.ICMP,
                        day=0,
                    )
                ])
            )
        )

        path = tmp_path / "block_backed.jsonl"
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        assert loaded.ping_count == dataset.ping_count
        assert loaded.traceroute_count == dataset.traceroute_count
        original = list(dataset.pings())
        restored = list(loaded.pings())
        assert [p.samples for p in restored] == [p.samples for p in original]
        assert [p.meta for p in restored] == [p.meta for p in original]
        assert list(loaded.traceroutes()) == list(dataset.traceroutes())
