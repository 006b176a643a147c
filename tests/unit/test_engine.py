"""Tests for repro.measure.engine (ping and traceroute)."""

import pytest

from repro.geo.continents import Continent
from repro.lastmile.base import AccessKind
from repro.measure.path import HOME_ROUTER_ADDRESS
from repro.measure.requests import (
    PingRequest,
    PingRequests,
    TraceRequest,
    TraceRequests,
)
from repro.measure.results import Protocol
from repro.net.ip import is_private_ip


@pytest.fixture(scope="module")
def home_probe(world):
    return next(
        p
        for p in world.speedchecker.probes
        if p.access is AccessKind.HOME_WIFI
        and is_private_ip(p.device_address)
        and p.country == "DE"
    )


@pytest.fixture(scope="module")
def cell_probe(world):
    return next(
        p
        for p in world.speedchecker.probes
        if p.access is AccessKind.CELLULAR and p.country == "DE"
    )


@pytest.fixture(scope="module")
def eu_region(world, home_probe):
    return world.catalog.nearest_region(home_probe.location, continent=Continent.EU)


def ping_one(world, probe, region, **request):
    """One ping request, as a batch of one."""
    block = world.engine.ping_batch(
        PingRequests.from_records([PingRequest(probe=probe, region=region, **request)])
    )
    return block.record(0)


def traceroute_one(world, probe, region):
    """One traceroute request, as a batch of one."""
    block = world.engine.traceroute_batch(
        TraceRequests.from_records([TraceRequest(probe=probe, region=region)])
    )
    return block.record(0)


class TestPing:
    def test_sample_count(self, world, home_probe, eu_region):
        ping = ping_one(world, home_probe, eu_region, samples=6)
        assert len(ping.samples) == 6

    def test_invalid_sample_count(self, world, home_probe, eu_region):
        with pytest.raises(ValueError, match="samples"):
            ping_one(world, home_probe, eu_region, samples=0)

    def test_samples_positive_and_plausible(self, world, home_probe, eu_region):
        ping = ping_one(world, home_probe, eu_region, samples=8)
        for sample in ping.samples:
            assert 1.0 < sample < 2000.0

    def test_rtt_exceeds_base_path(self, world, home_probe, eu_region):
        plan = world.engine.planned_path(home_probe, eu_region)
        ping = ping_one(world, home_probe, eu_region, samples=8)
        # Every sample includes last-mile on top of (jittered) path RTT.
        assert min(ping.samples) > 0.5 * plan.base_path_rtt_ms

    def test_meta_fields(self, world, home_probe, eu_region):
        ping = ping_one(world, home_probe, eu_region, day=5)
        meta = ping.meta
        assert meta.probe_id == home_probe.probe_id
        assert meta.day == 5
        assert meta.provider_code == eu_region.provider_code
        assert meta.region_continent is Continent.EU
        from repro.platforms.probe import city_key_for

        assert meta.city_key == city_key_for(home_probe)

    def test_median_and_min_helpers(self, world, home_probe, eu_region):
        ping = ping_one(world, home_probe, eu_region, samples=5)
        assert ping.min_rtt_ms == min(ping.samples)
        assert min(ping.samples) <= ping.median_rtt_ms <= max(ping.samples)

    def test_protocol_recorded(self, world, home_probe, eu_region):
        ping = ping_one(world, home_probe, eu_region, protocol=Protocol.ICMP)
        assert ping.protocol is Protocol.ICMP


class TestTraceroute:
    def test_home_probe_first_hop_is_private_router(self, world, home_probe, eu_region):
        trace = traceroute_one(world, home_probe, eu_region)
        assert trace.hops[0].address == HOME_ROUTER_ADDRESS
        assert is_private_ip(trace.hops[0].address)

    def test_cell_probe_has_no_router_hop(self, world, cell_probe, eu_region):
        trace = traceroute_one(world, cell_probe, eu_region)
        first = next(hop for hop in trace.hops if hop.responded)
        assert not is_private_ip(first.address)

    def test_destination_reached_has_rtt(self, world, home_probe, eu_region):
        trace = traceroute_one(world, home_probe, eu_region)
        assert trace.reached
        assert trace.end_to_end_rtt_ms is not None
        assert trace.hops[-1].address == trace.dest_address

    def test_source_address_is_device(self, world, home_probe, eu_region):
        trace = traceroute_one(world, home_probe, eu_region)
        assert trace.source_address == home_probe.device_address

    def test_some_hops_unresponsive_statistically(self, world, home_probe):
        unresponsive = 0
        total = 0
        for region in world.catalog.in_continent(Continent.EU):
            trace = traceroute_one(world, home_probe, region)
            unresponsive += sum(1 for hop in trace.hops if not hop.responded)
            total += len(trace.hops)
        assert 0 < unresponsive < 0.3 * total

    def test_final_hop_rtt_roughly_largest(self, world, home_probe, eu_region):
        trace = traceroute_one(world, home_probe, eu_region)
        rtts = [hop.rtt_ms for hop in trace.hops if hop.responded]
        assert trace.end_to_end_rtt_ms >= 0.5 * max(rtts)
