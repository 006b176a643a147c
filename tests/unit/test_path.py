"""Tests for repro.measure.path (path planning)."""

import pytest

from repro.core.units import one_way_fiber_ms
from repro.geo.continents import Continent
from repro.lastmile.base import AccessKind
from repro.measure.path import InterconnectKind, PlannedPath, classify_interconnect
from repro.measure.requests import pair_requests


@pytest.fixture(scope="module")
def sample(world):
    """A (probe, region) pair in the same continent plus its plan."""
    probe = next(
        p for p in world.speedchecker.probes
        if p.country == "DE" and p.access is AccessKind.HOME_WIFI
    )
    region = world.catalog.nearest_region(probe.location, continent=Continent.EU)
    return probe, region, world.planner.plan(probe, region)


class TestPlanBasics:
    def test_plan_is_cached(self, world, sample):
        """A planned pair keeps its row: later calls return the same row
        object, and its view equals the first one in every slot."""
        probe, region, plan = sample
        (row,) = world.planner.plan_many(pair_requests([(probe, region)]))
        (repeat,) = world.planner.plan_many(pair_requests([(probe, region)]))
        assert repeat is row
        again = world.planner.plan(probe, region)
        assert again is not plan
        assert all(
            getattr(again, slot) == getattr(plan, slot)
            for slot in PlannedPath.__slots__
        )

    def test_as_path_endpoints(self, world, sample):
        probe, region, plan = sample
        network = world.topology.network_code(region.provider_code)
        cloud_asn = world.topology.registry.cloud_for_provider(network).asn
        assert plan.as_path[0] == probe.isp_asn
        assert plan.as_path[-1] == cloud_asn

    def test_destination_hop_is_region_endpoint(self, world, sample):
        probe, region, plan = sample
        assert plan.hops[-1].address == plan.dest_address
        assert plan.dest_address == world.region_address(region)

    def test_base_rtt_monotone_along_hops(self, sample):
        _, _, plan = sample
        rtts = [hop.base_rtt_ms for hop in plan.hops if hop.owner_kind != "ixp"]
        assert all(a <= b + 1e-9 for a, b in zip(rtts, rtts[1:]))

    def test_base_path_rtt_at_least_propagation(self, sample):
        probe, region, plan = sample
        assert plan.base_path_rtt_ms >= plan.distance_km / 100.0

    def test_hops_have_addresses_in_owner_prefix(self, world, sample):
        _, _, plan = sample
        for hop in plan.hops:
            if hop.asn is None:
                continue
            owner = world.topology.registry.get(hop.asn)
            assert owner.announces(hop.address)

    def test_endpoint_rtt_sums_its_terms_left_to_right(self, world):
        """The endpoint's noise-free RTT, bit for bit: two-way fibre,
        per-hop processing, the shared minimum, then the fixed
        overheads."""
        path_config = world.config.path_model
        regions = list(world.catalog)
        for i, probe in enumerate(world.speedchecker.probes[:200]):
            plan = world.planner.plan(probe, regions[(7 * i) % len(regions)])
            routers = plan.hop_count - 1 - plan.hop_kinds.count("ixp")
            expected = (
                2.0 * one_way_fiber_ms(plan.distance_km, plan.stretch)
                + (routers + 1) * path_config.hop_processing_ms
                + path_config.min_path_rtt_ms
                + (
                    path_config.isp_core_rtt_ms
                    + plan.intermediate_as_count
                    * path_config.per_intermediate_as_rtt_ms
                )
            )
            assert plan.base_path_rtt_ms == expected
            assert plan.hop_base_rtts[-1] == expected

    def test_intermediate_count_property(self, sample):
        _, _, plan = sample
        assert plan.intermediate_as_count == len(plan.as_path) - 2


class TestClassification:
    def test_classification_matches_ground_truth_peering(self, world):
        topology = world.topology
        checked = 0
        for probe in world.speedchecker.probes[:40]:
            for region in world.catalog.all()[::25]:
                plan = world.planner.plan(probe, region)
                peering = topology.peering_for(region.provider_code)
                if plan.interconnect.is_direct:
                    assert peering.has_direct(probe.isp_asn)
                checked += 1
        assert checked > 0

    def test_classify_rejects_short_path(self, world):
        with pytest.raises(ValueError, match="at least"):
            classify_interconnect([1], world.topology, "GCP")

    def test_direct_ixp_paths_contain_ixp_hop(self, world):
        found = False
        for probe in world.speedchecker.probes[:300]:
            for region in world.catalog.all()[::10]:
                plan = world.planner.plan(probe, region)
                if plan.interconnect is InterconnectKind.DIRECT_IXP:
                    assert any(hop.owner_kind == "ixp" for hop in plan.hops)
                    found = True
                    break
            if found:
                break
        assert found, "no DIRECT_IXP path found in sample"


class TestStretchModel:
    def test_direct_private_wan_has_lowest_stretch(self, world):
        """Across many planned paths, covered direct paths should show
        lower stretch than public ones from the same continent."""
        direct, public = [], []
        for probe in world.speedchecker.probes[:150]:
            if probe.continent is not Continent.EU:
                continue
            for region in world.catalog.in_continent(Continent.EU)[::6]:
                if probe.country == region.country and region.country != "DE":
                    continue
                plan = world.planner.plan(probe, region)
                if plan.interconnect is InterconnectKind.DIRECT:
                    direct.append(plan.stretch)
                elif plan.interconnect is InterconnectKind.PUBLIC:
                    public.append(plan.stretch)
        assert direct and public
        assert sum(direct) / len(direct) < sum(public) / len(public)

    def test_african_cross_country_paths_heavily_stretched(self, world):
        probe = next(
            p for p in world.speedchecker.probes if p.country == "EG"
        )
        za_region = world.catalog.nearest_region(
            probe.location, continent=Continent.AF
        )
        eu_region = world.catalog.nearest_region(
            probe.location, continent=Continent.EU
        )
        za_plan = world.planner.plan(probe, za_region)
        eu_plan = world.planner.plan(probe, eu_region)
        # Intra-African backhaul penalty applies; the EU path does not get it.
        assert za_plan.stretch > eu_plan.stretch

    def test_jitter_sigma_higher_on_public_paths(self, world):
        sigmas = {"direct": [], "public": []}
        for probe in world.speedchecker.probes[:150]:
            for region in world.catalog.all()[::20]:
                plan = world.planner.plan(probe, region)
                if plan.interconnect is InterconnectKind.DIRECT:
                    sigmas["direct"].append(plan.jitter_sigma)
                elif plan.interconnect is InterconnectKind.PUBLIC:
                    sigmas["public"].append(plan.jitter_sigma)
        assert sigmas["direct"] and sigmas["public"]
        assert max(sigmas["direct"]) < max(sigmas["public"]) + 1e-9
        assert sum(sigmas["direct"]) / len(sigmas["direct"]) < sum(
            sigmas["public"]
        ) / len(sigmas["public"])
