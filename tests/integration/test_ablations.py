"""Ablations of the design choices called out in DESIGN.md section 5."""


import numpy as np

from repro import SimulationConfig, build_world, run_campaign
from repro.analysis.nearest import nearest_samples_by_continent
from repro.geo.continents import Continent
from repro.lastmile.base import AccessKind

_SCALE = 0.008
_SEED = 31


def median_nearest_latency(world, days=4, continent=None):
    dataset = run_campaign(world, days=days, platforms=("speedchecker",))
    grouped = nearest_samples_by_continent(dataset, "speedchecker")
    samples = [
        s
        for probe_continent, values in grouped.items()
        if continent is None or probe_continent is continent
        for s in values
    ]
    return float(np.median(samples))


class TestWirelessLastMileAblation:
    def test_disabling_wireless_lowers_latency(self):
        base = build_world(
            seed=_SEED,
            scale=_SCALE,
            config=SimulationConfig(seed=_SEED, scale=_SCALE),
        )
        wired = build_world(
            seed=_SEED,
            scale=_SCALE,
            config=SimulationConfig(
                seed=_SEED, scale=_SCALE, wireless_last_mile=False
            ),
        )
        assert all(
            p.access is AccessKind.WIRED for p in wired.speedchecker.probes
        )
        # Paper: wireless accounts for 2-3x extra last-mile latency.
        assert median_nearest_latency(wired) < median_nearest_latency(base) - 5.0


class TestPrivateWanAblation:
    def test_disabling_wan_advantage_slows_direct_paths(self):
        base = build_world(
            seed=_SEED,
            scale=_SCALE,
            config=SimulationConfig(seed=_SEED, scale=_SCALE),
        )
        flat = build_world(
            seed=_SEED,
            scale=_SCALE,
            config=SimulationConfig(
                seed=_SEED, scale=_SCALE, private_wan_advantage=False
            ),
        )
        probe = next(
            p for p in base.speedchecker.probes if p.continent is Continent.AS
        )
        flat_probe = flat.speedchecker.probe(probe.probe_id)
        checked = 0
        for region in base.catalog.in_continent(Continent.AS):
            plan = base.planner.plan(probe, region)
            if not plan.interconnect.is_direct:
                continue
            if probe.country == region.country:
                continue
            network = base.topology.network_code(region.provider_code)
            if not base.wans[network].covers(Continent.AS):
                # Public-backbone providers have no advantage to lose.
                continue
            flat_plan = flat.planner.plan(flat_probe, region)
            assert flat_plan.stretch > plan.stretch
            assert flat_plan.jitter_sigma > plan.jitter_sigma
            checked += 1
        assert checked > 0


class TestRoutingPolicyAblation:
    def test_shortest_path_routing_shortens_paths(self):
        base = build_world(
            seed=_SEED,
            scale=_SCALE,
            config=SimulationConfig(seed=_SEED, scale=_SCALE),
        )
        shortest = build_world(
            seed=_SEED,
            scale=_SCALE,
            config=SimulationConfig(
                seed=_SEED, scale=_SCALE, valley_free_routing=False
            ),
        )
        from repro.net.asn import ASKind

        isps = base.topology.registry.of_kind(ASKind.ACCESS)
        vf_total = 0
        sp_total = 0
        for isp in isps[::5]:
            vf = base.topology.routes_for("VLTR", isp.continent).distance(isp.asn)
            sp = shortest.topology.routes_for("VLTR", isp.continent).distance(isp.asn)
            assert sp is not None and vf is not None
            assert sp <= vf  # policy can only lengthen paths
            vf_total += vf
            sp_total += sp
        assert sp_total < vf_total  # strictly shorter in aggregate


class TestDeploymentSkew:
    def test_uniform_deployment_changes_sa_composition(self):
        """With the documented Brazil bias removed, Brazil no longer
        dominates the South American Speedchecker fleet."""
        from repro.geo.countries import COUNTRIES, CountryRegistry
        from dataclasses import replace as dc_replace

        unbiased = CountryRegistry(
            [dc_replace(c, speedchecker_bias=1.0) for c in COUNTRIES]
        )
        world = build_world(seed=_SEED, scale=_SCALE, countries=unbiased)
        sa = [p for p in world.speedchecker.probes if p.continent is Continent.SA]
        brazil_share = sum(1 for p in sa if p.country == "BR") / len(sa)
        assert brazil_share < 0.6
