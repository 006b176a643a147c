"""Tests for repro.measure.campaign scheduling behaviour."""

import numpy as np
import pytest

from helpers import pings, traceroutes

from repro import build_world, run_campaign
from repro.geo.continents import Continent
from repro.measure.campaign import run_case_study, target_regions
from repro.measure.results import Protocol


@pytest.fixture(scope="module")
def small_world():
    return build_world(seed=5, scale=0.008)


@pytest.fixture(scope="module")
def small_dataset(small_world):
    return run_campaign(small_world, days=6)


class TestRunCampaign:
    def test_produces_measurements(self, small_dataset):
        assert small_dataset.ping_count > 100
        assert small_dataset.traceroute_count > 20

    def test_day_range(self, small_dataset):
        days = {ping.meta.day for ping in pings(small_dataset)}
        assert days <= set(range(6))
        assert len(days) > 1

    def test_invalid_days(self, small_world):
        with pytest.raises(ValueError, match="at least one day"):
            run_campaign(small_world, days=0)

    def test_platform_selection(self, small_world):
        sc_only = run_campaign(small_world, days=2, platforms=("speedchecker",))
        assert all(
            ping.meta.platform == "speedchecker" for ping in pings(sc_only)
        )

    def test_speedchecker_pings_are_tcp(self, small_dataset):
        protocols = {
            ping.protocol for ping in pings(small_dataset, platform="speedchecker")
        }
        assert protocols == {Protocol.TCP}

    def test_speedchecker_traceroutes_are_icmp(self, small_dataset):
        protocols = {
            trace.protocol
            for trace in traceroutes(small_dataset, platform="speedchecker")
        }
        assert protocols == {Protocol.ICMP}

    def test_atlas_records_both_ping_protocols(self, small_dataset):
        protocols = {
            ping.protocol for ping in pings(small_dataset, platform="atlas")
        }
        assert protocols == {Protocol.TCP, Protocol.ICMP}

    def test_atlas_traceroutes_are_tcp(self, small_dataset):
        protocols = {
            trace.protocol for trace in traceroutes(small_dataset, platform="atlas")
        }
        assert protocols == {Protocol.TCP}

    def test_targets_stay_in_continent_except_af_sa(self, small_dataset):
        for ping in pings(small_dataset):
            meta = ping.meta
            if meta.continent in (Continent.AF, Continent.SA):
                continue
            assert meta.region_continent is meta.continent

    def test_african_probes_also_target_eu_and_na(self, small_dataset):
        targets = {
            ping.meta.region_continent
            for ping in pings(small_dataset)
            if ping.meta.continent is Continent.AF
        }
        assert Continent.EU in targets
        assert Continent.NA in targets

    def test_south_american_probes_also_target_na(self, small_dataset):
        targets = {
            ping.meta.region_continent
            for ping in pings(small_dataset)
            if ping.meta.continent is Continent.SA
        }
        assert Continent.NA in targets


class TestTargetRegions:
    def test_covers_every_in_continent_provider(self, small_world):
        probe = next(
            p for p in small_world.speedchecker.probes if p.continent is Continent.EU
        )
        rng = np.random.default_rng(0)
        regions = target_regions(small_world, probe, rng)
        providers = {region.provider_code for region in regions}
        in_continent_providers = {
            region.provider_code
            for region in small_world.catalog.in_continent(Continent.EU)
        }
        assert in_continent_providers <= providers

    def test_no_duplicate_regions(self, small_world):
        probe = small_world.speedchecker.probes[0]
        rng = np.random.default_rng(0)
        regions = target_regions(small_world, probe, rng)
        keys = [(r.provider_code, r.region_id) for r in regions]
        assert len(keys) == len(set(keys))


class TestCaseStudy:
    def test_source_and_destination_respected(self, small_world):
        dataset = run_case_study(small_world, "DE", "GB", rounds=1, max_probes=4)
        for ping in pings(dataset):
            assert ping.meta.country == "DE"
            assert ping.meta.region_country == "GB"
        assert dataset.traceroute_count == dataset.ping_count

    def test_unknown_destination(self, small_world):
        with pytest.raises(ValueError, match="no cloud regions"):
            run_case_study(small_world, "DE", "XX", rounds=1)

    def test_max_probes_cap(self, small_world):
        dataset = run_case_study(small_world, "DE", "GB", rounds=1, max_probes=2)
        probes = {ping.meta.probe_id for ping in pings(dataset)}
        assert len(probes) <= 2
