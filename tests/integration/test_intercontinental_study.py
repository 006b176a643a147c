"""Tests for the focused inter-continental study runner (Fig. 6 support)."""

import pytest

from helpers import pings

from repro import build_world
from repro.geo.continents import Continent
from repro.measure.campaign import run_intercontinental_study


@pytest.fixture(scope="module")
def small_world():
    return build_world(seed=17, scale=0.008)


class TestRunIntercontinentalStudy:
    def test_only_listed_countries_measured(self, small_world):
        dataset = run_intercontinental_study(
            small_world, ["EG", "KE"], [Continent.EU, Continent.AF], rounds=1
        )
        countries = {ping.meta.country for ping in pings(dataset)}
        assert countries <= {"EG", "KE"}

    def test_targets_cover_requested_continents(self, small_world):
        dataset = run_intercontinental_study(
            small_world, ["EG"], [Continent.EU, Continent.NA], rounds=1
        )
        targets = {ping.meta.region_continent for ping in pings(dataset)}
        assert targets == {Continent.EU, Continent.NA}

    def test_every_provider_with_regions_is_covered(self, small_world):
        dataset = run_intercontinental_study(
            small_world, ["EG"], [Continent.EU], rounds=1
        )
        measured = {ping.meta.provider_code for ping in pings(dataset)}
        available = {
            region.provider_code
            for region in small_world.catalog.in_continent(Continent.EU)
        }
        assert measured == available

    def test_rounds_scale_volume(self, small_world):
        one = run_intercontinental_study(
            small_world, ["EG"], [Continent.EU], rounds=1, max_probes_per_country=3
        )
        three = run_intercontinental_study(
            small_world, ["EG"], [Continent.EU], rounds=3, max_probes_per_country=3
        )
        assert three.ping_count == 3 * one.ping_count

    def test_max_probes_cap(self, small_world):
        dataset = run_intercontinental_study(
            small_world, ["EG"], [Continent.EU], rounds=1, max_probes_per_country=2
        )
        probes = {ping.meta.probe_id for ping in pings(dataset)}
        assert len(probes) <= 2

    def test_no_traceroutes_collected(self, small_world):
        dataset = run_intercontinental_study(
            small_world, ["EG"], [Continent.EU], rounds=1
        )
        assert dataset.traceroute_count == 0
