"""Tests for repro.analysis.nearest."""


from helpers import dataset_of, make_ping

from repro.analysis.nearest import (
    nearest_by_probe,
    nearest_samples_by_continent,
    nearest_samples_by_country,
)
from repro.geo.continents import Continent


def two_region_dataset():
    """Probe p1 measured two regions: 'far' (30ms) and 'near' (10ms)."""
    return dataset_of(
        make_ping([30.0, 32.0], region_id="far"),
        make_ping([10.0, 12.0], region_id="near"),
        make_ping([11.0], region_id="near"),
    )


class TestNearestByProbe:
    def test_picks_lowest_mean_region(self):
        nearest = nearest_by_probe(two_region_dataset(), "speedchecker")
        assert nearest.region_for("p1") == ("GCP", "near")

    def test_out_of_continent_regions_excluded_by_default(self):
        dataset = dataset_of(
            make_ping([5.0], region_id="abroad", region_continent=Continent.NA),
            make_ping([50.0], region_id="home", region_continent=Continent.EU),
        )
        nearest = nearest_by_probe(dataset, "speedchecker")
        assert nearest.region_for("p1") == ("GCP", "home")

    def test_cross_continent_allowed_when_requested(self):
        dataset = dataset_of(
            make_ping([5.0], region_id="abroad", region_continent=Continent.NA),
            make_ping([50.0], region_id="home", region_continent=Continent.EU),
        )
        nearest = nearest_by_probe(
            dataset, "speedchecker", same_continent_only=False
        )
        assert nearest.region_for("p1") == ("GCP", "abroad")

    def test_unknown_probe_is_none(self):
        nearest = nearest_by_probe(two_region_dataset(), "speedchecker")
        assert nearest.region_for("ghost") is None

    def test_platform_separation(self):
        dataset = dataset_of(
            make_ping([10.0], platform="atlas", region_id="a"),
        )
        assert len(nearest_by_probe(dataset, "speedchecker")) == 0
        assert len(nearest_by_probe(dataset, "atlas")) == 1


class TestSamplesToNearest:
    def test_only_nearest_region_samples_yielded(self):
        grouped = nearest_samples_by_continent(two_region_dataset(), "speedchecker")
        assert grouped == {Continent.EU: [10.0, 12.0, 11.0]}

    def test_grouping_by_continent(self):
        grouped = nearest_samples_by_continent(two_region_dataset(), "speedchecker")
        assert set(grouped) == {Continent.EU}
        assert len(grouped[Continent.EU]) == 3

    def test_grouping_by_country(self):
        grouped = nearest_samples_by_country(two_region_dataset(), "speedchecker")
        assert set(grouped) == {"DE"}
