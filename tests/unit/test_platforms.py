"""Tests for the Speedchecker and Atlas platform mechanics."""

import pytest

from repro import build_world
from repro.platforms.speedchecker import QuotaExhausted


@pytest.fixture(scope="module")
def fresh_world():
    """A private world so quota/snapshot mutations don't leak into the
    shared session fixtures."""
    return build_world(seed=123, scale=0.01)


class TestSpeedcheckerInventory:
    def test_len_and_probes(self, fresh_world):
        platform = fresh_world.speedchecker
        assert len(platform) == len(platform.probes)

    def test_probe_lookup(self, fresh_world):
        platform = fresh_world.speedchecker
        probe = platform.probes[0]
        assert platform.probe(probe.probe_id) is probe
        with pytest.raises(KeyError, match="unknown probe"):
            platform.probe("nope")

    def test_countries_sorted(self, fresh_world):
        countries = fresh_world.speedchecker.countries()
        assert countries == sorted(countries)

    def test_countries_with_at_least(self, fresh_world):
        platform = fresh_world.speedchecker
        big = platform.countries_with_at_least(5)
        for iso in big:
            assert len(platform.probes_in_country(iso)) >= 5


class TestSnapshots:
    def test_snapshot_subset_of_fleet(self, fresh_world):
        platform = fresh_world.speedchecker
        snapshot = platform.snapshot(day=0, hour=0)
        all_ids = {probe.probe_id for probe in platform.probes}
        assert set(snapshot.probe_ids) <= all_ids
        assert 0 < len(snapshot.probe_ids) < len(all_ids)

    def test_snapshots_churn(self, fresh_world):
        platform = fresh_world.speedchecker
        first = set(platform.snapshot(1, 0).probe_ids)
        second = set(platform.snapshot(1, 4).probe_ids)
        assert first != second

    def test_connected_in_country(self, fresh_world):
        platform = fresh_world.speedchecker
        snapshot = platform.snapshot(3, 0)
        for probe in platform.connected_in_country("DE", snapshot):
            assert probe.country == "DE"
            assert probe.probe_id in set(snapshot.probe_ids)


class TestSelection:
    def test_select_respects_count(self, fresh_world):
        platform = fresh_world.speedchecker
        snapshot = platform.snapshot(4, 0)
        selected = platform.select_probes("DE", snapshot, 2)
        assert len(selected) <= 2

    def test_select_returns_pool_when_small(self, fresh_world):
        platform = fresh_world.speedchecker
        snapshot = platform.snapshot(5, 0)
        pool = platform.connected_in_country("FJ", snapshot)
        assert len(platform.select_probes("FJ", snapshot, 10_000)) == len(pool)


class TestQuota:
    def test_charge_and_refresh(self, fresh_world):
        platform = fresh_world.speedchecker
        platform.refresh_quota()
        start = platform.remaining_quota
        platform.charge(3)
        assert platform.remaining_quota == start - 3
        platform.refresh_quota()
        assert platform.remaining_quota == platform.daily_quota

    def test_exhaustion_raises(self, fresh_world):
        platform = fresh_world.speedchecker
        platform.refresh_quota()
        with pytest.raises(QuotaExhausted):
            platform.charge(platform.daily_quota + 1)
        platform.refresh_quota()

    def test_negative_charge_rejected(self, fresh_world):
        with pytest.raises(ValueError, match="non-negative"):
            fresh_world.speedchecker.charge(-1)


class TestAtlasPlatform:
    def test_lookup(self, fresh_world):
        platform = fresh_world.atlas
        probe = platform.probes[0]
        assert platform.probe(probe.probe_id) is probe
        with pytest.raises(KeyError):
            platform.probe("nope")

    def test_connected_probes_mostly_online(self, fresh_world):
        platform = fresh_world.atlas
        connected = platform.connected_probes()
        assert len(connected) > 0.5 * len(platform)

    def test_probes_in_country(self, fresh_world):
        for probe in fresh_world.atlas.probes_in_country("DE"):
            assert probe.country == "DE"
