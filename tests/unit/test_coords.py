"""Tests for repro.geo.coords."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.coords import (
    EARTH_RADIUS_KM,
    GeoPoint,
    haversine_km,
    jitter_point,
)

LONDON = GeoPoint(51.51, -0.13)
NEW_YORK = GeoPoint(40.71, -74.01)
SYDNEY = GeoPoint(-33.87, 151.21)
FRANKFURT = GeoPoint(50.11, 8.68)

latitudes = st.floats(min_value=-89.0, max_value=89.0)
longitudes = st.floats(min_value=-180.0, max_value=180.0)
points = st.builds(GeoPoint, latitudes, longitudes)


class TestGeoPoint:
    def test_valid_point(self):
        point = GeoPoint(10.0, 20.0)
        assert point.lat == 10.0 and point.lon == 20.0

    @pytest.mark.parametrize("lat", [-90.1, 90.1, 200.0])
    def test_invalid_latitude(self, lat):
        with pytest.raises(ValueError, match="latitude"):
            GeoPoint(lat, 0.0)

    @pytest.mark.parametrize("lon", [-180.1, 180.1, 999.0])
    def test_invalid_longitude(self, lon):
        with pytest.raises(ValueError, match="longitude"):
            GeoPoint(0.0, lon)

    def test_distance_method_matches_function(self):
        assert LONDON.distance_km(NEW_YORK) == haversine_km(LONDON, NEW_YORK)


class TestHaversine:
    def test_london_new_york(self):
        # Known great-circle distance ~5570 km.
        assert haversine_km(LONDON, NEW_YORK) == pytest.approx(5570, rel=0.02)

    def test_london_frankfurt(self):
        assert haversine_km(LONDON, FRANKFURT) == pytest.approx(640, rel=0.05)

    def test_london_sydney(self):
        assert haversine_km(LONDON, SYDNEY) == pytest.approx(16990, rel=0.02)

    def test_zero_distance(self):
        assert haversine_km(LONDON, LONDON) == 0.0

    @given(points, points)
    @settings(max_examples=60)
    def test_symmetry(self, a, b):
        assert haversine_km(a, b) == pytest.approx(haversine_km(b, a))

    @given(points, points)
    @settings(max_examples=60)
    def test_bounded_by_half_circumference(self, a, b):
        assert 0.0 <= haversine_km(a, b) <= math.pi * EARTH_RADIUS_KM + 1.0

    @given(points, points, points)
    @settings(max_examples=60)
    def test_triangle_inequality(self, a, b, c):
        assert haversine_km(a, c) <= (
            haversine_km(a, b) + haversine_km(b, c) + 1e-6
        )


class TestJitterPoint:
    def test_within_radius(self, rng):
        for _ in range(50):
            moved = jitter_point(FRANKFURT, 100.0, rng)
            assert haversine_km(FRANKFURT, moved) <= 105.0

    def test_zero_radius_is_identity(self, rng):
        moved = jitter_point(FRANKFURT, 0.0, rng)
        assert haversine_km(FRANKFURT, moved) < 0.001

    def test_negative_radius_rejected(self, rng):
        with pytest.raises(ValueError, match="radius"):
            jitter_point(FRANKFURT, -5.0, rng)

    def test_longitude_wraps(self, rng):
        near_dateline = GeoPoint(0.0, 179.9)
        for _ in range(50):
            moved = jitter_point(near_dateline, 200.0, rng)
            assert -180.0 <= moved.lon <= 180.0

    def test_spreads_out(self, rng):
        # Many draws should not all land on the same side.
        moved = [jitter_point(FRANKFURT, 300.0, rng) for _ in range(100)]
        east = sum(1 for point in moved if point.lon > FRANKFURT.lon)
        assert 10 < east < 90
