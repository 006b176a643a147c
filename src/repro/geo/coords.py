"""Geographic coordinates and great-circle distance."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Mean Earth radius in kilometres (IUGG).
EARTH_RADIUS_KM = 6_371.0088


@dataclass(frozen=True)
class GeoPoint:
    """A point on the Earth's surface in decimal degrees."""

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude out of range: {self.lat}")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude out of range: {self.lon}")

    def distance_km(self, other: "GeoPoint") -> float:
        """Great-circle distance to ``other`` in kilometres."""
        return haversine_km(self, other)


def haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points via the haversine formula.

    Accurate to ~0.5% (spherical-Earth assumption), which is far below the
    noise floor of any latency model built on top of it.
    """
    lat1, lon1 = math.radians(a.lat), math.radians(a.lon)
    lat2, lon2 = math.radians(b.lat), math.radians(b.lon)
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def jitter_point(
    point: GeoPoint, radius_km: float, rng: "np.random.Generator"
) -> GeoPoint:
    """A point uniformly displaced up to ``radius_km`` from ``point``.

    Used to spread probes around a country centroid.  ``rng`` is a
    :class:`numpy.random.Generator`.
    """
    if radius_km < 0:
        raise ValueError(f"radius must be non-negative, got {radius_km}")
    # Uniform over the disc: radius proportional to sqrt(u).
    r = radius_km * math.sqrt(float(rng.random()))
    theta = 2.0 * math.pi * float(rng.random())
    dlat = (r / EARTH_RADIUS_KM) * math.cos(theta)
    cos_lat = max(0.05, math.cos(math.radians(point.lat)))
    dlon = (r / (EARTH_RADIUS_KM * cos_lat)) * math.sin(theta)
    lat = max(-89.9, min(89.9, point.lat + math.degrees(dlat)))
    lon = point.lon + math.degrees(dlon)
    if lon > 180.0:
        lon -= 360.0
    elif lon < -180.0:
        lon += 360.0
    return GeoPoint(lat, lon)
