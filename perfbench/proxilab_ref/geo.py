"""Geodetic primitives shared by the service, the prober and the analysis.

Everything runs on a sphere of radius 6,378,137 m. At the sub-2 km scales
probed here the spherical error is orders of magnitude below the 10 m
boundary accuracy used anywhere else in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

EARTH_RADIUS_M = 6_378_137.0
METERS_PER_DEGREE = EARTH_RADIUS_M * math.pi / 180.0  # 111,319.49
MAX_MERCATOR_LAT_DEG = 85.06
LOCAL_FRAME_RANGE_M = 50_000.0


class ProjectionDomainError(ValueError):
    """Latitude outside the Mercator projection domain."""


class LocalFrameRangeError(ValueError):
    """Point too far from the local-frame anchor to project accurately."""


def _wrap_lon(lon: float) -> float:
    return (lon + 180.0) % 360.0 - 180.0


@dataclass(frozen=True)
class GeoPoint:
    """Position in degrees. Longitude is normalized to [-180, 180)."""

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude {self.lat} outside [-90, 90]")
        object.__setattr__(self, "lon", _wrap_lon(self.lon))


@dataclass(frozen=True)
class MercatorPoint:
    """Web-Mercator coordinates in degree units; x coincides with longitude."""

    x: float
    y: float


@dataclass(frozen=True)
class LocalXY:
    """Meters east (x) and north (y) of a fixed anchor point."""

    x: float
    y: float
    anchor: GeoPoint


def distance(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in meters (haversine).

    Symmetric, non-negative, and zero only for coincident points.
    """
    phi1 = math.radians(a.lat)
    phi2 = math.radians(b.lat)
    dphi = math.radians(b.lat - a.lat)
    dlam = math.radians(_wrap_lon(b.lon - a.lon))
    h = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


def to_mercator(p: GeoPoint) -> MercatorPoint:
    """Project to Web-Mercator degree units. Valid for |lat| < 85.06 deg."""
    if abs(p.lat) >= MAX_MERCATOR_LAT_DEG:
        raise ProjectionDomainError(
            f"|lat| must be below {MAX_MERCATOR_LAT_DEG} deg, got {p.lat}"
        )
    y = math.degrees(math.log(math.tan(math.pi / 4.0 + math.radians(p.lat) / 2.0)))
    return MercatorPoint(x=p.lon, y=y)


def from_mercator(m: MercatorPoint) -> GeoPoint:
    lat = math.degrees(2.0 * math.atan(math.exp(math.radians(m.y))) - math.pi / 2.0)
    return GeoPoint(lat=lat, lon=m.x)


def to_local(anchor: GeoPoint, p: GeoPoint) -> LocalXY:
    """Equirectangular projection of p into a meter frame about the anchor.

    Cheap and exact to invert; accurate well below 0.01 m round-trip for
    offsets up to several km. Offsets beyond 50 km are rejected.
    """
    x = _wrap_lon(p.lon - anchor.lon) * math.cos(math.radians(anchor.lat)) * METERS_PER_DEGREE
    y = (p.lat - anchor.lat) * METERS_PER_DEGREE
    if math.hypot(x, y) > LOCAL_FRAME_RANGE_M:
        raise LocalFrameRangeError(f"point {p} beyond {LOCAL_FRAME_RANGE_M} m of anchor")
    return LocalXY(x=x, y=y, anchor=anchor)


def from_local(xy: LocalXY) -> GeoPoint:
    if math.hypot(xy.x, xy.y) > LOCAL_FRAME_RANGE_M:
        raise LocalFrameRangeError(f"offset beyond {LOCAL_FRAME_RANGE_M} m of anchor")
    lat = xy.anchor.lat + xy.y / METERS_PER_DEGREE
    lon = xy.anchor.lon + xy.x / (METERS_PER_DEGREE * math.cos(math.radians(xy.anchor.lat)))
    return GeoPoint(lat=lat, lon=lon)


def destination(p: GeoPoint, bearing_deg: float, dist_m: float) -> GeoPoint:
    """Point reached from p along an initial bearing (0 = north, 90 = east)."""
    if dist_m < 0:
        raise ValueError("displacement must be non-negative")
    if dist_m == 0.0:
        return p
    theta = math.radians(bearing_deg)
    delta = dist_m / EARTH_RADIUS_M
    phi1 = math.radians(p.lat)
    lam1 = math.radians(p.lon)
    sin_phi2 = math.sin(phi1) * math.cos(delta) + math.cos(phi1) * math.sin(delta) * math.cos(theta)
    sin_phi2 = max(-1.0, min(1.0, sin_phi2))
    phi2 = math.asin(sin_phi2)
    lam2 = lam1 + math.atan2(
        math.sin(theta) * math.sin(delta) * math.cos(phi1),
        math.cos(delta) - math.sin(phi1) * sin_phi2,
    )
    return GeoPoint(lat=math.degrees(phi2), lon=math.degrees(lam2))


def midpoint(a: GeoPoint, b: GeoPoint) -> GeoPoint:
    """Midpoint of the short segment from a to b via the local frame of a."""
    xy = to_local(a, b)
    return from_local(LocalXY(xy.x / 2.0, xy.y / 2.0, a))
