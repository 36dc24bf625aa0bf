"""Geodetic primitives shared by the service, the prober and the analysis.

Everything runs on a sphere of radius 6,378,137 m. At the sub-2 km scales
probed here the spherical error is orders of magnitude below the 10 m
boundary accuracy used anywhere else in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import asin, atan, atan2, cos, exp, hypot, log, sin, sqrt, tan

EARTH_RADIUS_M = 6_378_137.0
METERS_PER_DEGREE = EARTH_RADIUS_M * math.pi / 180.0  # 111,319.49
MAX_MERCATOR_LAT_DEG = 85.06
LOCAL_FRAME_RANGE_M = 50_000.0

# math.radians and math.degrees multiply by exactly these two factors, so
# `x * RADIANS_PER_DEGREE` is bit-identical to `math.radians(x)`, minus
# the call. The functions below inline them, and the longitude wrap, on
# the per-query path; each keeps the operands and order of operations of
# the textbook formula it implements.
RADIANS_PER_DEGREE = math.pi / 180.0
DEGREES_PER_RADIAN = 180.0 / math.pi


class ProjectionDomainError(ValueError):
    """Latitude outside the Mercator projection domain."""


class LocalFrameRangeError(ValueError):
    """Point too far from the local-frame anchor to project accurately."""


def _wrap_lon(lon: float) -> float:
    lon = (lon + 180.0) % 360.0 - 180.0
    # A longitude less than half an ulp of 360 west of -180 wraps to
    # 360.0 - 180.0; the normalized range stops short of 180.
    return -180.0 if lon == 180.0 else lon


@dataclass(frozen=True, slots=True)
class GeoPoint:
    """Position in degrees. Longitude is normalized to [-180, 180)."""

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude {self.lat} outside [-90, 90]")
        if not math.isfinite(self.lon):
            raise ValueError(f"longitude {self.lon} is not finite")
        object.__setattr__(self, "lon", _wrap_lon(self.lon))


_new_object = object.__new__
_set_lat = GeoPoint.__dict__["lat"].__set__
_set_lon = GeoPoint.__dict__["lon"].__set__


def _point(lat: float, lon: float) -> GeoPoint:
    """GeoPoint(lat, lon) for a latitude already in [-90, 90] and a finite
    longitude, without the public constructor's checks; the longitude
    wrap is `_wrap_lon`, inlined, so the bits are the same. The two slots
    are written through their member descriptors, which is what
    `object.__setattr__` in the frozen dataclass's __init__ ends in."""
    lon = (lon + 180.0) % 360.0 - 180.0
    p = _new_object(GeoPoint)
    _set_lat(p, lat)
    _set_lon(p, -180.0 if lon == 180.0 else lon)
    return p


@dataclass(frozen=True)
class MercatorPoint:
    """Web-Mercator coordinates in degree units; x coincides with longitude."""

    x: float
    y: float


def distance(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in meters (haversine).

    Symmetric, non-negative, and zero only for coincident points.
    """
    a_lat = a.lat
    b_lat = b.lat
    dphi = (b_lat - a_lat) * RADIANS_PER_DEGREE
    dlam = ((b.lon - a.lon + 180.0) % 360.0 - 180.0) * RADIANS_PER_DEGREE
    h = (
        sin(dphi / 2.0) ** 2
        + cos(a_lat * RADIANS_PER_DEGREE) * cos(b_lat * RADIANS_PER_DEGREE) * sin(dlam / 2.0) ** 2
    )
    return 2.0 * EARTH_RADIUS_M * asin(min(1.0, sqrt(h)))


def check_lat(lat: float) -> None:
    """Reject a latitude outside the Mercator domain."""
    if abs(lat) >= MAX_MERCATOR_LAT_DEG:
        raise ProjectionDomainError(
            f"|lat| must be below {MAX_MERCATOR_LAT_DEG} deg, got {lat}"
        )


def to_mercator(p: GeoPoint) -> MercatorPoint:
    """Project to Web-Mercator degree units. Valid for |lat| < 85.06 deg."""
    check_lat(p.lat)
    y = log(tan(math.pi / 4.0 + p.lat * RADIANS_PER_DEGREE / 2.0)) * DEGREES_PER_RADIAN
    return MercatorPoint(x=p.lon, y=y)


def from_mercator(m: MercatorPoint) -> GeoPoint:
    lat = (2.0 * atan(exp(m.y * RADIANS_PER_DEGREE)) - math.pi / 2.0) * DEGREES_PER_RADIAN
    return GeoPoint(lat=lat, lon=m.x)


def to_local(anchor: GeoPoint, p: GeoPoint) -> tuple[float, float]:
    """Equirectangular projection of p into a meter frame about the anchor:
    (x, y), meters east and north.

    Cheap and exact to invert; accurate well below 0.01 m round-trip for
    offsets up to several km. Offsets beyond 50 km are rejected.
    """
    x = _wrap_lon(p.lon - anchor.lon) * cos(anchor.lat * RADIANS_PER_DEGREE) * METERS_PER_DEGREE
    y = (p.lat - anchor.lat) * METERS_PER_DEGREE
    if hypot(x, y) > LOCAL_FRAME_RANGE_M:
        raise LocalFrameRangeError(f"point {p} beyond {LOCAL_FRAME_RANGE_M} m of anchor")
    return x, y


def destination(p: GeoPoint, bearing_deg: float, dist_m: float) -> GeoPoint:
    """Point reached from p along an initial bearing (0 = north, 90 = east)."""
    if dist_m < 0:
        raise ValueError("displacement must be non-negative")
    if dist_m == 0.0:
        return p
    theta = bearing_deg * RADIANS_PER_DEGREE
    delta = dist_m / EARTH_RADIUS_M
    phi1 = p.lat * RADIANS_PER_DEGREE
    sin_phi1 = sin(phi1)
    cos_phi1 = cos(phi1)
    sin_delta = sin(delta)
    cos_delta = cos(delta)
    sin_phi2 = max(-1.0, min(1.0, sin_phi1 * cos_delta + cos_phi1 * sin_delta * cos(theta)))
    lam2 = p.lon * RADIANS_PER_DEGREE + atan2(
        sin(theta) * sin_delta * cos_phi1,
        cos_delta - sin_phi1 * sin_phi2,
    )
    return _point(asin(sin_phi2) * DEGREES_PER_RADIAN, lam2 * DEGREES_PER_RADIAN)


def midpoint(a: GeoPoint, b: GeoPoint) -> GeoPoint:
    """Midpoint of the short segment from a to b via the local frame of a:
    half of the offset `to_local(a, b)`, taken back to degrees by the
    inverse of that frame. Offsets beyond 50 km are rejected, as in
    `to_local`."""
    cos_lat = cos(a.lat * RADIANS_PER_DEGREE)
    x = ((b.lon - a.lon + 180.0) % 360.0 - 180.0) * cos_lat * METERS_PER_DEGREE
    y = (b.lat - a.lat) * METERS_PER_DEGREE
    if hypot(x, y) > LOCAL_FRAME_RANGE_M:
        raise LocalFrameRangeError(f"point {b} beyond {LOCAL_FRAME_RANGE_M} m of anchor")
    return _point(
        a.lat + y / 2.0 / METERS_PER_DEGREE,
        a.lon + x / 2.0 / (METERS_PER_DEGREE * cos_lat),
    )
