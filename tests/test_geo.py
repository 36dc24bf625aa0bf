"""Geodetic primitives against closed-form expectations."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from proxilab.geo import (
    EARTH_RADIUS_M,
    METERS_PER_DEGREE,
    GeoPoint,
    LocalFrameRangeError,
    ProjectionDomainError,
    destination,
    distance,
    from_mercator,
    midpoint,
    to_local,
    to_mercator,
)
from proxilab.service import Quantizer

from conftest import oracle_from_local, oracle_local

# closed-form arc length for 0.005 degrees on the equator
ARC_0005_DEG = 0.005 * math.pi / 180.0 * EARTH_RADIUS_M

LATS = st.floats(-85.0, 85.0)
# Longitudes anywhere, with extra weight within 0.01 deg of the antimeridian.
LONS = st.one_of(st.floats(-180.0, 180.0), st.floats(179.99, 180.0), st.floats(-180.0, -179.99))
# Offsets of up to 0.6 deg, so some pairs lie beyond the 50 km local frame.
OFFSETS = st.floats(-0.6, 0.6)


def bits(p: GeoPoint) -> tuple[str, str]:
    """Exact representation of a point: equal only if every bit is."""
    return p.lat.hex(), p.lon.hex()


def textbook_haversine(a: GeoPoint, b: GeoPoint) -> float:
    """Haversine with math.radians, the longitude difference wrapped into
    [-180, 180)."""
    phi1 = math.radians(a.lat)
    phi2 = math.radians(b.lat)
    dphi = math.radians(b.lat - a.lat)
    dlam = math.radians((b.lon - a.lon + 180.0) % 360.0 - 180.0)
    h = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


def textbook_destination(p: GeoPoint, bearing_deg: float, dist_m: float) -> GeoPoint:
    """Spherical direct problem with math.radians and math.degrees; a zero
    displacement returns the start itself."""
    if dist_m == 0.0:
        return p
    theta = math.radians(bearing_deg)
    delta = dist_m / EARTH_RADIUS_M
    phi1 = math.radians(p.lat)
    lam1 = math.radians(p.lon)
    sin_phi2 = math.sin(phi1) * math.cos(delta) + math.cos(phi1) * math.sin(delta) * math.cos(theta)
    sin_phi2 = max(-1.0, min(1.0, sin_phi2))
    lam2 = lam1 + math.atan2(
        math.sin(theta) * math.sin(delta) * math.cos(phi1),
        math.cos(delta) - math.sin(phi1) * sin_phi2,
    )
    return GeoPoint(math.degrees(math.asin(sin_phi2)), math.degrees(lam2))


class TestGeoPoint:
    def test_lat_range_enforced(self):
        with pytest.raises(ValueError):
            GeoPoint(90.5, 0.0)
        with pytest.raises(ValueError):
            GeoPoint(-91.0, 0.0)

    def test_lon_normalized_to_half_open_range(self):
        assert GeoPoint(0.0, 180.0).lon == -180.0
        assert GeoPoint(0.0, 359.0).lon == pytest.approx(-1.0)
        assert GeoPoint(0.0, -180.0).lon == -180.0
        assert GeoPoint(0.0, 540.0).lon == -180.0


class TestDistance:
    def test_identity_is_zero(self):
        assert distance(GeoPoint(0, 0), GeoPoint(0, 0)) == 0.0

    def test_equatorial_arc(self):
        d = distance(GeoPoint(0, 0), GeoPoint(0, 0.005))
        assert d == pytest.approx(ARC_0005_DEG, abs=0.1)
        assert d == pytest.approx(556.6, abs=0.1)

    def test_parallel_arc_shrinks_with_cosine(self):
        d = distance(GeoPoint(60, 0), GeoPoint(60, 0.005))
        assert d == pytest.approx(556.6 * math.cos(math.radians(60)), abs=0.1)

    def test_symmetric_nonnegative(self):
        rng = random.Random(7)
        for _ in range(200):
            a = GeoPoint(rng.uniform(-80, 80), rng.uniform(-180, 180))
            b = GeoPoint(rng.uniform(-80, 80), rng.uniform(-180, 180))
            assert distance(a, b) == pytest.approx(distance(b, a), rel=1e-12)
            assert distance(a, b) >= 0.0

    @settings(max_examples=500, deadline=None)
    @given(a_lat=LATS, a_lon=LONS, dlat=OFFSETS, dlon=OFFSETS)
    def test_bit_identical_to_textbook_haversine(self, a_lat, a_lon, dlat, dlon):
        a = GeoPoint(a_lat, a_lon)
        for b in (GeoPoint(a_lat + dlat, a_lon + dlon), GeoPoint(-a_lat, a_lon + 180.0 * dlon)):
            assert distance(a, b).hex() == textbook_haversine(a, b).hex()

    def test_triangle_inequality_within_disc(self):
        rng = random.Random(11)
        for _ in range(300):
            anchor = GeoPoint(rng.uniform(-70, 70), rng.uniform(-180, 180))
            pts = [
                destination(anchor, rng.uniform(0, 360), rng.uniform(0, 50_000))
                for _ in range(3)
            ]
            a, b, c = pts
            assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-6


class TestMercator:
    def test_equator_fixed_point(self):
        m = to_mercator(GeoPoint(0, 0))
        assert m.x == 0.0
        assert m.y == pytest.approx(0.0, abs=1e-12)

    def test_y_at_60_degrees(self):
        expected = math.degrees(math.log(math.tan(math.radians(75.0))))
        assert to_mercator(GeoPoint(60, 0)).y == pytest.approx(expected, abs=1e-9)
        assert to_mercator(GeoPoint(60, 0)).y == pytest.approx(75.456, abs=1e-3)

    def test_domain_error_beyond_limit(self):
        with pytest.raises(ProjectionDomainError):
            to_mercator(GeoPoint(85.1, 0))
        with pytest.raises(ProjectionDomainError):
            to_mercator(GeoPoint(-85.06, 0))

    def test_round_trip_within_1e9_degrees(self):
        rng = random.Random(3)
        for _ in range(500):
            p = GeoPoint(rng.uniform(-85.0, 85.0), rng.uniform(-180, 180))
            q = from_mercator(to_mercator(p))
            assert q.lat == pytest.approx(p.lat, abs=1e-9)
            assert q.lon == pytest.approx(p.lon, abs=1e-9)


class TestLocalFrame:
    def test_anchor_maps_to_origin(self):
        a = GeoPoint(12.3, 45.6)
        assert to_local(a, a) == (0.0, 0.0)

    def test_equatorial_east_offset(self):
        x, y = to_local(GeoPoint(0, 0), GeoPoint(0, 0.005))
        assert x == pytest.approx(556.6, abs=0.1)
        assert y == pytest.approx(0.0, abs=1e-9)

    def test_round_trip_below_centimeter_within_5km(self):
        # The frame is the oracle's to the bit, and its inverse lands
        # within a centimetre of the point.
        rng = random.Random(5)
        for _ in range(500):
            anchor = GeoPoint(rng.uniform(-80, 80), rng.uniform(-180, 180))
            p = destination(anchor, rng.uniform(0, 360), rng.uniform(0, 5_000))
            xy = to_local(anchor, p)
            assert xy == oracle_local(anchor, p.lat, p.lon)
            assert distance(p, GeoPoint(*oracle_from_local(anchor, *xy))) < 0.01

    def test_range_error_beyond_50km(self):
        with pytest.raises(LocalFrameRangeError):
            to_local(GeoPoint(0, 0), GeoPoint(0, 0.5))


class TestDestination:
    def test_zero_distance_returns_start(self):
        p = GeoPoint(10, 20)
        assert destination(p, 123.0, 0.0) == p

    def test_due_east_on_equator(self):
        p = destination(GeoPoint(0, 0), 90.0, 556.6)
        assert p.lon == pytest.approx(0.005, abs=1e-6)
        assert p.lat == pytest.approx(0.0, abs=1e-9)

    def test_due_north_on_equator(self):
        p = destination(GeoPoint(0, 0), 0.0, 556.6)
        assert p.lat == pytest.approx(0.005, abs=1e-6)
        assert p.lon == pytest.approx(0.0, abs=1e-9)

    @settings(max_examples=500, deadline=None)
    @given(lat=LATS, lon=LONS, bearing=st.floats(0.0, 360.0), dist=st.floats(0.0, 60_000.0))
    def test_bit_identical_to_textbook_formula(self, lat, lon, bearing, dist):
        p = GeoPoint(lat, lon)
        assert bits(destination(p, bearing, dist)) == bits(textbook_destination(p, bearing, dist))

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            destination(GeoPoint(0, 0), 0.0, -1.0)

    def test_commanded_displacement_property(self):
        # 1,000 random cases: the haversine of the result matches the command
        # within 0.1 % for displacements up to 5 km.
        rng = random.Random(42)
        for _ in range(1000):
            p = GeoPoint(rng.uniform(-80, 80), rng.uniform(-180, 180))
            d = rng.uniform(0.1, 5_000.0)
            q = destination(p, rng.uniform(0, 360), d)
            assert distance(p, q) == pytest.approx(d, rel=1e-3)


class TestMidpoint:
    def test_halves_the_segment(self):
        a = GeoPoint(40.0, -3.0)
        b = destination(a, 77.0, 100.0)
        m = midpoint(a, b)
        assert distance(a, m) == pytest.approx(50.0, rel=1e-3)
        assert distance(m, b) == pytest.approx(50.0, rel=1e-3)

    def test_range_error_beyond_50km(self):
        with pytest.raises(LocalFrameRangeError):
            midpoint(GeoPoint(0, 0), GeoPoint(0, 0.5))
        with pytest.raises(LocalFrameRangeError):
            midpoint(GeoPoint(60, 179.9), GeoPoint(60.46, -179.9))

    @settings(max_examples=500, deadline=None)
    @given(a_lat=LATS, a_lon=LONS, dlat=OFFSETS, dlon=OFFSETS)
    def test_bit_identical_to_half_the_local_offset(self, a_lat, a_lon, dlat, dlon):
        a = GeoPoint(a_lat, a_lon)
        b = GeoPoint(a_lat + dlat, a_lon + dlon)
        x, y = oracle_local(a, b.lat, b.lon)
        if math.hypot(x, y) > 50_000.0:
            with pytest.raises(LocalFrameRangeError):
                midpoint(a, b)
            return
        assert bits(midpoint(a, b)) == bits(GeoPoint(*oracle_from_local(a, x / 2, y / 2)))


class TestTrustedPoints:
    """destination, midpoint and snap_point build their points without the
    public constructor; each point must equal, bit for bit, the GeoPoint
    built from its own coordinates, so the check and wrap they skip would
    have changed nothing."""

    @staticmethod
    def assert_canonical(p: GeoPoint) -> None:
        assert bits(p) == bits(GeoPoint(p.lat, p.lon))

    @settings(max_examples=500, deadline=None)
    @given(lat=LATS, lon=LONS, bearing=st.floats(0.0, 360.0), dist=st.floats(0.0, 60_000.0))
    @example(lat=0.0, lon=179.999, bearing=90.0, dist=500.0)
    @example(lat=0.0, lon=-180.0, bearing=270.0, dist=500.0)
    def test_destination(self, lat, lon, bearing, dist):
        self.assert_canonical(destination(GeoPoint(lat, lon), bearing, dist))

    @settings(max_examples=500, deadline=None)
    @given(a_lat=LATS, a_lon=LONS, dlat=OFFSETS, dlon=OFFSETS)
    @example(a_lat=10.0, a_lon=179.999, dlat=0.0, dlon=0.004)
    def test_midpoint(self, a_lat, a_lon, dlat, dlon):
        try:
            m = midpoint(GeoPoint(a_lat, a_lon), GeoPoint(a_lat + dlat, a_lon + dlon))
        except LocalFrameRangeError:
            return
        self.assert_canonical(m)

    @settings(max_examples=500, deadline=None)
    @given(
        lat=LATS,
        # Within half a cell west of the antimeridian, floor(lon / g + 0.5) * g
        # is exactly 180.0 on each of these grids.
        lon=st.one_of(LONS, st.floats(179.9975, 180.0, exclude_max=True)),
        grid=st.sampled_from((0.005, 0.0125, 0.05, 0.5)),
    )
    @example(lat=10.0, lon=179.999, grid=0.005)
    def test_snap_point(self, lat, lon, grid):
        self.assert_canonical(Quantizer(grid).snap_point(GeoPoint(lat, lon)))

    def test_snap_point_at_the_antimeridian_node_is_west(self):
        assert Quantizer().snap_point(GeoPoint(10.0, 179.999)).lon == -180.0

    def test_wrap_a_rounding_error_west_of_the_antimeridian(self):
        # -180 - 2**-45 wraps to 360.0 - 180.0 in floating point, which must
        # still read -180.0, and midpoint's wrap meets it at this example.
        assert GeoPoint(0.0, -180.0 - 2.0**-45).lon == -180.0
        m = midpoint(GeoPoint(0.0, -179.99000000000004), GeoPoint(0.0, -180.01000000000004))
        assert m.lon == -180.0
        self.assert_canonical(m)
