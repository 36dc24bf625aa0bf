"""Service core: snapping, bucketing, quota, speed ban, and search semantics."""

from __future__ import annotations

import hashlib
import json
import math
import pickle
import random
import sys
import threading
import time
from bisect import bisect_left

import pytest
from hypothesis import example, given, settings, strategies as st

from proxilab import service
from proxilab.geo import GeoPoint, ProjectionDomainError, destination, distance
from proxilab.service import (
    DEFAULT_CLASS_TABLE,
    DISTANCE_CLASSES_M,
    FloodWaitError,
    LocalClient,
    ProtocolError,
    Quantizer,
    RegistryFormatError,
    Service,
    SpeedBanError,
    TargetRegistry,
    classify,
)

from conftest import (
    oracle_bbox_local,
    oracle_class,
    oracle_haversine,
    oracle_inv_y,
    oracle_node,
    oracle_node_latlon,
    oracle_region_cells,
    oracle_wrap_lon,
    walk_records,
)


def make_service(targets, **kwargs) -> Service:
    registry = TargetRegistry()
    for tid, pos, *contacts in targets:
        registry.add(tid, pos, contacts[0] if contacts else ())
    return Service(registry, **kwargs)


class TestQuantizer:
    def test_origin_node(self):
        assert Quantizer().snap_point(GeoPoint(0.0, 0.0)) == GeoPoint(0.0, 0.0)

    def test_rounding_split_at_half_cell(self):
        q = Quantizer()
        assert q.snap_point(GeoPoint(0.0024, 0.0)) == GeoPoint(0.0, 0.0)
        assert q.snap_point(GeoPoint(0.0026, 0.0)) == GeoPoint(*oracle_node_latlon(0, 1))

    def test_row_index_at_60_degrees(self):
        assert Quantizer().snap_point(GeoPoint(60.0, 0.0)).lat == oracle_node_latlon(0, 15091)[0]

    def test_snap_idempotent_10k_points(self):
        q = Quantizer()
        rng = random.Random(99)
        for _ in range(10_000):
            p = GeoPoint(rng.uniform(-84.9, 84.9), rng.uniform(-180, 180))
            node = q.snap_point(p)
            assert q.snap_point(node) == node

    @settings(max_examples=500, deadline=None)
    @given(
        lat=st.floats(-85.0, 85.0),
        lon=st.one_of(st.floats(-180.0, 180.0), st.floats(179.99, 180.0), st.floats(-180.0, -179.99)),
        grid=st.sampled_from((0.005, 0.0125, 0.05, 0.2)),
    )
    # GeoPoint stores the wrapped longitude, which may differ from lon in
    # the last bits: 1.1 is kept as 1.0999999999999943, just west of the
    # half-cell tie at 1.1 on a 0.2 grid, so it snaps west.
    @example(lat=0.0, lon=1.1, grid=0.2)
    def test_snap_matches_oracle(self, lat, lon, grid):
        got = Quantizer(grid).snap_point(GeoPoint(lat, lon))
        want_lat, want_lon = oracle_node_latlon(*oracle_node(lat, oracle_wrap_lon(lon), grid), grid)
        assert (got.lat.hex(), got.lon.hex()) == (want_lat.hex(), want_lon.hex())

    @pytest.mark.parametrize("grid_deg", [0.0, -0.005, math.nan, math.inf])
    def test_pitch_must_be_finite_and_positive(self, grid_deg):
        with pytest.raises(ValueError, match="grid_deg must be finite and positive"):
            Quantizer(grid_deg)

    def test_snap_point_domain_error_at_the_mercator_limit(self):
        q = Quantizer()
        for lat in (85.06, -85.06, 85.1, 89.0):
            with pytest.raises(ProjectionDomainError):
                q.snap_point(GeoPoint(lat, 0.0))
        assert abs(q.snap_point(GeoPoint(85.0599, 0.0)).lat) < 85.06

    def test_cell_size_examples(self):
        q = Quantizer()
        assert q.cell_size(0.0) == pytest.approx(556.6, abs=0.05)
        assert q.cell_size(71.3) == pytest.approx(556.5974539663679 * math.cos(math.radians(71.3)), abs=1e-6)
        assert q.cell_size(71.3) == pytest.approx(178.4, abs=0.1)
        assert q.cell_size(5.154237) == pytest.approx(554.3, abs=0.1)

    def test_adjacent_nodes_are_cell_size_apart_in_both_axes(self):
        q = Quantizer()
        for lat in (0.0, 23.0, 40.0, 60.0, 71.3):
            i, j = oracle_node(lat, 10.0)
            p0 = q.snap_point(GeoPoint(lat, 10.0))
            east = oracle_node_latlon(i + 1, j)
            north = oracle_node_latlon(i, j + 1)
            s = q.cell_size(p0.lat)
            assert oracle_haversine(p0.lat, p0.lon, *east) == pytest.approx(s, rel=1e-4)
            assert oracle_haversine(p0.lat, p0.lon, *north) == pytest.approx(s, rel=1e-4)


class TestClassify:
    def test_zero_distance_non_contact(self):
        assert classify(0.0) == 500

    def test_midpoint_between_500_and_1000(self):
        assert classify(749.0) == 500
        assert classify(750.0) == 500  # tie goes to the smaller class
        assert classify(751.0) == 1000

    def test_nearest_by_absolute_difference(self):
        assert classify(1670.0) == 2000

    def test_contact_only_class(self):
        assert classify(30.0, contact=True) == 100
        assert classify(30.0, contact=False) == 500
        assert classify(300.0, contact=True) == 100  # tie with 500 goes to 100

    def test_every_class_midpoint(self):
        assert classify(1500.0) == 1000
        assert classify(math.nextafter(1500.0, math.inf)) == 2000
        for contact in (False, True):
            allowed = DEFAULT_CLASS_TABLE[contact]
            assert allowed == tuple(sorted(
                c for c in DISTANCE_CLASSES_M if contact or c != 100
            ))
            for lower, upper in zip(allowed, allowed[1:]):
                mid = (lower + upper) / 2.0
                assert classify(mid, contact=contact) == lower
                assert classify(math.nextafter(mid, math.inf), contact=contact) == upper

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        d=st.one_of(
            st.floats(0.0, 13_000.0),
            st.sampled_from(DISTANCE_CLASSES_M).map(float),
        ),
        contact=st.booleans(),
    )
    def test_matches_nearest_class_by_full_scan(self, d, contact):
        allowed = [c for c in DISTANCE_CLASSES_M if contact or c != 100]
        expected = None
        if d <= max(allowed) + 500.0:
            expected = min(allowed, key=lambda c: (abs(d - c), c))
        assert classify(d, contact=contact) == expected

    def test_cut_table_equals_the_two_neighbour_rule_within_2000_ulps(self):
        # classify's former rule: bisect the classes, then compare the two
        # neighbours of d, a tie to the smaller class.
        def two_neighbour(d: float, allowed: tuple) -> int | None:
            if d > allowed[-1] + 500.0:
                return None
            k = bisect_left(allowed, d)
            if k == 0:
                return allowed[0]
            if k == len(allowed):
                return allowed[-1]
            lower, upper = allowed[k - 1], allowed[k]
            return lower if d - lower <= upper - d else upper

        centres = {float(c) for c in DISTANCE_CLASSES_M} | {12_500.0}
        for allowed in DEFAULT_CLASS_TABLE:
            centres |= {(lo + hi) / 2.0 for lo, hi in zip(allowed, allowed[1:])}
        points = []
        for c in centres:
            up = down = c
            points.append(c)
            for _ in range(2_000):
                up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
                points += (up, down)
        assert len(points) == 28 * 4_001
        for contact in (False, True):
            allowed = DEFAULT_CLASS_TABLE[contact]
            mismatches = [d for d in points if classify(d, contact) != two_neighbour(d, allowed)]
            assert mismatches == []

    def test_class_cutoffs(self):
        # search's stop table rests on these: the largest distance that
        # classifies to a class <= c, for either contact flag, in order.
        assert list(service.CLASS_CUTOFF_M.items()) == [
            (100, 300.0), (500, 750.0), (1000, 1500.0), (2000, 2500.0), (3000, 3500.0),
            (4000, 4500.0), (5000, 5500.0), (6000, 6500.0), (7000, 7500.0), (8000, 8500.0),
            (9000, 9500.0), (10000, 10500.0), (11000, 11500.0), (12000, 12500.0),
        ]

    def test_not_listed_beyond_cutoff(self):
        assert classify(12_500.0) == 12_000
        assert classify(12_500.1) is None

    def test_class_vocabulary(self):
        assert len(DISTANCE_CLASSES_M) == 14
        assert DISTANCE_CLASSES_M[0] == 100 and DISTANCE_CLASSES_M[-1] == 12_000

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            classify(-1.0)


class TestAdmission:
    def test_quota_1000_then_flood_wait(self):
        svc = make_service([("t", GeoPoint(0, 0))])
        pos = GeoPoint(0, 0)
        for k in range(1000):
            svc.search("a", pos, float(k))
        with pytest.raises(FloodWaitError) as ei:
            svc.search("a", pos, 1000.0)
        assert ei.value.retry_after_s > 0
        assert svc.account("a").total_admitted == 1000

    def test_flood_ban_expires_after_24h(self):
        svc = make_service([("t", GeoPoint(0, 0))])
        pos = GeoPoint(0, 0)
        for k in range(1000):
            svc.search("a", pos, float(k))
        with pytest.raises(FloodWaitError):
            svc.search("a", pos, 1000.0)
        # still banned one second before expiry
        with pytest.raises(FloodWaitError):
            svc.search("a", pos, 1000.0 + 86_399.0)
        svc.search("a", pos, 1000.0 + 86_400.0)

    def test_speed_threshold_90kmh(self):
        svc = make_service([("t", GeoPoint(0, 0))])
        start = GeoPoint(0, 0)
        moved = destination(start, 90.0, 2500.0)
        svc.search("fast", start, 0.0)
        with pytest.raises(SpeedBanError):
            svc.search("fast", moved, 99.0)  # ~90.9 km/h
        svc.search("slow", start, 0.0)
        svc.search("slow", moved, 101.0)  # ~89.1 km/h

    def test_speed_ban_expires_after_24h(self):
        svc = make_service([("t", GeoPoint(0, 0))])
        start = GeoPoint(0, 0)
        moved = destination(start, 90.0, 2500.0)
        svc.search("a", start, 0.0)
        with pytest.raises(SpeedBanError):
            svc.search("a", moved, 10.0)
        with pytest.raises(SpeedBanError):
            svc.search("a", start, 10.0 + 86_399.0)
        svc.search("a", start, 10.0 + 86_400.0)

    def test_first_query_has_no_velocity_baseline(self):
        svc = make_service([("t", GeoPoint(0, 0))])
        svc.search("a", GeoPoint(10.0, 10.0), 0.0)

    def test_rejected_query_does_not_consume_quota(self):
        svc = make_service([("t", GeoPoint(0, 0))], daily_quota=5)
        pos = GeoPoint(0, 0)
        for k in range(5):
            svc.search("a", pos, float(k))
        for k in range(3):
            with pytest.raises(FloodWaitError):
                svc.search("a", pos, 5.0 + k * 0.1)
        assert svc.account("a").total_admitted == 5

    def test_quota_resets_each_utc_day(self):
        svc = make_service([("t", GeoPoint(0, 0))], daily_quota=3)
        pos = GeoPoint(0, 0)
        for day in range(3):
            for k in range(3):
                svc.search("a", pos, day * 86_400.0 + k)
        assert svc.account("a").total_admitted == 9

    def test_quota_ledger_under_interleaving(self):
        svc = make_service([("t", GeoPoint(0, 0))], daily_quota=50)
        pos = GeoPoint(0, 0)
        clocks = {"a": 0.0, "b": 0.0, "c": 0.0}
        admitted = {"a": 0, "b": 0, "c": 0}
        rng = random.Random(4)
        for _ in range(400):
            who = rng.choice("abc")
            clocks[who] += 1.0
            try:
                svc.search(who, pos, clocks[who])
                admitted[who] += 1
            except FloodWaitError:
                pass
        for who in "abc":
            assert admitted[who] == 50
            assert svc.account(who).total_admitted == 50

    def test_concurrent_first_use_of_accounts(self, monkeypatch):
        # All threads meet at each fresh account and race to create it; the
        # account must end with one state that counts every thread's search.
        # A slow state constructor widens the window between a thread
        # missing the account in the table and its insert, so a creation
        # that does not check again under the guard loses searches.
        class SlowAccountState(service.AccountState):
            def __init__(self, *args, **kwargs):
                time.sleep(0.001)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(service, "AccountState", SlowAccountState)
        svc = make_service([("t", GeoPoint(0, 0))])
        accounts = [f"fresh{k:02d}" for k in range(50)]
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        errors: list[BaseException] = []

        def first_use() -> None:
            try:
                for account in accounts:
                    barrier.wait(timeout=30.0)
                    svc.search(account, GeoPoint(0.001, 0.001), 5.0)
            except BaseException as exc:
                errors.append(exc)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=first_use) for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert [svc.account(a).total_admitted for a in accounts] == [n_threads] * len(accounts)

    def test_polar_query_rejected_before_admission(self):
        svc = make_service([("t", GeoPoint(0, 0))])
        svc.search("a", GeoPoint(0.0, 0.0), 0.0)
        for lat in (85.06, -85.06):
            with pytest.raises(ProjectionDomainError):
                svc.search("a", GeoPoint(lat, 0.0), 10.0)
        acct = svc.account("a")
        assert (acct.total_admitted, acct.queries_today, acct.last_ts) == (1, 1, 0.0)

    def test_non_monotonic_timestamp_is_protocol_error(self):
        svc = make_service([("t", GeoPoint(0, 0))])
        svc.search("a", GeoPoint(0, 0), 100.0)
        with pytest.raises(ProtocolError):
            svc.search("a", GeoPoint(0, 0), 99.0)


class TestOneLock:
    """Admission and the walk share the registry's lock; a search that is
    rejected must still release it."""

    @staticmethod
    def assert_released(svc: Service) -> None:
        assert not svc.registry._lock.locked()
        t = threading.Thread(target=svc.search, args=("other", GeoPoint(0.0, 0.0), 0.0), daemon=True)
        t.start()
        t.join(timeout=10.0)
        assert not t.is_alive()
        assert svc.account("other").total_admitted == 1

    @pytest.mark.parametrize("quota, second, exc", [
        pytest.param(1, GeoPoint(0.0, 0.0), FloodWaitError, id="flood-wait"),
        pytest.param(10, GeoPoint(0.0, 1.0), SpeedBanError, id="speed-ban"),
    ])
    def test_banned_search_releases_the_lock(self, quota, second, exc):
        svc = make_service([("t", GeoPoint(0.0, 0.0))], daily_quota=quota)
        svc.search("a", GeoPoint(0.0, 0.0), 0.0)
        with pytest.raises(exc):
            svc.search("a", second, 5.0)
        self.assert_released(svc)

    def test_protocol_error_releases_the_lock(self):
        svc = make_service([("t", GeoPoint(0.0, 0.0))])
        svc.search("a", GeoPoint(0.0, 0.0), 10.0)
        with pytest.raises(ProtocolError):
            svc.search("a", GeoPoint(0.0, 0.0), 9.0)
        self.assert_released(svc)

    def test_polar_query_releases_the_lock(self):
        svc = make_service([("t", GeoPoint(0.0, 0.0))])
        with pytest.raises(ProjectionDomainError):
            svc.search("a", GeoPoint(85.06, 0.0), 0.0)
        self.assert_released(svc)

    def test_account_takes_the_search_lock(self):
        svc = make_service([("t", GeoPoint(0.0, 0.0))])
        got = []
        with svc.registry._lock:
            t = threading.Thread(target=lambda: got.append(svc.account("a")), daemon=True)
            t.start()
            t.join(timeout=0.2)
            assert t.is_alive() and got == []
        t.join(timeout=10.0)
        assert not t.is_alive() and got[0] is svc.account("a")


class TestSearch:
    def test_same_cell_reports_500(self):
        svc = make_service([("t", GeoPoint(0.001, 0.001))])
        assert svc.search("a", GeoPoint(0.0012, 0.0008), 0.0) == [("t", 500)]

    def test_one_and_two_cells_east_at_equator(self):
        svc = make_service([("t", GeoPoint(0, 0))])
        assert svc.search("a", GeoPoint(0.0, 0.005), 0.0) == [("t", 500)]
        assert svc.search("a", GeoPoint(0.0, 0.010), 3600.0) == [("t", 1000)]

    def test_diagonal_cell_regimes(self):
        # one cell diagonal: 1000 at the equator, 500 at latitude 40
        svc_eq = make_service([("t", GeoPoint(0, 0))])
        assert svc_eq.search("a", GeoPoint(0.005, 0.005), 0.0) == [("t", 1000)]
        t40 = GeoPoint(40.0, 0.0)
        svc_40 = make_service([("t", t40)])
        i, j = oracle_node(t40.lat, t40.lon)
        diag = GeoPoint(*oracle_node_latlon(i + 1, j + 1))
        assert svc_40.search("a", diag, 0.0) == [("t", 500)]

    def test_results_sorted_by_class_then_id(self):
        svc = make_service([
            ("far", GeoPoint(0.0, 0.02)),
            ("b-near", GeoPoint(0.0, 0.0)),
            ("a-near", GeoPoint(0.001, 0.001)),
        ])
        out = svc.search("acct", GeoPoint(0.0, 0.0), 0.0)
        assert out == [("a-near", 500), ("b-near", 500), ("far", 2000)]

    def test_result_cap_100_entries(self):
        registry = TargetRegistry()
        for k in range(140):
            registry.add(f"t{k:03d}", GeoPoint(0.0, 0.0002 * k))
        svc = Service(registry)
        out = svc.search("a", GeoPoint(0.0, 0.0), 0.0)
        assert len(out) == 100

    def test_max_results_below_one_rejected(self):
        for max_results in (0, -1):
            with pytest.raises(ValueError):
                make_service([("t", GeoPoint(0, 0))], max_results=max_results)

    @pytest.mark.parametrize("speed_limit", [math.nan, 0.0, -1.0, -math.inf])
    def test_speed_limit_not_positive_rejected(self, speed_limit):
        # A NaN limit would admit every jump: `d > nan * dt` is false.
        with pytest.raises(ValueError, match="speed_limit_mps"):
            make_service([("t", GeoPoint(0, 0))], speed_limit_mps=speed_limit)

    def test_infinite_speed_limit_never_bans(self):
        svc = make_service([("t", GeoPoint(0, 0))], speed_limit_mps=math.inf)
        svc.search("a", GeoPoint(0.0, 0.0), 0.0)
        svc.search("a", GeoPoint(1.0, 0.0), 1.0)  # 111 km in 1 s
        assert svc.account("a").ban_events == 0

    @pytest.mark.parametrize("quota", [math.nan, 5.0, 0, -1, True, "5"])
    def test_daily_quota_not_a_count_rejected(self, quota):
        # A NaN quota would never flood: `queries_today >= nan` is false.
        with pytest.raises(ValueError, match="daily_quota"):
            make_service([("t", GeoPoint(0, 0))], daily_quota=quota)

    def test_out_of_range_target_not_listed(self):
        svc = make_service([("t", GeoPoint(0.0, 0.3))])  # ~33 km away
        assert svc.search("a", GeoPoint(0.0, 0.0), 0.0) == []

    def test_contact_flag_is_per_account(self):
        svc = make_service([("t", GeoPoint(0, 0), ("friend",))])
        assert svc.search("friend", GeoPoint(0.0004, 0.0), 0.0) == [("t", 100)]
        assert svc.search("other", GeoPoint(0.0004, 0.0), 0.0) == [("t", 500)]

    def test_responses_piecewise_constant_within_cell(self):
        svc = make_service([("t", GeoPoint(40.0001, -3.0002))])
        rng = random.Random(8)
        base = None
        for k in range(50):
            # points spread inside one cell: identical snapped position
            p = GeoPoint(40.0 + rng.uniform(-0.002, 0.002), -3.0 + rng.uniform(-0.002, 0.002))
            node = svc.quantizer.snap_point(p)
            if base is None:
                base_node, base = node, svc.search("a", p, k * 3600.0)
            elif node == base_node:
                assert svc.search("a", p, k * 3600.0) == base

    def test_search_matches_oracle_over_region(self):
        # Every node within the oracle's region reach of the target, from
        # the equator to the Mercator limit and across the antimeridian.
        rng = random.Random(21)
        places = [(lat, rng.uniform(-1, 1)) for lat in (0.0, 5.0, 40.0, 60.0, 80.0, -80.0, 84.9, -84.9)]
        places.append((60.0, -179.99))
        for lat, lon in places:
            target = GeoPoint(lat + rng.uniform(-0.002, 0.002), lon)
            svc = make_service([("t", target)])
            i, j = oracle_node(target.lat, target.lon)
            reach = int(800.0 / svc.quantizer.cell_size(target.lat)) + 2
            ts = 0.0
            for di in range(-reach, reach + 1):
                for dj in range(-reach, reach + 1):
                    finder = GeoPoint(*oracle_node_latlon(i + di, j + dj))
                    got = dict(svc.search("a", finder, ts))
                    assert got.get("t") == oracle_class(finder, target), (lat, lon, di, dj)
                    ts += 3600.0

    def test_region_is_exactly_the_sub_750m_cells(self):
        # brute-force enumeration: the 500-region is a plus at the equator
        # and a 3x3 block at latitude 40
        eq_cells = oracle_region_cells(GeoPoint(0.0, 0.0))
        assert eq_cells == {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}
        sq_cells = oracle_region_cells(GeoPoint(40.0, -3.0))
        assert sq_cells == {(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)}

    @pytest.mark.parametrize("lat", [84.9, -84.9])
    def test_oracle_region_holds_near_the_mercator_limit(self, lat):
        # Cells are 49.5 m here, so the region is 31 cells wide; a fixed
        # +-7 cell enumeration would cut it at 15 cells.
        target = GeoPoint(lat, 0.0)
        i0, j0 = oracle_node(target.lat, target.lon)
        n_lat, n_lon = oracle_node_latlon(i0, j0)
        wide = {
            (di, dj)
            for di in range(-60, 61)
            for dj in range(-60, 61)
            if oracle_haversine(*oracle_node_latlon(i0 + di, j0 + dj), n_lat, n_lon) <= 750.0
        }
        assert oracle_region_cells(target) == wide
        assert max(di for di, _ in wide) == 15
        x_lo, x_hi, _, _ = oracle_bbox_local(target)
        assert (x_lo, x_hi) == pytest.approx((-766.91, 766.91), abs=0.01)

    def test_determinism_across_instances(self):
        def run(svc):
            out = []
            rng = random.Random(17)
            for k in range(100):
                p = GeoPoint(rng.uniform(-0.01, 0.01), rng.uniform(-0.01, 0.01))
                out.append(json.dumps(svc.search("a", p, k * 3600.0)))
            return out

        targets = [("t1", GeoPoint(0.001, 0.002)), ("t2", GeoPoint(-0.004, 0.006))]
        assert run(make_service(targets)) == run(make_service(targets))


def brute_force_search(svc: Service, account: str, pos: GeoPoint) -> list[tuple[str, int]]:
    """The listing by a scan over every record of the registry."""
    query_pt = svc.quantizer.snap_point(pos)
    out = []
    for rec in svc.registry.iter_sorted():
        d = distance(query_pt, svc.quantizer.snap_point(rec.pos))
        cls = classify(d, contact=account in rec.contact_of)
        if cls is not None:
            out.append((rec.id, cls))
    out.sort(key=lambda e: (e[1], e[0]))
    return out[: svc.max_results]


def _clamped(p: GeoPoint) -> GeoPoint:
    return GeoPoint(max(-85.0, min(85.0, p.lat)), p.lon)


ACCOUNTS = ("a", "b", "c")
# Centers anywhere, near the Mercator limit, or within 0.05 deg of +-180.
LAT_BANDS = st.sampled_from([(-85.0, 85.0), (84.0, 85.0), (-85.0, -84.0)])
LON_BANDS = st.sampled_from([(-180.0, 180.0), (179.95, 180.0), (-180.0, -179.95)])


class TestIndexedSearch:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        lat_band=LAT_BANDS,
        lon_band=LON_BANDS,
        n_targets=st.integers(1, 160),
        spread_m=st.sampled_from([2_000.0, 14_000.0, 30_000.0]),
        ring=st.booleans(),
        grid_deg=st.sampled_from([0.005, 0.0125, 0.05]),
        max_results=st.sampled_from([1, 5, 100]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_brute_force_scan(
        self, lat_band, lon_band, n_targets, spread_m, ring, grid_deg, max_results, seed
    ):
        # ring=True puts the targets 11-16 km out and the queries near the
        # center, so many targets sit at the 12.5 km listing cut-off.
        rng = random.Random(seed)
        center = GeoPoint(rng.uniform(*lat_band), rng.uniform(*lon_band))

        def around(lo_m: float, hi_m: float) -> GeoPoint:
            dist = lo_m + (hi_m - lo_m) * rng.random() ** 0.5
            return _clamped(destination(center, rng.uniform(0.0, 360.0), dist))

        target_span = (11_000.0, 16_000.0) if ring else (0.0, spread_m)
        query_span = (0.0, 500.0) if ring else (0.0, spread_m)
        registry = TargetRegistry()
        for k in range(n_targets):
            contacts = [a for a in ACCOUNTS[:2] if rng.random() < 0.2]
            registry.add(f"t{k:03d}", around(*target_span), contacts)
        svc = Service(
            registry,
            Quantizer(grid_deg),
            max_results=max_results,
            speed_limit_mps=math.inf,
        )
        for step in range(12):
            if step % 3 == 2:
                registry.move(f"t{rng.randrange(n_targets):03d}", around(*target_span))
            account = rng.choice(ACCOUNTS)
            pos = around(*query_span)
            assert svc.search(account, pos, float(step)) == brute_force_search(svc, account, pos)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        lat_band=LAT_BANDS,
        lon_band=LON_BANDS,
        # 2,000 targets over 40 km occupy more blocks than the window of a
        # small radius holds, so the walk looks the window's blocks up;
        # fewer targets, one included, or a larger radius, make it place
        # each occupied block in its ring.
        n_targets=st.sampled_from([1, 50, 2_000]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_near_holds_every_target_within_the_radius(self, lat_band, lon_band, n_targets, seed):
        rng = random.Random(seed)
        center = GeoPoint(rng.uniform(*lat_band), rng.uniform(*lon_band))
        registry = TargetRegistry()
        for k in range(n_targets):
            dist = 40_000.0 * rng.random() ** 0.5
            registry.add(f"t{k}", _clamped(destination(center, rng.uniform(0.0, 360.0), dist)))
        for _ in range(10):
            q = _clamped(destination(center, rng.uniform(0.0, 360.0), 20_000.0 * rng.random()))
            radius = rng.uniform(0.0, 30_000.0)
            got = [rec.id for rec in walk_records(registry, q, radius)]
            assert len(got) == len(set(got))
            within = {rec.id for rec in registry.iter_sorted() if distance(q, rec.pos) <= radius}
            assert within <= set(got)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        lat=st.one_of(st.floats(-84.9, 84.9), st.floats(84.0, 84.9), st.floats(-84.9, -84.0)),
        lon_band=LON_BANDS,
        n_targets=st.integers(1_000, 3_000),
        disc_m=st.sampled_from([3_000.0, 15_000.0]),
        clustered=st.booleans(),
        grid_deg=st.sampled_from([0.005, 0.0125, 0.05]),
        max_results=st.sampled_from([1, 5, 100]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_dense_registry_equals_brute_force_scan(
        self, lat, lon_band, n_targets, disc_m, clustered, grid_deg, max_results, seed
    ):
        # Thousands of targets in a disc fill a listing long before the
        # walk runs out of blocks, so the early stop decides; a 3 km disc
        # occupies few enough blocks that the walk places each occupied
        # block in its ring instead of looking the window up. clustered
        # puts the targets in 30 tight clusters, so many of them share the
        # class of the k-th entry and ties by id straddle the stop; ids
        # are shuffled so that id order says nothing about distance.
        rng = random.Random(seed)
        center = GeoPoint(lat, rng.uniform(*lon_band))

        def around(radius_m: float, origin: GeoPoint = center) -> GeoPoint:
            return _clamped(destination(origin, rng.uniform(0.0, 360.0), radius_m * rng.random() ** 0.5))

        clusters = [around(disc_m) for _ in range(30)]
        ids = [f"t{k:04d}" for k in range(n_targets)]
        rng.shuffle(ids)
        registry = TargetRegistry()
        for tid in ids:
            pos = around(150.0, rng.choice(clusters)) if clustered else around(disc_m)
            registry.add(tid, pos, [a for a in ACCOUNTS[:2] if rng.random() < 0.02])
        svc = Service(registry, Quantizer(grid_deg), max_results=max_results, speed_limit_mps=math.inf)
        for step in range(6):
            if step % 2 == 1:
                tid = rng.choice(ids)
                moved = destination(registry.position(tid), rng.uniform(0.0, 360.0), 3_000.0)
                registry.move(tid, _clamped(moved))
            account = rng.choice(ACCOUNTS)
            pos = around(disc_m + 1_000.0)
            assert svc.search(account, pos, float(step)) == brute_force_search(svc, account, pos)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        north=st.booleans(),
        n_targets=st.integers(2, 400),
        grid_deg=st.sampled_from([2.0, 5.0, 10.0, 20.0]),
        max_results=st.sampled_from([1, 5, 100]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_polar_windows_equal_brute_force_scan(self, north, n_targets, grid_deg, max_results, seed):
        # On grids of several degrees the reach grows with the snap
        # displacement to hundreds of km, so from beyond 80 deg the window
        # often reaches a pole and takes every column. Half the targets lie
        # near the center, where they can share the querier's node, and the
        # rest anywhere within 2,000 km.
        rng = random.Random(seed)
        center = GeoPoint(rng.uniform(80.0, 85.0) * (1.0 if north else -1.0), rng.uniform(-180.0, 180.0))

        def around(radius_m: float) -> GeoPoint:
            return _clamped(destination(center, rng.uniform(0.0, 360.0), radius_m * rng.random() ** 0.5))

        def spread(k: int) -> GeoPoint:
            return around(30_000.0 if k % 2 else 2_000_000.0)

        registry = TargetRegistry()
        for k in range(n_targets):
            registry.add(f"t{k:03d}", spread(k), [a for a in ACCOUNTS[:2] if rng.random() < 0.2])
        svc = Service(registry, Quantizer(grid_deg), max_results=max_results, speed_limit_mps=math.inf)
        for step in range(6):
            if step % 3 == 2:
                k = rng.randrange(n_targets)
                registry.move(f"t{k:03d}", spread(k))
            account, pos = rng.choice(ACCOUNTS), around(30_000.0)
            assert svc.search(account, pos, float(step)) == brute_force_search(svc, account, pos)
            query_pt = svc.quantizer.snap_point(pos)
            got = [rec.id for rec in walk_records(registry, query_pt, svc._reach_m)]
            assert len(got) == len(set(got))
            within = {rec.id for rec in registry.iter_sorted() if distance(query_pt, rec.pos) <= svc._reach_m}
            assert within <= set(got)

    @pytest.mark.parametrize("grid_deg, reach_hex", [
        (0.001, "0x1.8915b9e3f424fp+13"),
        (0.005, "0x1.92ec9942a1d53p+13"),
        (0.05, "0x1.00cef51df7a7cp+14"),
        (2.0, "0x1.4be5c436d2f6cp+17"),
        (20.0, "0x1.83e468788dd93p+20"),
    ])
    def test_reach_is_the_stop_of_the_largest_class(self, grid_deg, reach_hex):
        svc = Service(TargetRegistry(), Quantizer(grid_deg))
        assert svc._reach_m.hex() == svc._stop_at[max(DISTANCE_CLASSES_M)].hex() == reach_hex

    def test_early_stop_classifies_fewer_records_than_near_returns(self, monkeypatch):
        rng = random.Random(5)
        center = GeoPoint(40.0, -3.0)
        registry = TargetRegistry()
        for k in range(2_000):
            dist = 15_000.0 * rng.random() ** 0.5
            registry.add(f"t{k:04d}", destination(center, rng.uniform(0.0, 360.0), dist))
        svc = Service(registry)
        calls = []
        class_of = Service._class_of

        def counting_class_of(self, rec, *args):
            calls.append(rec.id)
            return class_of(self, rec, *args)

        monkeypatch.setattr(Service, "_class_of", counting_class_of)
        out = svc.search("a", center, 0.0)
        walked = walk_records(svc.registry, svc.quantizer.snap_point(center), svc._reach_m)
        assert len(out) == 100
        assert 100 <= len(calls) < len(walked)
        assert out == brute_force_search(svc, "a", center)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        lat_band=LAT_BANDS,
        lon_band=LON_BANDS,
        n_targets=st.integers(1, 400),
        grid_deg=st.sampled_from([0.005, 0.0125, 0.05]),
        max_results=st.sampled_from([1, 100]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_class_of_equals_classify_of_the_geo_distance(
        self, lat_band, lon_band, n_targets, grid_deg, max_results, seed
    ):
        # search classifies each record through _class_of, with the
        # record's contact flag; the class it gives every record, in the
        # order the walk yields the records, up to where it stops, must be
        # the one classify gives geo.distance between the snapped points. A registry of one record is not
        # walked: its record is classified whatever the distance.
        rng = random.Random(seed)
        center = GeoPoint(rng.uniform(*lat_band), rng.uniform(*lon_band))

        def around(radius_m: float) -> GeoPoint:
            return _clamped(destination(center, rng.uniform(0.0, 360.0), radius_m * rng.random() ** 0.5))

        registry = TargetRegistry()
        for k in range(n_targets):
            registry.add(f"t{k:03d}", around(14_000.0), [a for a in ACCOUNTS[:2] if rng.random() < 0.2])
        q = Quantizer(grid_deg)
        svc = Service(registry, q, max_results=max_results, speed_limit_mps=math.inf)
        calls = []
        class_of = Service._class_of

        def recording_class_of(self, rec, contact, *args):
            cls = class_of(self, rec, contact, *args)
            calls.append((rec.id, contact, cls))
            return cls

        classified = 0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Service, "_class_of", recording_class_of)
            for step in range(6):
                if step % 2 == 1:
                    registry.move(f"t{rng.randrange(n_targets):03d}", around(14_000.0))
                account, pos = rng.choice(ACCOUNTS), around(3_000.0)
                calls.clear()
                out = svc.search(account, pos, float(step))
                query_pt = q.snap_point(pos)
                expected = [
                    (rec.id, contact, classify(distance(query_pt, q.snap_point(rec.pos)), contact))
                    for rec in (
                        registry.iter_sorted() if n_targets == 1
                        else walk_records(registry, query_pt, svc._reach_m)
                    )
                    for contact in [account in rec.contact_of]
                ]
                # A listing short of max_results walked every record.
                assert calls == (expected if len(out) < max_results else expected[: len(calls)])
                classified += len(calls)
        assert classified > 0

    def test_class_cut_brackets_fall_back_to_classify(self):
        # On grids of 1e-9 to 1e-7 deg the targets' nodes lie within a
        # centimetre or so of where they were placed: within 1 cm either
        # side of every class cut from the querier's node, for both contact
        # flags. Many squared chords fall inside a cut's bracket, where
        # only classify on geo.distance decides; the listing must still be
        # the brute-force scan's.
        fallbacks = []

        def counting_classify(d_m, contact=False):
            fallbacks.append(d_m)
            return classify(d_m, contact)

        @settings(max_examples=40, deadline=None, derandomize=True)
        @given(
            lat=st.one_of(st.floats(-84.9, 84.9), st.floats(84.8, 84.9), st.floats(-84.9, -84.8)),
            lon_band=LON_BANDS,
            grid_deg=st.floats(1e-9, 1e-7),
            seed=st.integers(0, 2**32 - 1),
        )
        def check(lat, lon_band, grid_deg, seed):
            rng = random.Random(seed)
            q = Quantizer(grid_deg)
            pos = GeoPoint(lat, rng.uniform(*lon_band))
            node = q.snap_point(pos)
            registry = TargetRegistry()
            for contact, (cuts, _) in enumerate(service._CLASS_CUTS):
                for k, cut in enumerate(cuts):
                    target = destination(node, rng.uniform(0.0, 360.0), cut + rng.uniform(-0.01, 0.01))
                    registry.add(f"{contact}-{k:02d}", target, ["a"] if contact else [])
            svc = Service(registry, q, max_results=100)
            assert svc.search("a", pos, 0.0) == brute_force_search(svc, "a", pos)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(service, "classify", counting_classify)
            check()
        assert fallbacks

    def test_target_record_is_slotted_frozen_and_picklable(self):
        registry = TargetRegistry()
        registry.add("t", GeoPoint(40.0, -3.0), ["a", "b"])
        (rec,) = registry.iter_sorted()
        assert not hasattr(rec, "__dict__")
        with pytest.raises(AttributeError):
            rec.pos = GeoPoint(0.0, 0.0)
        copy = pickle.loads(pickle.dumps(rec))
        assert copy == rec and hash(copy) == hash(rec)
        assert (copy.id, copy.pos, copy.contact_of) == ("t", GeoPoint(40.0, -3.0), frozenset({"a", "b"}))

    def test_early_stop_allows_for_the_snap_displacement(self):
        # On a 0.2 deg grid, "a" lies 11.1 km north of the querier, eight
        # whole block rows away, yet snaps onto the querier's node, so it
        # shares the 500 m class with "b" and wins the single slot by id.
        # A stop that allowed for less than the whole snap displacement
        # would end the walk after "b".
        q = Quantizer(0.2)
        a = GeoPoint(0.0999, 0.001)
        assert q.snap_point(a) == q.snap_point(GeoPoint(0.0, 0.0)) == GeoPoint(0.0, 0.0)
        svc = make_service([("a", a), ("b", GeoPoint(0.0, 0.0))], quantizer=q, max_results=1)
        assert svc.search("x", GeoPoint(0.0, 0.0), 0.0) == [("a", 500)]

    def test_polar_registry_position_rejected(self):
        registry = TargetRegistry()
        registry.add("t", GeoPoint(0.0, 0.0))
        with pytest.raises(ProjectionDomainError):
            registry.add("polar", GeoPoint(86.0, 0.0))
        with pytest.raises(ProjectionDomainError):
            registry.move("t", GeoPoint(-85.06, 0.0))
        assert [r.id for r in registry.iter_sorted()] == ["t"]
        assert registry.position("t") == GeoPoint(0.0, 0.0)
        assert Service(registry).search("a", GeoPoint(0.0, 0.0), 0.0) == [("t", 500)]

    def test_near_spans_the_antimeridian(self):
        registry = TargetRegistry()
        registry.add("east", GeoPoint(10.0, 179.99))
        registry.add("west", GeoPoint(10.0, -179.99))
        registry.add("far", GeoPoint(10.0, 179.0))
        ids = sorted(rec.id for rec in walk_records(registry, GeoPoint(10.0, 180.0), 13_000.0))
        assert ids == ["east", "west"]

    def test_near_cap_over_the_pole_takes_whole_rows(self):
        registry = TargetRegistry()
        registry.add("across", GeoPoint(85.0, 170.0))  # 1,113 km over the pole
        registry.add("south", GeoPoint(70.0, -10.0))
        ids = [rec.id for rec in walk_records(registry, GeoPoint(85.0, -10.0), 1_200_000.0)]
        assert ids == ["across"]
        # a cap wider than a hemisphere reaches every longitude
        ids = [rec.id for rec in walk_records(registry, GeoPoint(0.0, 50.0), 15_000_000.0)]
        assert sorted(ids) == ["across", "south"]

    def test_reach_covers_the_snap_displacement(self):
        # On a 0.1 deg grid a target 1 m south of the edge between node rows
        # 1 and 2 snaps to row 1, 11.1 km from the querier at node (0, 0),
        # though it lies 16.7 km away. The far record sends the search
        # through the walk of its window of blocks.
        q = Quantizer(0.1)
        target = destination(GeoPoint(oracle_inv_y(0.15), 0.0), 180.0, 1.0)
        assert q.snap_point(target) == GeoPoint(*oracle_node_latlon(0, 1, 0.1))
        querier = GeoPoint(0.001, 0.001)
        assert distance(querier, target) > 16_500.0
        svc = make_service([("t", target), ("far", GeoPoint(40.0, -3.0))], quantizer=q)
        assert svc.search("a", querier, 0.0) == [("t", 11_000)]

    def test_moved_target_never_listed_from_old_position(self):
        svc = make_service([("t", GeoPoint(40.0, -3.0))])
        assert svc.search("a", GeoPoint(40.0, -3.0), 0.0) == [("t", 500)]
        # Beyond the 13.3 km reach, the lone record is not listed.
        assert svc.search("d", destination(GeoPoint(40.0, -3.0), 90.0, 20_000.0), 0.0) == []
        svc.registry.move("t", GeoPoint(41.0, -3.0))
        assert svc.search("b", GeoPoint(40.0, -3.0), 0.0) == []
        assert svc.search("c", GeoPoint(41.0, -3.0), 0.0) == [("t", 500)]

    def test_concurrent_moves_and_searches(self):
        # Moves between blocks race the walk and search(); every record must
        # stay in exactly one block, the one of its current position.
        center = GeoPoint(40.0, -3.0)
        registry = TargetRegistry()
        for k in range(50):
            registry.add(f"t{k:02d}", destination(center, 7.2 * k, 3_000.0))
        svc = Service(registry, speed_limit_mps=math.inf, daily_quota=10**9)
        errors: list[BaseException] = []

        def mover(seed: int) -> None:
            rng = random.Random(seed)
            try:
                for _ in range(3_000):
                    tid = f"t{rng.randrange(50):02d}"
                    registry.move(tid, destination(center, rng.uniform(0, 360), rng.uniform(0, 12_000)))
            except BaseException as exc:
                errors.append(exc)

        def searcher(account: str) -> None:
            try:
                for k in range(300):
                    out = svc.search(account, center, float(k))
                    assert len({tid for tid, _ in out}) == len(out)
                    assert out == sorted(out, key=lambda e: (e[1], e[0]))
                    assert len(walk_records(registry, center, 20_000.0)) == 50
            except BaseException as exc:
                errors.append(exc)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=mover, args=(s,)) for s in (1, 2)]
            threads += [threading.Thread(target=searcher, args=(a,)) for a in ("s1", "s2")]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        recs = walk_records(registry, center, 20_000.0)
        assert sorted(rec.id for rec in recs) == [r.id for r in registry.iter_sorted()]
        assert all(registry.position(rec.id) == rec.pos for rec in recs)
        assert svc.search("final", center, 1e6) == brute_force_search(svc, "final", center)


def _outcome(svc: Service, account: str, pos: GeoPoint, ts: float):
    """A search's listing, or the class and retry_after_s of what it raised."""
    try:
        return svc.search(account, pos, ts)
    except ProjectionDomainError:
        return ProjectionDomainError, None
    except (FloodWaitError, SpeedBanError) as exc:
        return type(exc), exc.retry_after_s


class TestOneRecordSearch:
    """A registry of one record is searched without the walk; it must list,
    admit and reject exactly as the walk does for the same record when a
    second, unreachable record sends the search through the walk."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        lat=st.floats(-85.05, 85.05),
        lon=st.one_of(st.floats(-180.0, 180.0), st.floats(179.95, 180.0), st.floats(-180.0, -179.95)),
        grid_deg=st.floats(0.005, 0.2),
        contact=st.booleans(),
        max_results=st.sampled_from([1, 100]),
        daily_quota=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    # A contact in the 100 m class with one result slot, near the Mercator
    # limit and the antimeridian.
    @example(lat=85.05, lon=179.99, grid_deg=0.2, contact=True, max_results=1, daily_quota=3, seed=0)
    @example(lat=40.0, lon=-3.0, grid_deg=0.005, contact=True, max_results=1, daily_quota=8, seed=1)
    def test_lists_and_rejects_as_the_walk(self, lat, lon, grid_deg, contact, max_results, daily_quota, seed):
        rng = random.Random(seed)
        target = GeoPoint(lat, lon)
        # Thousands of km from the target, so never listed or reached.
        decoy = GeoPoint(0.0 if abs(lat) > 45.0 else 60.0, lon + 90.0)
        contacts = ["a"] if contact else []
        one = make_service([("t", target, contacts)], quantizer=Quantizer(grid_deg),
                           max_results=max_results, daily_quota=daily_quota)
        two = make_service([("t", target, contacts), ("decoy", decoy)], quantizer=Quantizer(grid_deg),
                           max_results=max_results, daily_quota=daily_quota)
        ts = 0.0
        for step in range(16):
            account = rng.choice(("a", "b"))
            if step % 7 == 6:
                pos = GeoPoint(rng.choice((-1.0, 1.0)) * rng.uniform(85.06, 90.0), lon)
            else:
                pos = _clamped(destination(target, rng.uniform(0.0, 360.0), 3_000.0 * rng.random() ** 2))
            # Paced or not, so both speed bans and their expiry show up.
            ts += rng.choice((1.0, 200.0, 90_000.0))
            assert _outcome(one, account, pos, ts) == _outcome(two, account, pos, ts)
            if step % 5 == 4:
                one.registry.move("t", _clamped(destination(target, rng.uniform(0.0, 360.0), 500.0)))
                two.registry.move("t", one.registry.position("t"))
        for account in ("a", "b"):
            assert one.account(account) == two.account(account)

    @settings(max_examples=300, deadline=None)
    @given(
        # 20 km from a start within 84.8 deg stays inside the Mercator domain.
        lat=st.floats(-84.8, 84.8),
        lon=st.floats(-180.0, 180.0),
        bearing=st.floats(0.0, 360.0),
        dist=st.floats(1e-3, 20_000.0),
        side=st.sampled_from([-1, 0, 1]),
    )
    def test_speed_ban_decision_at_the_limit(self, lat, lon, bearing, dist, side):
        # _admit inlines geo.distance; with the limit set at that distance
        # over one second, or one ulp either side, its ban decision must be
        # the one geo.distance gives.
        start = GeoPoint(lat, lon)
        moved = destination(start, bearing, dist)
        d = distance(start, moved)
        if not d > 0.0:
            return
        limit = d if side == 0 else math.nextafter(d, side * math.inf)
        svc = make_service([("t", start)], speed_limit_mps=limit)
        svc.search("a", start, 0.0)
        banned = d > limit * 1.0
        assert banned == (side < 0)
        if banned:
            with pytest.raises(SpeedBanError):
                svc.search("a", moved, 1.0)
        else:
            svc.search("a", moved, 1.0)


# Four 15 km city discs: equatorial, 25 deg, 64 deg, and one straddling +-180.
PIN_CITIES = (GeoPoint(0.0, 10.0), GeoPoint(25.3, 51.5), GeoPoint(64.1, -21.9), GeoPoint(-16.8, 180.0))
# sha256 of the listings of `seeded_listings()`, one JSON array per line.
GOLDEN_LISTINGS = "9735366069a55f1f34b2b212e7fd697a1ff7942c117b19e00d326d10232a98cf"


def seeded_listings() -> list[list[tuple[str, int]]]:
    """300 searches over 3,000 targets in PIN_CITIES, 2% of them contacts of
    account a, with a target move before every fifth search. Every fourth
    search is account a's, next to one of its contacts; the others land up
    to 25 km from a city center, so some listings fall short of 100."""
    rng = random.Random(2024)

    def in_city(radius_m: float) -> GeoPoint:
        city = rng.choice(PIN_CITIES)
        return destination(city, rng.uniform(0.0, 360.0), radius_m * rng.random() ** 0.5)

    registry = TargetRegistry()
    contacts = []
    for k in range(3_000):
        tid = f"t{k:04d}"
        is_contact = rng.random() < 0.02
        if is_contact:
            contacts.append(tid)
        registry.add(tid, in_city(15_000.0), ("a",) if is_contact else ())
    svc = Service(registry, speed_limit_mps=math.inf)
    listings = []
    for step in range(300):
        if step % 5 == 4:
            tid = f"t{rng.randrange(3_000):04d}"
            registry.move(tid, destination(registry.position(tid), rng.uniform(0.0, 360.0), rng.uniform(10.0, 2_000.0)))
        if step % 4 == 0:
            # account a next to one of its contacts, for the 100 m class
            tid = rng.choice(contacts)
            account, pos = "a", destination(registry.position(tid), rng.uniform(0.0, 360.0), 200.0 * rng.random())
        else:
            account, pos = rng.choice("abc"), in_city(25_000.0)
        listings.append(svc.search(account, pos, float(step)))
    return listings


def test_seeded_listings_digest():
    listings = seeded_listings()
    assert 50 < sum(len(out) == 100 for out in listings) < 300  # truncation fires, not always
    assert any(cls == 100 for out in listings for _, cls in out)  # contacts listed
    lines = "".join(json.dumps(out) + "\n" for out in listings)
    assert hashlib.sha256(lines.encode()).hexdigest() == GOLDEN_LISTINGS


class TestRegistryFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "targets.jsonl"
        path.write_text(
            '{"id": "t1", "lat": 25.26174, "lon": 51.359269}\n'
            '{"id": "t2", "lat": 0.0, "lon": 0.0, "contact_of": ["a"]}\n'
        )
        reg = TargetRegistry.from_jsonl(str(path))
        assert [r.id for r in reg.iter_sorted()] == ["t1", "t2"]
        assert reg.position("t1").lat == 25.26174
        assert [rec.contact_of for rec in reg.iter_sorted()] == [frozenset(), frozenset({"a"})]

    def test_blank_and_whitespace_lines_are_skipped_but_counted(self, tmp_path):
        path = tmp_path / "targets.jsonl"
        path.write_text('\n{"id": "t1", "lat": 1, "lon": 2}\n  \t\n{"id": "t2", "lat": 3, "lon": 4}\n \n')
        reg = TargetRegistry.from_jsonl(str(path))
        assert [(r.id, r.pos.lat) for r in reg.iter_sorted()] == [("t1", 1.0), ("t2", 3.0)]
        path.write_text('\n  \t\nnot json\n')
        with pytest.raises(RegistryFormatError) as ei:
            TargetRegistry.from_jsonl(str(path))
        assert ei.value.line_no == 3

    def test_position_outside_mercator_domain_reports_line_number(self, tmp_path):
        path = tmp_path / "targets.jsonl"
        path.write_text('{"id": "ok", "lat": 0, "lon": 0}\n{"id": "polar", "lat": 86, "lon": 0}\n')
        with pytest.raises(RegistryFormatError) as ei:
            TargetRegistry.from_jsonl(str(path))
        assert ei.value.line_no == 2

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "targets.jsonl"
        path.write_text('{"id": "ok", "lat": 1, "lon": 2}\nnot json\n')
        with pytest.raises(RegistryFormatError) as ei:
            TargetRegistry.from_jsonl(str(path))
        assert ei.value.line_no == 2

    @pytest.mark.parametrize(
        "record, reason",
        [
            ('{"id": "t", "lat": true, "lon": 0}', "lat and lon must be numbers"),
            ('{"id": "t", "lat": 0, "lon": false}', "lat and lon must be numbers"),
            ('{"id": 7, "lat": 0, "lon": 0}', "id must be a non-empty string"),
            ('{"id": null, "lat": 0, "lon": 0}', "id must be a non-empty string"),
            ('{"id": "", "lat": 0, "lon": 0}', "id must be a non-empty string"),
            ('{"id": "t", "lat": 0, "lon": 0, "contact_of": [1]}', "contact_of must be a list of account ids"),
            ('{"id": "t", "lat": 0, "lon": 0, "contact_of": ["a", null]}', "contact_of must be a list of account ids"),
            ('{"id": "t", "lat": 0, "lon": 0, "contact_of": "a"}', "contact_of must be a list of account ids"),
            ('{"id":"t","lat":true,"lon":false,"contact_of":[1,null]}', "lat and lon must be numbers"),
        ],
    )
    def test_malformed_field_reports_path_and_line(self, tmp_path, record, reason):
        path = tmp_path / "targets.jsonl"
        path.write_text('{"id": "ok", "lat": 0, "lon": 0}\n' + record + "\n")
        with pytest.raises(RegistryFormatError) as ei:
            TargetRegistry.from_jsonl(str(path))
        assert ei.value.line_no == 2
        assert str(ei.value).startswith(f"{path}:2: {reason}")

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "targets.jsonl"
        path.write_text('{"id": "x", "lat": 1, "lon": 2}\n{"id": "x", "lat": 3, "lon": 4}\n')
        with pytest.raises(RegistryFormatError) as ei:
            TargetRegistry.from_jsonl(str(path))
        assert ei.value.line_no == 2


class TestLocalClient:
    def test_same_surface_as_service(self):
        svc = make_service([("t", GeoPoint(0, 0))])
        client = LocalClient(svc, "a")
        assert client.search(GeoPoint(0, 0), 0.0) == [("t", 500)]
