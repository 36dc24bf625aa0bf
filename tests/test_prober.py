"""Prober: pacing, phase primitives, the collection loop and its invariants."""

from __future__ import annotations

import hashlib
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from proxilab.geo import GeoPoint, destination, distance, midpoint
from proxilab.prober import (
    INNER_CLASS_M,
    OUTER_CLASS_M,
    PACE_SPEED_MPS,
    Direction,
    DirectionsExhaustedError,
    ProbeConfig,
    ProbeSession,
    TargetNotFoundError,
    Transition,
    _WalkReset,
    collect_transitions,
    pace,
    read_transitions,
    write_transitions,
)
from proxilab.service import LocalClient, Quantizer, Service, TargetRegistry
from proxilab.analysis import bounding_box, InsufficientCoverageError, run_probe_deployment

from conftest import oracle_bbox_local, oracle_class


def make_setup(target_pos: GeoPoint, account: str = "finder"):
    registry = TargetRegistry()
    registry.add("t", target_pos)
    service = Service(registry, Quantizer())
    return LocalClient(service, account), service


class FakeRng:
    """random.Random stand-in with scripted uniform draws."""

    def __init__(self, uniforms):
        self._uniforms = list(uniforms)

    def uniform(self, a, b):
        return self._uniforms.pop(0)

    def random(self):
        return 0.25


class TestPace:
    def test_zero_displacement_ticks_one_second(self):
        p = GeoPoint(0, 0)
        assert pace(p, p, 10.0) == 11.0

    def test_margin_below_ban_threshold(self):
        a = GeoPoint(0, 0)
        b = destination(a, 90.0, 2490.0)
        assert pace(a, b, 0.0) == pytest.approx(2490.0 / 24.9, rel=1e-9)
        assert pace(a, b, 0.0) == pytest.approx(100.0, abs=0.01)

    def test_implied_speed_always_below_limit(self):
        rng = random.Random(2)
        a = GeoPoint(40, -3)
        for _ in range(100):
            b = destination(a, rng.uniform(0, 360), rng.uniform(0.01, 5000))
            dt = pace(a, b, 0.0)
            assert distance(a, b) / dt <= 25.0
            assert PACE_SPEED_MPS < 25.0


class TestProbeConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProbeConfig(accuracy=0.0)
        with pytest.raises(ValueError):
            ProbeConfig(accuracy=10.0, jump=5.0)

    @pytest.mark.parametrize("kwargs", [{"accuracy": math.nan}, {"jump": math.nan}, {"jump": math.inf}])
    def test_nan_or_infinite_rejected(self, kwargs):
        # Every comparison with NaN is false, so a NaN accuracy would never
        # bisect a straddle; an infinite jump has no destination.
        with pytest.raises(ValueError):
            ProbeConfig(**kwargs)

    @pytest.mark.parametrize("reset_distance", [math.nan, -5e-324, -1.0, -math.inf])
    def test_reset_distance_must_be_a_distance(self, reset_distance):
        # A reset test against NaN never fires; a negative one is no distance.
        with pytest.raises(ValueError, match="reset_distance"):
            ProbeConfig(reset_distance=reset_distance)


class TestFindInwardStart:
    def test_hint_on_target_returned_immediately(self):
        target = GeoPoint(0, 0)
        client, _ = make_setup(target)
        sess = ProbeSession(client, "t")
        assert sess.find_inward_start(target) == target
        assert sess.queries == 1

    def test_hint_one_cell_away_found_quickly(self):
        target = GeoPoint(0, 0)
        client, _ = make_setup(target)
        sess = ProbeSession(client, "t", rng=random.Random(6))
        hint = GeoPoint(0.0, 0.005 * 1.4)  # outside the region, one-plus cell east
        start = sess.find_inward_start(hint)
        assert sess.queries <= 20
        assert oracle_class(start, target) == 500

    def test_hint_outside_the_region_finds_a_start_in_its_disc(self):
        # 1.2 km north of the target the hint reads the outer class, so the
        # start is a draw from the 1 km disc around it.
        target = GeoPoint(23.0, 51.35)
        client, _ = make_setup(target)
        sess = ProbeSession(client, "t", rng=random.Random(0))
        hint = destination(target, 0.0, 1200.0)
        assert oracle_class(hint, target) == OUTER_CLASS_M
        start = sess.find_inward_start(hint)
        assert sess.queries == 4
        assert distance(start, hint) == pytest.approx(715.0, abs=1.0)
        assert oracle_class(start, target) == INNER_CLASS_M

    def test_hint_10km_away_not_found(self):
        target = GeoPoint(0, 0)
        client, service = make_setup(target)
        sess = ProbeSession(client, "t", rng=random.Random(0))
        with pytest.raises(TargetNotFoundError):
            sess.find_inward_start(GeoPoint(0.0, 0.09))
        # every probe was admitted and accounted as exploration
        assert sess.exploration_queries == sess.queries
        assert service.account("finder").total_admitted == sess.queries

    def test_unregistered_target_not_found(self):
        client, _ = make_setup(GeoPoint(0, 0))
        sess = ProbeSession(client, "ghost", rng=random.Random(0))
        with pytest.raises(TargetNotFoundError):
            sess.find_inward_start(GeoPoint(0, 0))


class TestChooseDirection:
    def test_from_cell_center_first_draw_accepted(self):
        target = GeoPoint(0, 0)
        client, _ = make_setup(target)
        sess = ProbeSession(client, "t", rng=FakeRng([137.0]))
        bearing, cand = sess.choose_direction(target)
        assert bearing == 137.0
        assert oracle_class(cand, target) == 500
        assert sess.queries == 1

    def test_bearing_toward_boundary_rejected_reverse_accepted(self):
        target = GeoPoint(0, 0)
        client, service = make_setup(target)
        quant = service.quantizer
        # 10 m inside the east face of the equatorial plus shape
        east_face = destination(target, 90.0, 1.5 * quant.cell_size(0.0))
        pos = destination(east_face, 270.0, 10.0)
        sess = ProbeSession(client, "t", rng=FakeRng([90.0, 270.0]))
        bearing, _ = sess.choose_direction(pos)
        assert bearing == 270.0
        assert sess.queries == 2

    def test_exhausted_after_32_rejected_bearings(self):
        target = GeoPoint(0, 0)
        client, _ = make_setup(target)
        east_face = destination(target, 90.0, 1.5 * 556.6)
        pos = destination(east_face, 270.0, 1.0)
        sess = ProbeSession(client, "t", rng=FakeRng([90.0] * 32))
        with pytest.raises(DirectionsExhaustedError):
            sess.choose_direction(pos)
        assert sess.queries == 32

    def test_seeded_replay_gives_same_bearings(self):
        target = GeoPoint(0, 0)

        def bearings(seed):
            client, _ = make_setup(target)
            sess = ProbeSession(client, "t", rng=random.Random(seed))
            out = []
            pos = target
            for _ in range(5):
                b, _ = sess.choose_direction(pos)
                out.append(b)
            return out

        assert bearings(9) == bearings(9)


class TestProbeOutward:
    def test_flip_after_one_jump_near_boundary(self):
        target = GeoPoint(0, 0)
        client, _ = make_setup(target)
        east_face = destination(target, 90.0, 1.5 * 556.6)
        start = destination(east_face, 270.0, 50.0)
        sess = ProbeSession(client, "t")
        inside, outside = sess.probe_outward(start, start, 90.0)
        assert sess.queries == 1
        assert oracle_class(inside, target) == 500
        assert oracle_class(outside, target) == 1000

    def test_jump_count_from_cell_center(self):
        target = GeoPoint(0, 0)
        client, _ = make_setup(target)
        sess = ProbeSession(client, "t")
        inside, outside = sess.probe_outward(target, target, 90.0)
        # boundary sits 1.5 cells east: flip on the 9th 100 m jump
        assert sess.queries == 9
        assert distance(target, outside) == pytest.approx(900.0, rel=1e-3)

    def test_reset_when_walk_exceeds_threshold(self):
        from proxilab.prober import _WalkReset

        target = GeoPoint(0, 0)
        client, _ = make_setup(target)
        cfg = ProbeConfig(reset_distance=300.0)
        sess = ProbeSession(client, "t", cfg)
        # bearing nearly parallel to the north face, never leaves the arm
        with pytest.raises(_WalkReset):
            sess.probe_outward(target, target, 0.5)
        assert sess.exploration_queries == sess.queries


class TestBisect:
    def test_inconsistent_oracle_guard(self):
        from proxilab.prober import InconsistentOracleError

        class DriftingService:
            """Client whose reported class is junk, as a moved live target
            would produce mid-bisection."""

            def search(self, pos, ts):
                return [("t", 2000)]

        sess = ProbeSession(DriftingService(), "t")
        inside = GeoPoint(0.0, 0.0)
        outside = destination(inside, 90.0, 100.0)
        with pytest.raises(InconsistentOracleError):
            sess.bisect_boundary(inside, outside)

    def test_degenerate_bracket_returns_immediately(self):
        target = GeoPoint(0, 0)
        client, _ = make_setup(target)
        sess = ProbeSession(client, "t")
        p = destination(target, 90.0, 820.0)
        t = sess.bisect_boundary(p, p, direction=Direction.OUT, bearing=90.0)
        assert distance(t.inside, t.outside) == 0.0
        assert sess.queries == 0

    def test_width_and_query_bound(self):
        target = GeoPoint(0, 0)
        client, _ = make_setup(target)
        sess = ProbeSession(client, "t")
        inside = destination(target, 90.0, 800.0)
        outside = destination(target, 90.0, 900.0)
        t = sess.bisect_boundary(inside, outside, direction=Direction.OUT, bearing=90.0)
        assert distance(t.inside, t.outside) <= 10.0
        assert sess.queries <= 5
        assert t.queries_spent == sess.queries

    def test_straddles_analytic_face(self):
        target = GeoPoint(0, 0)
        client, _ = make_setup(target)
        sess = ProbeSession(client, "t")
        inside = destination(target, 90.0, 800.0)
        outside = destination(target, 90.0, 900.0)
        t = sess.bisect_boundary(inside, outside, direction=Direction.OUT, bearing=90.0)
        face_east = 1.5 * 556.5974539663679
        assert distance(target, t.inside) <= face_east <= distance(target, t.outside)


class TestCollect:
    def test_default_run_meets_efficiency_floor(self):
        target = GeoPoint(0, 0)
        client, service = make_setup(target)
        tset = collect_transitions(client, "t", hint=target, rng=random.Random(0))
        assert len(tset) >= 30
        assert tset.total_queries <= 600
        assert service.account("finder").ban_events == 0
        assert not tset.budget_exhausted

    def test_tiny_budget_returns_partial_set(self):
        target = GeoPoint(0, 0)
        client, _ = make_setup(target)
        cfg = ProbeConfig(max_queries=3)
        tset = collect_transitions(client, "t", hint=target, cfg=cfg, rng=random.Random(0))
        assert tset.budget_exhausted
        assert len(tset) <= 1
        assert tset.total_queries == 3

    def test_odd_transition_count_ends_on_an_out_transition(self):
        target = GeoPoint(23.0, 51.35)
        client, _ = make_setup(target)
        tset = collect_transitions(client, "t", hint=target, n_transitions=5, rng=random.Random(0))
        assert not tset.budget_exhausted
        assert [t.direction for t in tset.transitions] == [Direction.OUT, Direction.IN] * 2 + [Direction.OUT]

    def test_equal_seeds_reproduce_identical_sets(self):
        target = GeoPoint(40.0, -3.0)

        def run():
            client, _ = make_setup(target)
            return collect_transitions(client, "t", hint=target, rng=random.Random(5))

        assert run() == run()

    def test_query_accounting_matches_service_ledger(self, midlat_runs):
        for _, tset, service in midlat_runs[:25]:
            assert sum(t.queries_spent for t in tset.transitions) + tset.exploration_queries == tset.total_queries
            assert service.account("finder").total_admitted == tset.total_queries

    # Budgets of 1 to 80 queries run out in every phase; a 300 m reset
    # distance resets every walk, 700 m resets some walks between transitions.
    @pytest.mark.parametrize(
        "cfg",
        [ProbeConfig(max_queries=n) for n in range(1, 81)]
        + [ProbeConfig(reset_distance=300.0), ProbeConfig(reset_distance=700.0)],
        ids=[f"max_queries={n}" for n in range(1, 81)] + ["reset_distance=300", "reset_distance=700"],
    )
    def test_query_accounting_under_budget_cuts_and_resets(self, cfg):
        target = GeoPoint(40.0, -3.0)
        client, service = make_setup(target)
        tset = collect_transitions(client, "t", hint=target, cfg=cfg, rng=random.Random(0))
        assert sum(t.queries_spent for t in tset.transitions) + tset.exploration_queries == tset.total_queries
        assert tset.total_queries == service.account("finder").total_admitted

    def test_no_default_run_is_ever_banned(self, midlat_runs):
        for _, _, service in midlat_runs:
            assert service.account("finder").ban_events == 0

    def test_every_transition_straddles_oracle_boundary(self, midlat_runs):
        for target, tset, _ in midlat_runs[:25]:
            for t in tset.transitions:
                assert distance(t.inside, t.outside) <= 10.0
                assert oracle_class(t.inside, target) == 500
                assert oracle_class(t.outside, target) == 1000

    def test_alternating_directions_present(self, midlat_runs):
        _, tset, _ = midlat_runs[0]
        kinds = {t.direction for t in tset.transitions}
        assert kinds == {Direction.OUT, Direction.IN}

    def test_box_matches_analytic_region_for_95_percent_of_seeds(self, midlat_runs):
        good = 0
        for target, tset, _ in midlat_runs:
            try:
                rect = bounding_box(tset, target)
            except InsufficientCoverageError:
                continue
            x_lo, x_hi, y_lo, y_hi = oracle_bbox_local(target)
            errs = (
                abs(rect.x_m - x_lo),
                abs(rect.x_M - x_hi),
                abs(rect.y_m - y_lo),
                abs(rect.y_M - y_hi),
            )
            if max(errs) <= 20.0:  # 2x the 10 m accuracy
                good += 1
        assert good >= 95

    def test_virtual_clock_monotone_and_unbanned_at_high_latitude(self):
        target = GeoPoint(67.277398, 14.374172)
        client, service = make_setup(target)
        tset = collect_transitions(client, "t", hint=target, rng=random.Random(3))
        assert len(tset) == 30
        assert service.account("finder").ban_events == 0


class TestTransitionsFile:
    def test_round_trip(self, tmp_path):
        target = GeoPoint(0, 0)
        client, _ = make_setup(target)
        tset = collect_transitions(client, "t", hint=target, rng=random.Random(1))
        path = tmp_path / "transitions.jsonl"
        write_transitions(str(path), tset, config={"seed": 1})
        loaded, meta = read_transitions(str(path))
        assert loaded == tset
        assert meta["config"] == {"seed": 1}

    def test_blank_and_whitespace_lines_are_skipped(self, tmp_path):
        target = GeoPoint(0, 0)
        client, _ = make_setup(target)
        tset = collect_transitions(client, "t", hint=target, n_transitions=4, rng=random.Random(1))
        path = tmp_path / "transitions.jsonl"
        write_transitions(str(path), tset, config={"seed": 1})
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("\n" + lines[0] + "  \t\n" + "".join(lines[1:]) + "\n \n")
        loaded, meta = read_transitions(str(path))
        assert loaded == tset
        assert meta["config"] == {"seed": 1}

    def test_missing_records_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError):
            read_transitions(str(path))


# sha256 of write_transitions for one seeded in-process attack per placement,
# the antimeridian included: a reordered floating-point operation anywhere on
# the attack path (geo, the quantizer, the walker) changes a digest.
GOLDEN_TRANSITIONS = {
    (0.0, 11.5, 0):
        "16febc9a59e8a73c74f3955fd0915ef3295e98cd44bbb3356bed0c07af552724",
    (23.0, 51.35, 1):
        "223c4227cde5b62d4a5e3dc2bc28de95de52aa3fa6d9fbb46e94218747054344",
    (60.0, 24.9, 2):
        "549eaea4b757dd25bf22d4649f3b5c4e7932835a3b670697c805fdccbb33339e",
    (-40.0, -64.2, 3):
        "0709e11eb65276cd5a9ce0598a270b0c6e0393014f899db1cae98d57349439ef",
    (10.0, 179.99, 4):
        "32aad0fb585e2637fff59f9b2cc6c8f2b95150ace861cd6ba00a82b3549cc8d2",
    # Close enough to 180 deg that about half the transitions lie east of it.
    (10.0, 179.998, 5):
        "fe5ed551d6a4e12b41ac0ea3b87c01b76536652656bf18f1cae3517df500fec9",
}
# sha256 of Quantizer.snap_point over SNAP_LATTICE.
GOLDEN_SNAP = "9ee5e3e107f452b78a4d82d268e1a5220d5f879e5312ec4d52e2a2419834f388"
SNAP_LATTICE = [
    GeoPoint(lat, lon)
    for lat in [-85.0 + 170.0 * k / 157 for k in range(158)]
    for lon in [-180.0 + 360.0 * k / 211 + 0.00123 for k in range(211)]
]


class TestGoldenDigests:
    @pytest.mark.parametrize("lat, lon, seed", list(GOLDEN_TRANSITIONS))
    def test_transitions_digest(self, tmp_path, lat, lon, seed):
        tset, _ = run_probe_deployment(GeoPoint(lat, lon), seed=seed)
        path = tmp_path / "transitions.jsonl"
        write_transitions(str(path), tset, config={"seed": seed})
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_TRANSITIONS[lat, lon, seed]

    def test_snap_point_digest(self):
        h = hashlib.sha256()
        for grid in (0.005, 0.0125):
            q = Quantizer(grid)
            for p in SNAP_LATTICE:
                s = q.snap_point(p)
                h.update(f"{s.lat.hex()} {s.lon.hex()}\n".encode())
        assert h.hexdigest() == GOLDEN_SNAP


class DiscClient:
    """Reports the inner class within radius_m of center and the outer class
    beyond it, at any latitude and across the antimeridian."""

    def __init__(self, center: GeoPoint, radius_m: float):
        self.center = center
        self.radius_m = radius_m

    def search(self, pos, ts):
        inside = distance(self.center, pos) <= self.radius_m
        return [("t", INNER_CLASS_M if inside else OUTER_CLASS_M)]


def exact_bisect(sess: ProbeSession, inside: GeoPoint, outside: GeoPoint):
    """bisect_boundary's loop with the exact straddle tested before every
    step."""
    while distance(inside, outside) > sess.cfg.accuracy:
        mid = midpoint(inside, outside)
        if sess.query_class(mid) == INNER_CLASS_M:
            inside = mid
        else:
            outside = mid
    return inside, outside


def exact_probe_outward(sess: ProbeSession, anchor: GeoPoint, start: GeoPoint, bearing: float):
    """probe_outward's loop with the exact distance from the anchor tested
    before every jump."""
    cur = start
    while True:
        nxt = destination(cur, bearing, sess.cfg.jump)
        if distance(anchor, nxt) > sess.cfg.reset_distance:
            raise _WalkReset
        if sess.query_class(nxt) == OUTER_CLASS_M:
            return cur, nxt
        cur = nxt


def outcome(sess: ProbeSession, walk, *args):
    """The pair a walk returns, bit for bit, or "reset", with the queries
    it spent."""
    try:
        pair = walk(*args)
    except _WalkReset:
        return "reset", sess.queries
    if isinstance(pair, Transition):
        assert pair.queries_spent == sess.queries
        pair = pair.inside, pair.outside
    return [(p.lat.hex(), p.lon.hex()) for p in pair], sess.queries


WALK_LATS = st.one_of(st.floats(-84.9, 84.9), st.sampled_from([-84.9, 0.0, 84.9]))
WALK_LONS = st.one_of(st.floats(-180.0, 180.0), st.sampled_from([-180.0, 180.0]), st.floats(179.99, 180.0))


class TestBoundFirstChecks:
    """The walker skips the haversine of a check that a bound already
    decides; its queries, pairs and resets must equal those of the loops
    that compute every exact distance."""

    @settings(max_examples=300, deadline=None)
    @given(
        lat=WALK_LATS,
        lon=WALK_LONS,
        bearing=st.floats(0.0, 360.0),
        accuracy=st.one_of(st.sampled_from([0.5, 1.0, 10.0]), st.floats(0.1, 10.0)),
        ratio=st.one_of(st.sampled_from([2.0, 4.0]), st.floats(0.5, 4000.0)),
        edge=st.floats(0.0, 1.0),
    )
    @example(lat=84.9, lon=180.0, bearing=90.0, accuracy=10.0, ratio=2.0, edge=0.6)
    @example(lat=-84.9, lon=-180.0, bearing=0.0, accuracy=10.0, ratio=4.0, edge=0.3)
    @example(lat=84.9, lon=180.0, bearing=45.0, accuracy=10.0, ratio=4000.0, edge=0.77)
    def test_bisect_matches_exact_loop(self, lat, lon, bearing, accuracy, ratio, edge):
        inside = GeoPoint(lat, lon)
        outside = destination(inside, bearing, ratio * accuracy)
        client = DiscClient(inside, edge * ratio * accuracy)
        cfg = ProbeConfig(accuracy=accuracy, jump=2.0 * accuracy)
        sess, ref = ProbeSession(client, "t", cfg), ProbeSession(client, "t", cfg)
        assert outcome(sess, sess.bisect_boundary, inside, outside) == outcome(ref, exact_bisect, ref, inside, outside)

    @settings(max_examples=300, deadline=None)
    @given(
        lat=WALK_LATS,
        lon=WALK_LONS,
        bearing=st.floats(0.0, 360.0),
        start_bearing=st.floats(0.0, 360.0),
        jump=st.one_of(st.sampled_from([15.0, 20.0, 100.0, 300.0, 1000.0]), st.floats(1.0, 2000.0)),
        start_jumps=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 3.0)),
        reset_jumps=st.one_of(st.integers(0, 30).map(float), st.floats(0.0, 30.0)),
        radius_jumps=st.floats(0.0, 40.0),
    )
    @example(lat=84.9, lon=180.0, bearing=0.0, start_bearing=0.0, jump=100.0,
             start_jumps=1.0, reset_jumps=4.0, radius_jumps=40.0)
    @example(lat=0.0, lon=-180.0, bearing=270.0, start_bearing=90.0, jump=100.0,
             start_jumps=1.0, reset_jumps=4.0, radius_jumps=40.0)
    def test_probe_outward_matches_exact_loop(
        self, lat, lon, bearing, start_bearing, jump, start_jumps, reset_jumps, radius_jumps
    ):
        anchor = GeoPoint(lat, lon)
        start = destination(anchor, start_bearing, start_jumps * jump)
        client = DiscClient(anchor, radius_jumps * jump)
        cfg = ProbeConfig(jump=jump, accuracy=jump / 10.0, reset_distance=reset_jumps * jump)
        sess, ref = ProbeSession(client, "t", cfg), ProbeSession(client, "t", cfg)
        assert (outcome(sess, sess.probe_outward, anchor, start, bearing)
                == outcome(ref, exact_probe_outward, ref, anchor, start, bearing))

    # (reset_distance, lat, lon, seed): outward walks that reset, and the
    # sha256 of the transitions file, pinned before the bounds went in.
    RESET_WALKS = {
        (400.0, 23.0, 51.35, 0): (256, "07d4b381fafc708de263de6d9e8c96440a74b0e6ccff0ea238a6e54b0387f4d1"),
        (900.0, 60.0, 179.999, 2): (18, "6d3e365cab506b82771600196784bd822f6e483e0aa88e3b44387a2d80abbea3"),
    }

    @pytest.mark.parametrize("reset, lat, lon, seed", list(RESET_WALKS))
    def test_walk_with_resets_digest(self, tmp_path, monkeypatch, reset, lat, lon, seed):
        resets = []
        probe_outward = ProbeSession.probe_outward

        def counted(self, *args):
            try:
                return probe_outward(self, *args)
            except _WalkReset:
                resets.append(args)
                raise

        monkeypatch.setattr(ProbeSession, "probe_outward", counted)
        client, _ = make_setup(GeoPoint(lat, lon))
        tset = collect_transitions(client, "t", GeoPoint(lat, lon), ProbeConfig(reset_distance=reset),
                                   rng=random.Random(seed))
        path = tmp_path / "transitions.jsonl"
        write_transitions(str(path), tset, config={"seed": seed})
        assert (len(resets), hashlib.sha256(path.read_bytes()).hexdigest()) == self.RESET_WALKS[reset, lat, lon, seed]
