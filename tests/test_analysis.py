"""Analysis layer: boxes, distributions, tile estimation, shape taxonomy."""

from __future__ import annotations

import csv
import json
import math
import multiprocessing
import pickle
import random
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from proxilab import analysis, geo, prober, service, wire
from proxilab.geo import GeoPoint, to_local
from proxilab.prober import Direction, Transition, TransitionSet
from proxilab.service import FloodWaitError, LocalClient
from proxilab.analysis import (
    InsufficientCoverageError,
    NoShiftObservedError,
    Phasor,
    Rect,
    Shape,
    SimulatorLab,
    SWEEP_CITIES,
    TILE_SCAN_SPAN_M,
    TILE_SHIFTS,
    TooFewSamplesError,
    bounding_box,
    build_report,
    centroid,
    classify_shape,
    ecdf,
    edge_offsets,
    estimate_tile_size,
    fit_uniform,
    latitude_sweep,
    max_localization_error,
    midpoints_local,
    phasor,
    run_probe_deployment,
    write_ecdf_csv,
    write_report_json,
    write_sweep_csv,
)

from conftest import ORACLE_GRID_DEG, ORACLE_M_PER_DEG, oracle_boundary_points, oracle_from_local

EQ_CELL_M = 0.005 * math.pi / 180.0 * 6_378_137.0  # 556.597


def synthetic_set(anchor: GeoPoint, points_xy, straddle=None) -> TransitionSet:
    """TransitionSet at hand-picked local points; straddle=(dx, dy) gives all
    transitions that inside-to-outside vector, else they are zero-width."""
    transitions = []
    for x, y in points_xy:
        p = GeoPoint(*oracle_from_local(anchor, x, y))
        if straddle is None:
            q = p
        else:
            q = GeoPoint(*oracle_from_local(anchor, x + straddle[0], y + straddle[1]))
        transitions.append(Transition(p, q, 0.0, Direction.OUT, 0))
    return TransitionSet(target="t", transitions=transitions, total_queries=0)


class TestBoundingBox:
    def test_synthetic_cross_of_four(self):
        anchor = GeoPoint(0, 0)
        tset = synthetic_set(anchor, [(-800, 0), (800, 0), (0, -800), (0, 800)])
        rect = bounding_box(tset, anchor)
        assert rect.x_m == pytest.approx(-800, abs=0.01)
        assert rect.x_M == pytest.approx(800, abs=0.01)
        assert rect.y_m == pytest.approx(-800, abs=0.01)
        assert rect.y_M == pytest.approx(800, abs=0.01)

    def test_three_collinear_rejected(self):
        anchor = GeoPoint(0, 0)
        tset = synthetic_set(anchor, [(0, -800), (0, 0), (0, 800)])
        with pytest.raises(InsufficientCoverageError):
            bounding_box(tset, anchor)

    def test_one_sided_cluster_rejected(self):
        # four crossings, all through the east face (eastward straddles)
        anchor = GeoPoint(0, 0)
        tset = synthetic_set(
            anchor, [(800, -10), (810, 0), (805, 10), (799, 5)], straddle=(8.0, 0.0)
        )
        with pytest.raises(InsufficientCoverageError):
            bounding_box(tset, anchor)

    def test_permutation_invariant_and_monotone(self):
        anchor = GeoPoint(0, 0)
        pts = [(-800, 0), (800, 0), (0, -800), (0, 800), (100, 100), (-50, 300)]
        rect_a = bounding_box(synthetic_set(anchor, pts), anchor)
        rng = random.Random(0)
        for _ in range(10):
            rng.shuffle(pts)
            assert bounding_box(synthetic_set(anchor, pts), anchor) == rect_a
        grown = bounding_box(synthetic_set(anchor, pts + [(900, 20)]), anchor)
        assert grown.x_M >= rect_a.x_M
        assert grown.x_m <= rect_a.x_m
        assert grown.area >= rect_a.area

    def test_rect_edges_out_of_order_rejected(self):
        with pytest.raises(ValueError, match="^rect edges out of order$"):
            Rect(1.0, 0.0, 0.0, 1.0)

    def test_zero_width_straddle_at_the_box_center_is_skipped(self):
        # Straddles at exactly +-0.004 deg about the anchor put the box
        # center exactly on it, where a zero-width straddle names no face.
        anchor = GeoPoint(0.0, 0.0)
        ring = [GeoPoint(0.004, 0.0), GeoPoint(-0.004, 0.0), GeoPoint(0.0, 0.004), GeoPoint(0.0, -0.004)]

        def zero_width(points):
            transitions = [Transition(p, p, 0.0, Direction.OUT, 0) for p in points]
            return TransitionSet(target="t", transitions=transitions, total_queries=0)

        rect = bounding_box(zero_width(ring), anchor)
        assert rect.center() == (0.0, 0.0)
        assert bounding_box(zero_width(ring + [anchor]), anchor) == rect

    def test_simulator_run_edges_near_analytic(self):
        target = GeoPoint(0, 0)
        tset, _ = run_probe_deployment(target, seed=1)
        rect = bounding_box(tset, target)
        for edge in (rect.x_M, -rect.x_m, rect.y_M, -rect.y_m):
            assert edge == pytest.approx(1.5 * EQ_CELL_M, abs=10.0)


class TestCentroid:
    def test_symmetric_rect(self):
        assert centroid(Rect(-5, 5, -3, 3)) == (0.0, 0.0)

    def test_plain_arithmetic(self):
        assert centroid(Rect(0, 1000, 0, 500)) == (500.0, 250.0)

    def test_full_run_centroid_near_snapped_node(self, midlat_runs):
        from proxilab.service import Quantizer

        quant = Quantizer()
        target, tset, _ = midlat_runs[0]
        cx, cy = centroid(bounding_box(tset, target))
        node_x, node_y = to_local(target, quant.snap_point(target))
        assert math.hypot(cx - node_x, cy - node_y) <= 15.0


class TestEdgeOffsets:
    def test_target_on_right_edge_gives_zero(self):
        d_x, d_y = edge_offsets([Rect(-900, 0, -400, 500)])
        assert 0.0 in d_x.tolist()

    def test_pooled_samples_count(self):
        rects = [Rect(-800, 800, -800, 800)] * 3
        d_x, d_y = edge_offsets(rects)
        assert len(d_x) == 6 and len(d_y) == 6


class TestEcdf:
    def test_step_values(self):
        f = ecdf([1, 2, 3, 4])

        def cdf(x):
            return np.searchsorted(f.samples, x, side="right") / f.n

        assert cdf(2.5) == 0.5
        assert cdf(0.5) == 0.0
        assert cdf(1.0) == 0.25  # F(min) = 1/n
        assert cdf(4.0) == 1.0

    def test_dkw_band_at_300_samples(self):
        f = ecdf(list(range(300)))
        assert f.band_half_width == pytest.approx(math.sqrt(math.log(40.0) / 600.0), rel=1e-12)
        assert f.band_half_width == pytest.approx(0.0784, abs=1e-4)

    def test_monotone_rows_with_clipped_band(self):
        f = ecdf([3, 1, 2, 2, 5])
        rows = f.rows()
        assert [r[0] for r in rows] == sorted(r[0] for r in rows)
        assert all(0.0 <= r[2] <= r[1] <= r[3] <= 1.0 or (r[2] <= r[1] and r[1] <= r[3]) for r in rows)

    def test_empty_rejected(self):
        with pytest.raises(TooFewSamplesError):
            ecdf([])


class TestFitUniform:
    def test_min_max_of_synthetic_uniform(self):
        rng = random.Random(13)
        samples = [rng.uniform(513.0, 1003.0) for _ in range(300)]
        a, b = fit_uniform(samples)
        assert a == pytest.approx(513.0, abs=5.0)
        assert b == pytest.approx(1003.0, abs=5.0)

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamplesError):
            fit_uniform(list(range(19)))


class TestPhasor:
    def test_coincident(self):
        p = phasor((0, 0), (0, 0))
        assert p == Phasor(0.0, 0.0)

    def test_three_four_five(self):
        p = phasor((3, 4), (0, 0))
        assert p.rho == pytest.approx(5.0)
        assert -math.pi <= p.phase <= math.pi


class TestMaxLocalizationError:
    def test_half_diagonal_values(self):
        assert max_localization_error(500.0) == pytest.approx(353.55, abs=0.01)
        assert max_localization_error(400.0) == pytest.approx(282.84, abs=0.01)
        assert max_localization_error(0.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            max_localization_error(-1.0)


class TestClassifyShape:
    def test_too_few_transitions_unknown(self):
        pts = [(-800, 0), (800, 0), (0, -800), (0, 800)]
        assert classify_shape(pts) is Shape.UNKNOWN

    def test_analytic_boundaries(self):
        assert classify_shape(oracle_boundary_points(5.0)) is Shape.CROSS
        assert classify_shape(oracle_boundary_points(40.0)) is Shape.SQUARE

    def test_simulated_runs(self):
        low, _ = run_probe_deployment(GeoPoint(5.0, 7.25), seed=1)
        mid, _ = run_probe_deployment(GeoPoint(40.0, 7.25), seed=1)
        assert classify_shape(midpoints_local(low, GeoPoint(5.0, 7.25))) is Shape.CROSS
        assert classify_shape(midpoints_local(mid, GeoPoint(40.0, 7.25))) is Shape.SQUARE

    def test_decision_flips_once_across_the_model_band(self):
        # model property: with nearest-class bucketing the cross/square
        # decision flips exactly once (near 17.7 deg) on a scan of the band
        # where the region is a plus or a 3x3 block
        labels = [classify_shape(oracle_boundary_points(float(lat))) for lat in range(2, 46)]
        flips = sum(1 for a, b in zip(labels, labels[1:]) if a != b)
        assert flips == 1
        assert labels[0] is Shape.CROSS and labels[-1] is Shape.SQUARE


class TestTileSize:
    def test_equator_step_10(self):
        lab = SimulatorLab()
        l_est = estimate_tile_size(lab, GeoPoint(0, 0), step=10.0)
        assert l_est == pytest.approx(EQ_CELL_M, abs=15.0)

    def test_low_latitude_city_with_coarse_100m_steps(self):
        base = GeoPoint(SWEEP_CITIES[0][1], SWEEP_CITIES[0][2])
        l_est = estimate_tile_size(SimulatorLab(), base, step=100.0)
        assert 400.0 <= l_est <= 560.0

    def test_high_latitude_step_10(self):
        l_est = estimate_tile_size(SimulatorLab(), GeoPoint(71.3, 0.0), step=10.0)
        assert l_est == pytest.approx(EQ_CELL_M * math.cos(math.radians(71.3)), abs=15.0)

    @pytest.mark.parametrize("step", [0.0, -10.0, math.nan])
    def test_step_must_be_positive(self, step):
        with pytest.raises(ValueError, match="step must be positive"):
            estimate_tile_size(SimulatorLab(), GeoPoint(0, 0), step=step)

    def test_no_shift_when_span_too_short(self):
        with pytest.raises(NoShiftObservedError):
            estimate_tile_size(SimulatorLab(), GeoPoint(0, 0), step=3000.0)

    def test_fine_step_keeps_no_rung_list(self):
        # Rungs are computed when deployed: at 1e-4 m a list of them would
        # hold 40 million floats, about 1.3 GB.
        lab = SimulatorLab()
        tracemalloc.start()
        try:
            l_est = estimate_tile_size(lab, GeoPoint(SWEEP_CITIES[0][1], SWEEP_CITIES[0][2]), step=1e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert 400.0 <= l_est <= 560.0

    # One end each where end / step rounds to one rung too many and to one
    # rung too few.
    @example(step=61.538074287064475, end=33195360.336522613)
    @example(step=3.08, end=316851.92)
    @given(
        step=st.floats(1e-6, 5000.0),
        end=st.sampled_from([TILE_SCAN_SPAN_M, 4.5 * EQ_CELL_M, 0.0, 1234.5]),
    )
    def test_last_rung_is_the_largest_within_end(self, step, end):
        k = analysis._last_rung(step, end)
        assert k * step <= end < (k + 1) * step

    # The scan's own bound, plus the lab's bisection accuracy, holds up to
    # 84.9 deg, where the cell is 49.5 m. A third of the latitudes lie above
    # 80 deg and a third of the longitudes within 0.05 deg of the antimeridian.
    @example(lat=84.9, lon=20.0, step=10.0)
    @example(lat=-84.9, lon=-179.99, step=2.0)
    @example(lat=84.5, lon=180.0, step=20.0)
    @settings(max_examples=40, deadline=None)
    @given(
        lat=st.one_of(st.floats(-84.9, 84.9), st.floats(80.0, 84.9), st.floats(-84.9, -80.0)),
        lon=st.one_of(st.floats(-180.0, 180.0), st.floats(179.95, 180.0), st.floats(-180.0, -179.95)),
        step=st.floats(2.0, 20.0),
    )
    def test_tile_is_the_oracle_cell(self, lat, lon, step):
        cell = ORACLE_GRID_DEG * ORACLE_M_PER_DEG * math.cos(math.radians(lat))
        l_est = estimate_tile_size(SimulatorLab(), GeoPoint(lat, lon), step=step)
        assert abs(l_est - cell) <= step / (TILE_SHIFTS - 1) + analysis.LAB_ACCURACY_M

    # Two thirds of the longitudes lie within a degree of the antimeridian.
    @settings(max_examples=10, deadline=None)
    @given(
        lat=st.floats(-84.9, 84.9),
        lon=st.one_of(st.floats(-180.0, 180.0), st.floats(179.0, 180.0), st.floats(-180.0, -179.0)),
        step=st.floats(2.0, 40.0),
    )
    def test_gallop_equals_full_ladder(self, lat, lon, step):
        base = GeoPoint(lat, lon)
        assert estimate_tile_size(SimulatorLab(), base, step=step).hex() == _ladder_tile_size(base, step).hex()

    def test_sweep_cities_at_step_10_query_count(self, monkeypatch):
        # 1,304 deployments and 19,616 queries when every rung is deployed.
        # A deployment steps out from one jump past its own position, then
        # bisects the 100 m straddle to a metre in seven queries.
        counts = {"deployments": 0, "queries": 0}

        def counting(method, key):
            def wrapper(*args):
                result = method(*args)
                counts[key] += 1
                return result

            return wrapper

        monkeypatch.setattr(SimulatorLab, "boundary", counting(SimulatorLab.boundary, "deployments"))
        monkeypatch.setattr(LocalClient, "search", counting(LocalClient.search, "queries"))
        for _, lat, lon in SWEEP_CITIES:
            estimate_tile_size(SimulatorLab(), GeoPoint(lat, lon), step=10.0)
        assert counts == {"deployments": 388, "queries": 5981}


def _ladder_tile_size(base: GeoPoint, step: float) -> float:
    """Reference scan: deploy every rung of the ladder in order and take a
    shift wherever the boundary moves from the previous rung's."""
    lab = SimulatorLab()
    threshold = 5.0 * analysis.LAB_ACCURACY_M
    shift_offsets: list[float] = []
    prev = None
    for offset, boundary in lab.ladder(base, step, TILE_SCAN_SPAN_M):
        if prev is not None and abs(boundary - prev) > threshold:
            shift_offsets.append(offset - step / 2.0)
            if len(shift_offsets) >= TILE_SHIFTS:
                break
        prev = boundary
    return (shift_offsets[-1] - shift_offsets[0]) / (len(shift_offsets) - 1)


class TestLatitudeSweep:
    def test_single_location_row(self):
        rows = latitude_sweep([("Doha", 25.26174, 51.359269)], step=10.0)
        assert len(rows) == 1
        row = rows[0]
        assert row.error is None
        assert row.max_error_m == pytest.approx(556.5974539663679 * math.cos(math.radians(25.26174)) * math.sqrt(2) / 2, abs=15.0)
        assert row.max_error_m == pytest.approx(356.0, abs=15.0)

    def test_failures_recorded_not_raised(self):
        # The row runs in a worker process, and its failure still comes
        # back as that row's error.
        rows = latitude_sweep([("polar", 89.0, 0.0)], step=10.0)
        assert rows[0].error is not None
        assert rows[0].tile_size_m is None
        assert multiprocessing.active_children() == []

    def test_failed_shape_walk_keeps_the_measured_tile(self, monkeypatch):
        # Near the poles the walk can fail where the tile scan succeeds;
        # the row then keeps l and D and leaves the shape Unknown.
        def run(target, seed=0, grid_deg=service.DEFAULT_GRID_DEG):
            raise prober.InconsistentOracleError("class 2000 while walking inward")

        monkeypatch.setattr(analysis, "run_probe_deployment", run)
        row = analysis.sweep_row(("Doha", 25.26174, 51.359269))
        assert row.tile_size_m == pytest.approx(EQ_CELL_M * math.cos(math.radians(25.26174)), abs=15.0)
        assert row.max_error_m == max_localization_error(row.tile_size_m)
        assert row.shape == Shape.UNKNOWN.value
        assert "class 2000 while walking inward" in row.error

    def test_programming_errors_propagate(self):
        # Only the harness's own failures become a row's error; a bad
        # argument type is a bug and must surface as one, with its own
        # class, from the worker that ran the row.
        with pytest.raises(TypeError):
            latitude_sweep(SWEEP_CITIES[:1], step="10")
        assert multiprocessing.active_children() == []


class TestReportsAndFiles:
    def test_build_report_fields(self):
        target = GeoPoint(40.0, -3.0)
        tset, _ = run_probe_deployment(target, seed=0)
        report = build_report(tset, target)
        assert report.n_transitions == len(tset)
        assert report.n_queries == tset.total_queries
        assert report.max_error_m == pytest.approx(report.tile_size_m * math.sqrt(2) / 2, rel=1e-12)
        assert report.shape is Shape.SQUARE

    def test_report_json_round_trip(self, tmp_path):
        target = GeoPoint(40.0, -3.0)
        tset, _ = run_probe_deployment(target, seed=0)
        report = build_report(tset, target)
        path = tmp_path / "report.json"
        write_report_json(str(path), report, config={"seed": 0})
        payload = json.loads(path.read_text())
        assert payload["config"] == {"seed": 0}
        assert payload["report"]["shape"] == "Square"
        assert payload["report"]["rect"]["x_M"] > payload["report"]["rect"]["x_m"]

    def test_sweep_csv_schema(self, tmp_path):
        rows = latitude_sweep([("Doha", 25.26174, 51.359269)], step=10.0)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(str(path), rows, config={"step": 10.0})
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# config ")
        assert lines[1] == "name,lat,lon,l_m,D_m,shape"
        parsed = list(csv.reader(lines[2:]))
        assert parsed[0][0] == "Doha"

    def test_ecdf_csv_schema(self, tmp_path):
        path = tmp_path / "ecdf.csv"
        write_ecdf_csv(str(path), ecdf([1.0, 2.0, 3.0]), config={})
        lines = path.read_text().splitlines()
        assert lines[1] == "value,F,lo,hi"
        assert len(lines) == 2 + 3


# Constructor arguments for the exception classes that take more than a
# message; every other public exception class gets cls("boom").
_EXCEPTION_ARGS = {
    "AttackBannedError": ("probe-outward", FloodWaitError("quota spent", retry_after_s=3600.0)),
    "RegistryFormatError": ("targets.jsonl", 3, "missing field 'lat'"),
    "QueryRejected": ("rejected", 5.0),
    "FloodWaitError": ("quota spent", 3600.0),
    "SpeedBanError": ("too fast", 60.0),
}


def _public_exception_classes():
    for mod in (geo, service, prober, analysis, wire):
        for name, obj in vars(mod).items():
            if (isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == mod.__name__ and not name.startswith("_")):
                yield pytest.param(obj, id=f"{mod.__name__.rsplit('.', 1)[1]}.{name}")


def _assert_same_exception(a: BaseException, b: BaseException) -> None:
    assert type(b) is type(a) and str(b) == str(a)
    assert vars(b).keys() == vars(a).keys()
    for key, value in vars(a).items():
        if isinstance(value, BaseException):
            _assert_same_exception(value, vars(b)[key])
        else:
            assert vars(b)[key] == value


@pytest.mark.parametrize("cls", list(_public_exception_classes()))
def test_public_exceptions_survive_pickle(cls):
    # A pooled run's exception reaches the parent through pickle; one that
    # cannot be rebuilt surfaces as BrokenProcessPool instead of its class.
    exc = cls(*_EXCEPTION_ARGS.get(cls.__name__, ("boom",)))
    _assert_same_exception(exc, pickle.loads(pickle.dumps(exc)))


# -- stdlib statistics against the numpy formulas they replaced ---------------


def _np_from_points(pts) -> Rect:
    arr = np.asarray(pts, dtype=float).reshape(-1, 2)
    (x_m, y_m), (x_M, y_M) = arr.min(axis=0), arr.max(axis=0)
    return Rect(float(x_m), float(x_M), float(y_m), float(y_M))


def _np_ecdf_rows(samples) -> list[tuple[float, float, float, float]]:
    arr = np.sort(np.asarray(samples, dtype=float))
    n = int(arr.size)
    eps = math.sqrt(math.log(2.0 / analysis.ECDF_ALPHA) / (2.0 * n))
    return [(float(v), k / n, max(0.0, k / n - eps), min(1.0, k / n + eps)) for k, v in enumerate(arr, start=1)]


def _np_classify_shape(points) -> Shape:
    pts = np.asarray(list(points), dtype=float).reshape(-1, 2)
    if len(pts) < analysis.SHAPE_MIN_POINTS:
        return Shape.UNKNOWN
    rect = _np_from_points(pts)
    if rect.width <= 0 or rect.height <= 0:
        return Shape.UNKNOWN
    cx, cy = rect.center()
    if len({(x > cx, y > cy) for x, y in pts if x != cx and y != cy}) < 4:
        return Shape.UNKNOWN
    tile = (rect.width + rect.height) / 6.0
    with np.errstate(all="ignore"):
        for corner in rect.corners():
            if float(np.hypot(pts[:, 0] - corner[0], pts[:, 1] - corner[1]).min()) <= tile / 3.0:
                return Shape.SQUARE
    return Shape.CROSS


def _same(a: float, b: float) -> bool:
    """Same bits, or both zeros: numpy's min, max and sort pick between tied
    +0.0 and -0.0 by array position, Python's keep the first one seen."""
    return float.hex(a) == float.hex(b) or a == b == 0.0


def _with_repeats(values, max_size=30):
    """Lists drawn from `values` whose tail repeats entries of the head."""
    return st.lists(values, min_size=1, max_size=max_size).flatmap(
        lambda head: st.lists(st.sampled_from(head), max_size=30).map(lambda tail: head + tail)
    )


_FINITE = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(allow_nan=False, allow_infinity=False))
_POINT = st.tuples(_FINITE, _FINITE)
# Bounded, so that enough draws have the 20 points in four quadrants that
# reach the Square/Cross decision.
_METERS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2000.0, 2000.0))


class TestStdlibMatchesNumpy:
    @settings(max_examples=200, deadline=None)
    @given(_with_repeats(_POINT))
    def test_rect_from_points(self, pts):
        got, ref = Rect.from_points(pts), _np_from_points(pts)
        assert all(_same(a, b) for a, b in zip(astuple(got), astuple(ref)))

    @settings(max_examples=200, deadline=None)
    @given(_with_repeats(_FINITE))
    def test_ecdf_rows_and_uniform_fit(self, samples):
        rows, ref = ecdf(samples).rows(), _np_ecdf_rows(samples)
        assert len(rows) == len(ref)
        for row, ref_row in zip(rows, ref):
            assert all(_same(a, b) for a, b in zip(row, ref_row))
        if len(samples) >= analysis.UNIFORM_FIT_MIN_SAMPLES:
            arr = np.asarray(samples, dtype=float)
            lo, hi = fit_uniform(samples)
            assert _same(lo, float(arr.min())) and _same(hi, float(arr.max()))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.builds(Rect.from_points, st.lists(_POINT, min_size=1, max_size=4)), max_size=20))
    def test_edge_offsets(self, rects):
        d_x, d_y = edge_offsets(rects)
        ref_x = np.asarray([v for r in rects for v in (r.x_M, -r.x_m)])
        ref_y = np.asarray([v for r in rects for v in (r.y_M, -r.y_m)])
        assert [float.hex(v) for v in d_x.tolist()] == [float.hex(v) for v in ref_x.tolist()]
        assert [float.hex(v) for v in d_y.tolist()] == [float.hex(v) for v in ref_y.tolist()]

    @settings(max_examples=200, deadline=None)
    @given(_with_repeats(st.tuples(_METERS, _METERS), max_size=60))
    def test_classify_shape_arbitrary_points(self, pts):
        assert classify_shape(pts) is _np_classify_shape(pts)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(2.0, 46.0), st.floats(-1.0, 1.0))
    def test_classify_shape_region_boundaries(self, lat, jitter):
        pts = [(x + jitter * (k % 3), y - jitter * (k % 5)) for k, (x, y) in enumerate(oracle_boundary_points(lat))]
        assert classify_shape(pts) is _np_classify_shape(pts)
