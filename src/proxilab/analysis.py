"""Statistical reconstruction of a target's privacy envelope.

Turns collected transitions into bounding boxes and centroids, measures the
target-to-edge offset distributions, estimates the tessellation tile size by
shifting a target in small steps, and derives the maximum localization error
as a function of latitude.

All rectangle work happens in a local meter frame anchored at the target's
true position. The attacker never needs that position; it is evaluation
metadata used to express results in comparable coordinates.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
import random
from array import array
from dataclasses import asdict, dataclass
from enum import Enum

from .geo import GeoPoint, ProjectionDomainError, destination, to_local
from .prober import (
    DEFAULT_STEP_M,
    INNER_CLASS_M,
    OUTER_CLASS_M,
    InconsistentOracleError,
    ProbeSession,
    TransitionSet,
    collect_transitions,
)
from .service import (
    DEFAULT_GRID_DEG,
    SECONDS_PER_DAY,
    LocalClient,
    Quantizer,
    Service,
    TargetRegistry,
    dumps,
)

TILE_SHIFTS = 4  # boundary shifts the tile-size scan waits for
TILE_SCAN_SPAN_M = 4000.0  # farthest deployment of the tile-size scan
LAB_ACCURACY_M = 1.0  # the lab's boundary bisection: it placed the target, unlike an attacker
ECDF_ALPHA = 0.05  # the ECDF band holds the true CDF with probability 1 - alpha
SHAPE_MIN_POINTS = 20  # boundary points below which the shape is Unknown
UNIFORM_FIT_MIN_SAMPLES = 20  # samples below which fit_uniform refuses to fit


class InsufficientCoverageError(ValueError):
    """Transitions do not surround the target well enough for a box."""


class TooFewSamplesError(ValueError):
    pass


class NoShiftObservedError(RuntimeError):
    """The deployment span was too short to observe enough boundary shifts."""


class Shape(str, Enum):
    SQUARE = "Square"
    CROSS = "Cross"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class Rect:
    """Axis-aligned box [x_m, x_M] x [y_m, y_M] in local meters."""

    x_m: float
    x_M: float
    y_m: float
    y_M: float

    def __post_init__(self) -> None:
        if self.x_m > self.x_M or self.y_m > self.y_M:
            raise ValueError("rect edges out of order")

    @classmethod
    def from_points(cls, pts: list[tuple[float, float]]) -> "Rect":
        """Component-wise min/max box over (x, y) points."""
        xs = [x for x, _ in pts]
        ys = [y for _, y in pts]
        return cls(min(xs), max(xs), min(ys), max(ys))

    @property
    def width(self) -> float:
        return self.x_M - self.x_m

    @property
    def height(self) -> float:
        return self.y_M - self.y_m

    @property
    def area(self) -> float:
        return self.width * self.height

    def center(self) -> tuple[float, float]:
        return ((self.x_m + self.x_M) / 2.0, (self.y_m + self.y_M) / 2.0)

    def corners(self) -> tuple[tuple[float, float], ...]:
        return (
            (self.x_m, self.y_m),
            (self.x_m, self.y_M),
            (self.x_M, self.y_m),
            (self.x_M, self.y_M),
        )


@dataclass(frozen=True)
class Phasor:
    rho: float
    phase: float  # radians in [-pi, pi]


@dataclass
class PrivacyReport:
    """Per-deployment result: box, centroid, tile size and error bound."""

    rect: Rect
    centroid: tuple[float, float]
    tile_size_m: float | None
    max_error_m: float | None
    shape: Shape
    n_transitions: int
    n_queries: int

    def to_dict(self) -> dict:
        return asdict(self)


# City list spanning latitudes 5 to 71 degrees north, used by the default
# latitude sweep.
SWEEP_CITIES: tuple[tuple[str, float, float], ...] = (
    ("Kourou", 5.154237, -52.648526),
    ("Coban", 15.46463, -90.403683),
    ("Doha", 25.26174, 51.359269),
    ("Lakatamya", 35.11438, 33.296804),
    ("Carcassonne", 43.21324, 2.344961),
    ("Winnipeg", 50.00542, -97.16734),
    ("Malmo", 55.555275, 13.015577),
    ("Helsinki", 60.239339, 24.922424),
    ("Bodo", 67.277398, 14.374172),
    ("Utqiagvik", 71.300602, -156.754113),
)


# -- box geometry ----------------------------------------------------------


def midpoints_local(tset: TransitionSet, anchor: GeoPoint) -> list[tuple[float, float]]:
    """Transition midpoints as (x, y) local meters about the anchor."""
    return [to_local(anchor, t.midpoint()) for t in tset.transitions]


def _crossing_sides(tset: TransitionSet, anchor: GeoPoint, rect: Rect) -> set[str]:
    """Which region faces (N/S/E/W) the transitions crossed.

    A straddle's inside-to-outside vector is the outward normal of the face
    it crossed; degenerate (zero-width) straddles fall back to their position
    relative to the box center.
    """
    cx, cy = rect.center()
    half_w = rect.width / 2.0
    half_h = rect.height / 2.0
    sides: set[str] = set()
    for t in tset.transitions:
        ax, ay = to_local(anchor, t.inside)
        bx, by = to_local(anchor, t.outside)
        dx, dy = bx - ax, by - ay
        if dx == 0.0 and dy == 0.0:
            x, y = (ax + bx) / 2.0, (ay + by) / 2.0
            dx = (x - cx) / half_w if half_w > 0 else 0.0
            dy = (y - cy) / half_h if half_h > 0 else 0.0
            if dx == 0.0 and dy == 0.0:
                continue
        if abs(dx) >= abs(dy):
            sides.add("E" if dx > 0 else "W")
        else:
            sides.add("N" if dy > 0 else "S")
    return sides


def bounding_box(tset: TransitionSet, anchor: GeoPoint, pts: list[tuple[float, float]] | None = None) -> Rect:
    """Component-wise min/max box over transition midpoints; `pts`, when
    given, is `midpoints_local(tset, anchor)` computed by the caller.

    Requires at least four transitions with crossings on at least three
    distinct region faces; anything less produces badly one-sided or
    degenerate boxes and is rejected.
    """
    if pts is None:
        pts = midpoints_local(tset, anchor)
    if len(pts) < 4:
        raise InsufficientCoverageError(f"need >= 4 transitions, have {len(pts)}")
    rect = Rect.from_points(pts)
    if len(_crossing_sides(tset, anchor, rect)) < 3:
        raise InsufficientCoverageError("crossings cover fewer than 3 region faces")
    return rect


def _tile_from_box(rect: Rect) -> float:
    """Tile size implied by a box that spans three tiles per side."""
    return (rect.width + rect.height) / 6.0


def centroid(rect: Rect) -> tuple[float, float]:
    """Center of the box: the attacker's best estimate of the target."""
    return rect.center()


def edge_offsets(rects: list[Rect]) -> tuple[array, array]:
    """Distances from each box edge to the target, pooled across runs.

    Every rect must be expressed in its own target-anchored frame (target at
    the origin). Returns (d_x, d_y) with two samples per run per axis, one
    for each opposing edge.
    """
    d_x = array("d")
    d_y = array("d")
    for r in rects:
        d_x.extend((r.x_M, -r.x_m))
        d_y.extend((r.y_M, -r.y_m))
    return d_x, d_y


def phasor(target_xy: tuple[float, float], centroid_xy: tuple[float, float]) -> Phasor:
    """Amplitude and phase of the centroid-to-target offset."""
    dx = target_xy[0] - centroid_xy[0]
    dy = target_xy[1] - centroid_xy[1]
    return Phasor(rho=math.hypot(dx, dy), phase=math.atan2(dy, dx))


# -- empirical distributions ------------------------------------------------


class Ecdf:
    """Empirical CDF with a distribution-free (DKW) confidence band at
    level `ECDF_ALPHA`."""

    def __init__(self, samples):
        self.samples = sorted(float(v) for v in samples)
        self.n = len(self.samples)
        if self.n < 1:
            raise TooFewSamplesError("need at least one sample")
        self.band_half_width = math.sqrt(math.log(2.0 / ECDF_ALPHA) / (2.0 * self.n))

    def rows(self) -> list[tuple[float, float, float, float]]:
        """(value, F, lo, hi) per sample point, band clipped to [0, 1]."""
        eps = self.band_half_width
        out = []
        for k, v in enumerate(self.samples, start=1):
            f = k / self.n
            out.append((v, f, max(0.0, f - eps), min(1.0, f + eps)))
        return out


def ecdf(samples) -> Ecdf:
    return Ecdf(samples)


def fit_uniform(samples) -> tuple[float, float]:
    """Uniform fit by sample min/max, exactly as plotted in the field study
    (biased, but fidelity beats optimality here)."""
    vals = [float(v) for v in samples]
    if len(vals) < UNIFORM_FIT_MIN_SAMPLES:
        raise TooFewSamplesError(f"need >= {UNIFORM_FIT_MIN_SAMPLES} samples for a uniform fit, have {len(vals)}")
    return min(vals), max(vals)


# -- shape taxonomy ----------------------------------------------------------


def classify_shape(points) -> Shape:
    """Square when boundary points reach the box corners, Cross when every
    corner is notched inward by at least a third of the tile size.

    Takes local (x, y) boundary points, such as `midpoints_local` returns.
    Returns Unknown when coverage is insufficient.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < SHAPE_MIN_POINTS:
        return Shape.UNKNOWN
    rect = Rect.from_points(pts)
    if rect.width <= 0 or rect.height <= 0:
        return Shape.UNKNOWN
    cx, cy = rect.center()
    quadrants = {(x > cx, y > cy) for x, y in pts if x != cx and y != cy}
    if len(quadrants) < 4:
        return Shape.UNKNOWN
    tile = _tile_from_box(rect)
    for corner in rect.corners():
        d_min = min(math.hypot(x - corner[0], y - corner[1]) for x, y in pts)
        if d_min <= tile / 3.0:
            return Shape.SQUARE
    return Shape.CROSS


# -- tile size and localization error ----------------------------------------


def max_localization_error(tile_size_m: float) -> float:
    """Half-diagonal of the uncertainty tile: worst-case distance from the
    tile center to any point of the tile."""
    if tile_size_m < 0:
        raise ValueError("tile size must be non-negative")
    return tile_size_m * math.sqrt(2.0) / 2.0


class SimulatorLab:
    """Private service whose single target can be redeployed at will.

    Each deployment gets a fresh virtual day, as in a multi-day campaign,
    so no scan exhausts the daily quota; `boundary` searches a line.
    """

    target_id = "probe"

    def __init__(self, grid_deg: float = DEFAULT_GRID_DEG):
        self._registry = TargetRegistry()
        self._registry.add(self.target_id, GeoPoint(0.0, 0.0))
        self._client = LocalClient(Service(self._registry, Quantizer(grid_deg)), "surveyor")
        self._day = 0

    def boundary(self, base: GeoPoint, offset: float) -> float:
        """Deploy the target `offset` meters east of base, on a fresh virtual
        day, and return the distance east of base of the nearest class
        boundary beyond it: step out by the jump until the class reads 1000,
        then bisect to `LAB_ACCURACY_M`. Every lab deployment goes through
        here; its result depends only on the arguments, or it raises a RuntimeError."""
        self._registry.move(self.target_id, destination(base, 90.0, offset))
        self._day += 1
        sess = ProbeSession(self._client, self.target_id, start_ts=self._day * SECONDS_PER_DAY)

        def inside(t: float) -> bool:
            cls = sess.query_class(destination(base, 90.0, t))
            if cls not in (INNER_CLASS_M, OUTER_CLASS_M):
                raise InconsistentOracleError(f"class {cls!r} at {t:g} m east of the lab's base")
            return cls == INNER_CLASS_M

        lo, hi = offset, offset + sess.cfg.jump  # the target's own position reads 500
        while inside(hi):
            lo, hi = hi, hi + sess.cfg.jump
        while hi - lo > LAB_ACCURACY_M:
            mid = (lo + hi) / 2.0
            lo, hi = (mid, hi) if inside(mid) else (lo, mid)
        return (lo + hi) / 2.0

    def ladder(self, base: GeoPoint, step: float, end: float):
        """Deploy the target at rung k, k * step meters east of base, for
        every rung up to `end` meters, and yield (offset, boundary) per
        rung."""
        for k in range(_last_rung(step, end) + 1):
            offset = k * step
            yield offset, self.boundary(base, offset)


def _last_rung(step: float, end: float) -> int:
    """The largest k with k * step <= end: the last rung of a ladder that
    ends at `end`. Each rung's offset is k * step, computed when needed,
    so no list of rungs is kept however small the step."""
    k = math.floor(end / step)  # off by at most one from rounding
    while k * step > end:
        k -= 1
    while (k + 1) * step <= end:
        k += 1
    return k


def _next_shift(
    lab: SimulatorLab, base: GeoPoint, step: float, last: int, lo: int, ref: float, threshold: float
) -> tuple[int, float] | None:
    """First rung after `lo`, up to rung `last`, whose eastward boundary
    lies more than `threshold` from `ref`, with that boundary; None when no
    rung does.

    Gallops with strides of 1, 2, 4, ... rungs until the boundary has
    moved, then bisects between the last unmoved and the first moved rung.
    """
    ok, stride = lo, 1
    while True:
        if ok == last:
            return None
        k = min(ok + stride, last)
        b = lab.boundary(base, k * step)
        if abs(b - ref) > threshold:
            break
        ok, stride = k, 2 * stride
    while k - ok > 1:
        mid = (ok + k) // 2
        b_mid = lab.boundary(base, mid * step)
        if abs(b_mid - ref) > threshold:
            k, b = mid, b_mid
        else:
            ok = mid
    return k, b


def estimate_tile_size(lab: SimulatorLab, base: GeoPoint, step: float = DEFAULT_STEP_M) -> float:
    """Tile size from boundary shifts under small target displacements.

    The rungs are those of `SimulatorLab.ladder`: rung k lies k * step
    meters east of base, up to `TILE_SCAN_SPAN_M`, and its offset is
    computed when it is deployed. A shift is a rung whose class boundary
    lies more than five times `LAB_ACCURACY_M` from the previous rung's.
    At the default pitch a cell (48 m or more) is far above that at every
    latitude, so the boundary stays put between shifts, and rather
    than deploy every rung the scan gallops from the last shift with
    strides of 1, 2, 4, ... rungs until the boundary has moved, then
    bisects for the first moved rung. Each deployment goes through
    `SimulatorLab.boundary` and depends only on its offset, so the scan
    finds the shifts the full ladder finds, from about a third of the
    deployments. It stops after `TILE_SHIFTS` shifts and returns the mean
    gap between consecutive shifts. Shift offsets are centered between the
    last unshifted and first shifted rung, so the estimate error is bounded
    by step / (TILE_SHIFTS - 1), plus `LAB_ACCURACY_M`.
    """
    if not step > 0:  # NaN too
        raise ValueError("step must be positive")
    threshold = 5.0 * LAB_ACCURACY_M  # real shifts are >= one tile, far above jitter
    last = _last_rung(step, TILE_SCAN_SPAN_M)
    shift_offsets: list[float] = []
    lo, ref = 0, lab.boundary(base, 0.0)
    while len(shift_offsets) < TILE_SHIFTS:
        found = _next_shift(lab, base, step, last, lo, ref, threshold)
        if found is None:
            break
        lo, ref = found
        shift_offsets.append(lo * step - step / 2.0)
    if len(shift_offsets) < 2:
        raise NoShiftObservedError(
            f"only {len(shift_offsets)} boundary shift(s) within {TILE_SCAN_SPAN_M} m; shorten the step"
        )
    return (shift_offsets[-1] - shift_offsets[0]) / (len(shift_offsets) - 1)


@dataclass
class SweepRow:
    name: str
    lat: float
    lon: float
    tile_size_m: float | None
    max_error_m: float | None
    shape: str
    error: str | None = None


def sweep_row(
    location: tuple[str, float, float],
    step: float = DEFAULT_STEP_M,
    grid_deg: float = DEFAULT_GRID_DEG,
    seed: int = 0,
) -> SweepRow:
    """Tile size, localization error and region shape at one (name, lat,
    lon) location, the shape from one `run_probe_deployment` at `seed`. A
    failure of the harness (a `RuntimeError` from the tile scan or the
    walker, or a position outside the Mercator domain) is recorded in the
    row, with the tile and error when only the walk failed; any other
    exception propagates. A row builds its own lab and deployment, so rows
    are independent of each other and of where they run."""
    name, lat, lon = location
    pos = GeoPoint(lat, lon)
    tile = err = None
    try:
        tile = estimate_tile_size(SimulatorLab(grid_deg=grid_deg), pos, step=step)
        err = max_localization_error(tile)
        tset, _ = run_probe_deployment(pos, seed, grid_deg)
        shape = classify_shape(midpoints_local(tset, pos))
        return SweepRow(name, lat, lon, tile, err, shape.value)
    except (RuntimeError, ProjectionDomainError) as exc:
        return SweepRow(name, lat, lon, tile, err, Shape.UNKNOWN.value, str(exc))


def latitude_sweep(
    locations=SWEEP_CITIES,
    step: float = DEFAULT_STEP_M,
    grid_deg: float = DEFAULT_GRID_DEG,
    seed: int = 0,
) -> list[SweepRow]:
    """One `sweep_row` per location, in input order. The rows run on a
    `DeploymentPool`, so a failed row is still a row with its error, and
    any other exception of a row reaches the caller with its own class. No
    locations make no rows and start no worker."""
    locations = list(locations)
    if not locations:
        return []
    with DeploymentPool(len(locations)) as pool:
        return list(pool.map(functools.partial(sweep_row, step=step, grid_deg=grid_deg, seed=seed), locations))


def run_probe_deployment(
    target_pos: GeoPoint,
    seed: int = 0,
    grid_deg: float = DEFAULT_GRID_DEG,
) -> tuple[TransitionSet, Service]:
    """One fresh deployment plus attack run against an in-process service,
    hinted at the target's true position."""
    registry = TargetRegistry()
    registry.add("target", target_pos)
    service = Service(registry, Quantizer(grid_deg))
    tset = collect_transitions(
        LocalClient(service, "finder"),
        "target",
        hint=target_pos,
        rng=random.Random(seed),
    )
    return tset, service


def pooled_box(target: GeoPoint, seed: int, grid_deg: float) -> Rect | None:
    """One pooled run: the box of a fresh `run_probe_deployment`, None when
    its transitions cover too few region faces for one."""
    tset, _ = run_probe_deployment(target, seed, grid_deg)
    try:
        return bounding_box(tset, target)
    except InsufficientCoverageError:
        return None


class DeploymentPool:
    """Worker processes for independent, seeded deployments; the one place
    the lab starts processes.

    `jobs` is the number of deployments the caller will map (at least 1),
    and the pool has one worker per CPU this process may run on
    (`os.sched_getaffinity`), capped at `jobs`. Each deployment builds its
    own registry, service and `Random(seed)`, so a result depends only on
    its arguments, and `map` returns results in input order: the outputs
    are those of a serial loop whatever the worker count. Workers are
    forked, so they start from the modules already imported here instead
    of importing them again; forking is safe while the caller runs no
    other thread, as the CLI does. A job function must be a module-level
    function that nothing wraps, so that it pickles by name. Leaving the
    `with` block waits for every worker to exit, and cancels the jobs not
    yet started when the block raised.
    """

    def __init__(self, jobs: int):
        # Imported here: importing proxilab.cli should not pay for them.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        self._workers = min(len(os.sched_getaffinity(0)), jobs)
        self._pool = ProcessPoolExecutor(self._workers, mp_context=multiprocessing.get_context("fork"))

    def __enter__(self) -> "DeploymentPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._pool.shutdown(cancel_futures=exc_type is not None)

    def map(self, fn, *iterables):
        """Submit fn over the zipped argument lists now and return an
        iterator over the results in input order; a job's exception is
        raised, with its own class, when its result is reached. Jobs go
        out in chunks of max(1, len // (4 * workers)), a few chunks per
        worker."""
        chunksize = max(1, len(iterables[0]) // (4 * self._workers))
        return self._pool.map(fn, *iterables, chunksize=chunksize)


def build_report(tset: TransitionSet, anchor: GeoPoint) -> PrivacyReport:
    """Assemble the per-deployment report, with the tile size derived from
    the box. The transition midpoints are taken once, for the box, its
    face check and the shape."""
    pts = midpoints_local(tset, anchor)
    rect = bounding_box(tset, anchor, pts)
    tile_size_m = _tile_from_box(rect)
    return PrivacyReport(
        rect=rect,
        centroid=centroid(rect),
        tile_size_m=tile_size_m,
        max_error_m=max_localization_error(tile_size_m),
        shape=classify_shape(pts),
        n_transitions=len(tset),
        n_queries=tset.total_queries,
    )


# -- file outputs -------------------------------------------------------------


def write_csv(path: str, header, rows, config: dict) -> None:
    """CSV under a one-line `# config {...}` echo of the run configuration;
    rows may be a generator, consumed while the file is written."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("# config " + dumps(config) + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_sweep_csv(path: str, rows: list[SweepRow], config: dict) -> None:
    """A failed row leaves l_m and D_m empty: csv writes None as ""."""
    out = ([r.name, r.lat, r.lon, r.tile_size_m, r.max_error_m, r.shape] for r in rows)
    write_csv(path, ["name", "lat", "lon", "l_m", "D_m", "shape"], out, config)


def write_ecdf_csv(path: str, dist: Ecdf, config: dict) -> None:
    write_csv(path, ["value", "F", "lo", "hi"], dist.rows(), config)


def write_json(path: str, payload: dict) -> None:
    """Indented JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_report_json(path: str, report: PrivacyReport, config: dict) -> None:
    write_json(path, {"config": config, "report": report.to_dict()})
