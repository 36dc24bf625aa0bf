"""Shared fixtures and an independent geometry oracle.

The oracle re-derives the snapping, bucketing and local-frame rules from
scratch (own Mercator formulas, own haversine, brute-force cell enumeration
sized from the cell, so it holds at every latitude the service accepts) so
tests never validate the implementation against itself. Only the node
functions and `oracle_class` take a grid pitch; the rest use the default
one.
"""

from __future__ import annotations

import math
import os
import random

import pytest

import proxilab
from proxilab.geo import GeoPoint
from proxilab.analysis import run_probe_deployment

ORACLE_RADIUS_M = 6_378_137.0
ORACLE_M_PER_DEG = ORACLE_RADIUS_M * math.pi / 180.0
ORACLE_GRID_DEG = 0.005
PUBLIC_CLASSES = (500, 1000, 2000, 3000, 4000, 5000, 6000,
                  7000, 8000, 9000, 10000, 11000, 12000)


def child_env(**extra: str) -> dict[str, str]:
    """This process's environment plus `extra`, with this source tree first
    on a child Python's PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(proxilab.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path, **extra}


def oracle_wrap_lon(lon: float) -> float:
    return (lon + 180.0) % 360.0 - 180.0


def oracle_merc_y(lat_deg: float) -> float:
    return math.degrees(math.log(math.tan(math.pi / 4.0 + math.radians(lat_deg) / 2.0)))


def oracle_inv_y(y_deg: float) -> float:
    return math.degrees(2.0 * math.atan(math.exp(math.radians(y_deg))) - math.pi / 2.0)


def oracle_haversine(lat1, lon1, lat2, lon2) -> float:
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = math.radians(lat2 - lat1)
    dl = math.radians(oracle_wrap_lon(lon2 - lon1))
    h = math.sin(dp / 2.0) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2.0) ** 2
    return 2.0 * ORACLE_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


def oracle_local(anchor: GeoPoint, lat: float, lon: float) -> tuple[float, float]:
    """Equirectangular meters (east, north) of (lat, lon) about the anchor."""
    x = oracle_wrap_lon(lon - anchor.lon) * math.cos(math.radians(anchor.lat)) * ORACLE_M_PER_DEG
    return x, (lat - anchor.lat) * ORACLE_M_PER_DEG


def oracle_from_local(anchor: GeoPoint, x: float, y: float) -> tuple[float, float]:
    """Inverse of oracle_local: (lat, lon), the longitude not wrapped."""
    return (
        anchor.lat + y / ORACLE_M_PER_DEG,
        anchor.lon + x / (ORACLE_M_PER_DEG * math.cos(math.radians(anchor.lat))),
    )


def oracle_node(lat_deg: float, lon_deg: float, grid: float = ORACLE_GRID_DEG) -> tuple[int, int]:
    return (
        math.floor(lon_deg / grid + 0.5),
        math.floor(oracle_merc_y(lat_deg) / grid + 0.5),
    )


def oracle_node_latlon(i: int, j: int, grid: float = ORACLE_GRID_DEG) -> tuple[float, float]:
    return oracle_inv_y(j * grid), oracle_wrap_lon(i * grid)


def oracle_class(
    finder: GeoPoint, target: GeoPoint, contact: bool = False, grid: float = ORACLE_GRID_DEG
) -> int | None:
    """Class a finder is shown, per the rounding-then-nearest-bucket rules;
    only a contact of the target may be shown the 100 m class."""
    f_lat, f_lon = oracle_node_latlon(*oracle_node(finder.lat, finder.lon, grid), grid)
    t_lat, t_lon = oracle_node_latlon(*oracle_node(target.lat, target.lon, grid), grid)
    d = oracle_haversine(f_lat, f_lon, t_lat, t_lon)
    if d > PUBLIC_CLASSES[-1] + 500.0:
        return None
    classes = (100, *PUBLIC_CLASSES) if contact else PUBLIC_CLASSES
    return min(classes, key=lambda c: (abs(d - c), c))


def oracle_region_cells(target: GeoPoint) -> set[tuple[int, int]]:
    """Cell offsets (di, dj) whose node classifies as 500 for the target.

    The region spans at most 750 m plus the target's offset from its node,
    so the enumeration reaches 800 m of cells, and two more, each way.
    """
    i0, j0 = oracle_node(target.lat, target.lon)
    n_lat, n_lon = oracle_node_latlon(i0, j0)
    cell = ORACLE_GRID_DEG * ORACLE_M_PER_DEG * math.cos(math.radians(target.lat))
    reach = int(800.0 / cell) + 2
    offsets = range(-reach, reach + 1)
    return {
        (di, dj)
        for di in offsets
        for dj in offsets
        if oracle_haversine(*oracle_node_latlon(i0 + di, j0 + dj), n_lat, n_lon) <= 750.0
    }


# Node rows of the default grid from the equator to the Mercator limit
# (y = 180 deg, 85.0511 deg) in either hemisphere.
ORACLE_TOP_ROW = round(180.0 / ORACLE_GRID_DEG)


class OracleRegionTable:
    """The 500 m region of a target on node (0, j) of the default grid, for
    every row j within ORACLE_TOP_ROW of the equator, both hemispheres built
    by the same loop.

    Node (i, j + dj) belongs to the region when its haversine to the
    target's node is at most 750 m, the 500/1000 cut with ties to 500; each
    row dj of the region is one run of columns -k..k. `runs(j)` is the
    region as ((dj, k), ...), ascending in dj. `breakpoints` lists the rows
    whose runs differ from those of the row next to them toward the equator.
    Rows step away from the equator, and each row run's search starts from
    the k of the same dj one row before, which rarely changes.
    """

    def __init__(self):
        self.breakpoints: list[int] = []
        self._rows: dict[int, list] = {}  # per hemisphere sign, runs indexed by |j|
        for sign in (1, -1):
            rows = self._rows[sign] = []
            ks: dict[int, int] = {}
            for j in range(0, sign * (ORACLE_TOP_ROW + 1), sign):
                runs = self._region(j, ks)
                if rows and runs == rows[-1]:
                    runs = rows[-1]  # one tuple per region keeps the table small
                elif rows:
                    self.breakpoints.append(j)
                rows.append(runs)

    @staticmethod
    def _region(j: int, ks: dict[int, int]) -> tuple[tuple[int, int], ...]:
        t_lat = oracle_inv_y(j * ORACLE_GRID_DEG)
        runs = []
        for dj, step in ((-1, -1), (0, 1)):
            while True:
                lat = oracle_inv_y((j + dj) * ORACLE_GRID_DEG)
                k = ks.get(dj, 0)
                while oracle_haversine(lat, (k + 1) * ORACLE_GRID_DEG, t_lat, 0.0) <= 750.0:
                    k += 1
                while k >= 0 and oracle_haversine(lat, k * ORACLE_GRID_DEG, t_lat, 0.0) > 750.0:
                    k -= 1
                if k < 0:
                    break
                ks[dj] = k
                runs.append((dj, k))
                dj += step
        return tuple(sorted(runs))

    def runs(self, j: int) -> tuple[tuple[int, int], ...]:
        return self._rows[1 if j >= 0 else -1][abs(j)]


def oracle_bbox_local(target: GeoPoint) -> tuple[float, float, float, float]:
    """Analytic transition-boundary box in local meters about the target."""
    grid = ORACLE_GRID_DEG
    i0, j0 = oracle_node(target.lat, target.lon)
    cells = oracle_region_cells(target)
    min_i = min(c[0] for c in cells)
    max_i = max(c[0] for c in cells)
    min_j = min(c[1] for c in cells)
    max_j = max(c[1] for c in cells)
    cos_lat = math.cos(math.radians(target.lat))
    x_lo = ((i0 + min_i - 0.5) * grid - target.lon) * cos_lat * ORACLE_M_PER_DEG
    x_hi = ((i0 + max_i + 0.5) * grid - target.lon) * cos_lat * ORACLE_M_PER_DEG
    y_lo = (oracle_inv_y((j0 + min_j - 0.5) * grid) - target.lat) * ORACLE_M_PER_DEG
    y_hi = (oracle_inv_y((j0 + max_j + 0.5) * grid) - target.lat) * ORACLE_M_PER_DEG
    return x_lo, x_hi, y_lo, y_hi


def oracle_boundary_points(lat_deg: float) -> list[tuple[float, float]]:
    """Dense scan of the 500-region boundary in local meters about the node.

    Walks every exposed cell edge of the region and samples nine points
    along it.
    """
    grid = ORACLE_GRID_DEG
    target = GeoPoint(lat_deg, 0.0)
    cells = oracle_region_cells(target)
    i0, j0 = oracle_node(target.lat, target.lon)
    n_lat, n_lon = oracle_node_latlon(i0, j0)
    cos_lat = math.cos(math.radians(n_lat))

    def to_xy(merc_x, merc_y):
        x = (merc_x - n_lon) * cos_lat * ORACLE_M_PER_DEG
        y = (oracle_inv_y(merc_y) - n_lat) * ORACLE_M_PER_DEG
        return (x, y)

    pts = []
    for di, dj in cells:
        cx, cy = (i0 + di) * grid, (j0 + dj) * grid
        edges = {
            (0, 1): ((cx - grid / 2, cy + grid / 2), (cx + grid / 2, cy + grid / 2)),
            (0, -1): ((cx - grid / 2, cy - grid / 2), (cx + grid / 2, cy - grid / 2)),
            (1, 0): ((cx + grid / 2, cy - grid / 2), (cx + grid / 2, cy + grid / 2)),
            (-1, 0): ((cx - grid / 2, cy - grid / 2), (cx - grid / 2, cy + grid / 2)),
        }
        for (ni, nj), (a, b) in edges.items():
            if (di + ni, dj + nj) in cells:
                continue  # interior edge
            for k in range(9):
                f = (k + 0.5) / 9
                pts.append(to_xy(a[0] + f * (b[0] - a[0]), a[1] + f * (b[1] - a[1])))
    return pts


def walk_records(registry, center: GeoPoint, radius_m: float) -> list:
    """Every record `TargetRegistry.walk` yields, flattened, under the
    registry's lock: a superset of the targets within radius_m of center,
    in walk order."""
    with registry._lock:
        return [rec for group, _ in registry.walk(center, radius_m) for rec in group]


@pytest.fixture(scope="session")
def region_table() -> OracleRegionTable:
    return OracleRegionTable()


@pytest.fixture(scope="session")
def midlat_runs():
    """100 seeded attack runs against jittered targets at latitude 40, the
    square regime. Shared by the prober properties and the acceptance gate."""
    runs = []
    for seed in range(100):
        rng = random.Random(seed)
        target = GeoPoint(40.0 + rng.uniform(-0.02, 0.02), -3.0 + rng.uniform(-0.03, 0.03))
        tset, service = run_probe_deployment(target, seed=seed)
        runs.append((target, tset, service))
    return runs
