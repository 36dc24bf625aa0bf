"""Independent geometry oracle for the benchmark's correctness checks.

Re-derives the service rules from scratch: its own Mercator formulas, its
own haversine, its own grid rounding and class bucketing, and brute-force
listings. Nothing here imports or calls proxilab, so a rewrite of the geo
primitives or of Service.search cannot vouch for itself.
"""

from __future__ import annotations

import math

RADIUS_M = 6_378_137.0
M_PER_DEG = RADIUS_M * math.pi / 180.0
GRID_DEG = 0.005
PUBLIC_CLASSES = (500, 1000, 2000, 3000, 4000, 5000, 6000,
                  7000, 8000, 9000, 10000, 11000, 12000)
CONTACT_CLASSES = (100,) + PUBLIC_CLASSES
LISTING_LIMIT_M = PUBLIC_CLASSES[-1] + 500.0
MAX_RESULTS = 100


def wrap_lon(lon: float) -> float:
    return (lon + 180.0) % 360.0 - 180.0


def merc_y(lat: float) -> float:
    return math.degrees(math.log(math.tan(math.pi / 4.0 + math.radians(lat) / 2.0)))


def inv_merc_y(y: float) -> float:
    return math.degrees(2.0 * math.atan(math.exp(math.radians(y))) - math.pi / 2.0)


def haversine(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    p1 = math.radians(lat1)
    p2 = math.radians(lat2)
    dp = math.radians(lat2 - lat1)
    dl = math.radians(wrap_lon(lon2 - lon1))
    h = math.sin(dp / 2.0) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2.0) ** 2
    return 2.0 * RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


def offset(lat: float, lon: float, east_m: float, north_m: float) -> tuple[float, float]:
    """Flat displacement in meters; used only to generate inputs."""
    return (
        lat + north_m / M_PER_DEG,
        wrap_lon(lon + east_m / (M_PER_DEG * math.cos(math.radians(lat)))),
    )


def node(lat: float, lon: float) -> tuple[int, int]:
    return math.floor(lon / GRID_DEG + 0.5), math.floor(merc_y(lat) / GRID_DEG + 0.5)


def node_latlon(i: int, j: int) -> tuple[float, float]:
    return inv_merc_y(j * GRID_DEG), wrap_lon(i * GRID_DEG)


def snapped(lat: float, lon: float) -> tuple[float, float]:
    return node_latlon(*node(lat, lon))


def bucket(d: float, contact: bool) -> int | None:
    if d > LISTING_LIMIT_M:
        return None
    return min(CONTACT_CLASSES if contact else PUBLIC_CLASSES, key=lambda c: (abs(d - c), c))


def reported_class(finder: tuple[float, float], target: tuple[float, float]) -> int | None:
    """Class a non-contact finder is shown for the target."""
    f = snapped(*finder)
    t = snapped(*target)
    return bucket(haversine(f[0], f[1], t[0], t[1]), False)


class ListingOracle:
    """Brute-force listings over the benchmark's own copy of the registry."""

    def __init__(self, targets: dict[str, tuple[float, float]], contacts: dict[str, frozenset]):
        self.targets = targets
        self.contacts = contacts
        self._snapped: dict[str, tuple[float, float]] = {}

    def move(self, tid: str, pos: tuple[float, float]) -> None:
        self.targets[tid] = pos
        self._snapped.pop(tid, None)

    def listing(self, account: str, pos: tuple[float, float]) -> list[tuple[str, int]]:
        q_lat, q_lon = snapped(*pos)
        out = []
        for tid, t_pos in self.targets.items():
            s = self._snapped.get(tid)
            if s is None:
                s = self._snapped[tid] = snapped(*t_pos)
            cls = bucket(haversine(q_lat, q_lon, s[0], s[1]), account in self.contacts.get(tid, ()))
            if cls is not None:
                out.append((tid, cls))
        out.sort(key=lambda e: (e[1], e[0]))
        return out[:MAX_RESULTS]


def region_box_local(lat: float, lon: float) -> tuple[float, float, float, float]:
    """Closed-form 500 m region box (x_lo, x_hi, y_lo, y_hi) in equirectangular
    meters about the target: every node whose snapped distance to the
    target's node is at most 750 m, widened by half a cell."""
    i0, j0 = node(lat, lon)
    n_lat, n_lon = node_latlon(i0, j0)
    cell = GRID_DEG * M_PER_DEG * math.cos(math.radians(lat))
    reach = int(800.0 / cell) + 2
    cells = [
        (di, dj)
        for di in range(-reach, reach + 1)
        for dj in range(-reach, reach + 1)
        if haversine(*node_latlon(i0 + di, j0 + dj), n_lat, n_lon) <= 750.0
    ]
    min_i = min(c[0] for c in cells)
    max_i = max(c[0] for c in cells)
    min_j = min(c[1] for c in cells)
    max_j = max(c[1] for c in cells)
    cos_lat = math.cos(math.radians(lat))
    x_lo = ((i0 + min_i - 0.5) * GRID_DEG - lon) * cos_lat * M_PER_DEG
    x_hi = ((i0 + max_i + 0.5) * GRID_DEG - lon) * cos_lat * M_PER_DEG
    y_lo = (inv_merc_y((j0 + min_j - 0.5) * GRID_DEG) - lat) * M_PER_DEG
    y_hi = (inv_merc_y((j0 + max_j + 0.5) * GRID_DEG) - lat) * M_PER_DEG
    return x_lo, x_hi, y_lo, y_hi
