"""Deterministic state machine mimicking the reverse-engineered proximity
service.

Coordinates of both the querying account and every opted-in target are
rounded onto a Mercator-aligned tessellation before any distance is
computed, the true distance is replaced by the nearest value from a fixed
class vocabulary, and each account is subject to a daily query quota and an
implied-speed ban. Timestamps are supplied by clients in seconds of virtual
time; the core never reads a wall clock, so every experiment replays
bit-identically.
"""

from __future__ import annotations

import json
import math
import threading
from bisect import bisect_left
from dataclasses import dataclass
from math import asin, atan, cos, exp, floor, log, sin, tan

from .geo import (
    DEGREES_PER_RADIAN,
    EARTH_RADIUS_M,
    METERS_PER_DEGREE,
    RADIANS_PER_DEGREE,
    GeoPoint,
    MercatorPoint,
    _point,
    check_lat,
    distance,
    from_mercator,
    to_mercator,
)

DISTANCE_CLASSES_M = (
    100, 500, 1000, 2000, 3000, 4000, 5000, 6000,
    7000, 8000, 9000, 10000, 11000, 12000,
)
CONTACT_ONLY_CLASSES_M = frozenset({100})
LISTING_MARGIN_M = 500.0  # targets farther than max class + margin are not listed

DEFAULT_GRID_DEG = 0.005
DEFAULT_DAILY_QUOTA = 1000
DEFAULT_SPEED_LIMIT_MPS = 25.0  # 90 km/h
DEFAULT_BAN_S = 86_400.0
# Anchored admission: an account's first query in each window declares
# its area, and later queries in that window must stay within the radius.
ANCHOR_RADIUS_M = 10.0
ANCHOR_WINDOW_S = 600.0
DEFAULT_MAX_RESULTS = 100
SECONDS_PER_DAY = 86_400.0

# Edge of the registry's index blocks, about 1.1 km of latitude. Against a
# search reach of about 13.3 km, the window of blocks a search visits, one
# block of margin included, holds about 1.6 times the targets within reach
# at mid latitudes; larger blocks inflate that share, smaller ones the
# number of blocks to look up.
BLOCK_DEG = 0.01
_BLOCK_ROWS = round(180.0 / BLOCK_DEG)
_BLOCK_COLS = round(360.0 / BLOCK_DEG)


class QueryRejected(Exception):
    """Base class for service-side rejections carried over the wire."""

    code = "REJECTED"

    def __init__(self, message: str, retry_after_s: float = 0.0):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class FloodWaitError(QueryRejected):
    code = "FLOOD_WAIT"


class SpeedBanError(QueryRejected):
    code = "SPEED_BAN"


class AreaRestrictedError(QueryRejected):
    """Rejection from the anchored-admission countermeasure variant."""

    code = "AREA_RESTRICTED"


class ProtocolError(Exception):
    """Malformed use of the query interface, e.g. non-monotonic timestamps."""


class RegistryFormatError(ValueError):
    def __init__(self, path: str, line_no: int, reason: str):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.path = path
        self.line_no = line_no
        self.reason = reason

    def __reduce__(self):
        # The default rebuilds from the message alone, which __init__ rejects.
        return type(self), (self.path, self.line_no, self.reason)


@dataclass(frozen=True)
class GridNode:
    """Integer cell indices on the Mercator grid."""

    i: int
    j: int


class Quantizer:
    """Rounds coordinates onto a Mercator-aligned tessellation.

    Each Mercator axis is rounded to the nearest grid line, ties toward
    +inf. Snapping is idempotent: a node's own geographic coordinate snaps
    back to the same node.
    """

    def __init__(self, grid_deg: float = DEFAULT_GRID_DEG):
        if grid_deg <= 0:
            raise ValueError("grid_deg must be positive")
        self.grid_deg = grid_deg

    def snap(self, p: GeoPoint) -> GridNode:
        m = to_mercator(p)
        g = self.grid_deg
        return GridNode(i=floor(m.x / g + 0.5), j=floor(m.y / g + 0.5))

    def node_point(self, node: GridNode) -> GeoPoint:
        return from_mercator(MercatorPoint(node.i * self.grid_deg, node.j * self.grid_deg))

    def snap_point(self, p: GeoPoint) -> GeoPoint:
        """`node_point(snap(p))` in one pass: the arithmetic of `to_mercator`,
        `snap` and `from_mercator`, operation for operation, without the
        intermediate `MercatorPoint`s and `GridNode`."""
        lat = p.lat
        check_lat(lat)
        g = self.grid_deg
        y = log(tan(math.pi / 4.0 + lat * RADIANS_PER_DEGREE / 2.0)) * DEGREES_PER_RADIAN
        i = floor(p.lon / g + 0.5)
        j = floor(y / g + 0.5)
        node_lat = (2.0 * atan(exp(j * g * RADIANS_PER_DEGREE)) - math.pi / 2.0) * DEGREES_PER_RADIAN
        # i * g reaches 180.0 just west of the antimeridian; the wrap takes
        # it to -180.0, as GeoPoint's would.
        return _point(node_lat, (i * g + 180.0) % 360.0 - 180.0)

    def cell_size(self, lat_deg: float) -> float:
        """Ground extent of one cell in meters, identical in both axes."""
        check_lat(lat_deg)
        return self.grid_deg * METERS_PER_DEGREE * math.cos(math.radians(lat_deg))


# The classes a listing may report, ascending, indexed by the contact flag:
# the contact-only classes appear in row 1 alone.
DEFAULT_CLASS_TABLE = tuple(
    tuple(sorted(c for c in DISTANCE_CLASSES_M if contact or c not in CONTACT_ONLY_CLASSES_M))
    for contact in (False, True)
)


def classify(d_m: float, contact: bool = False) -> int | None:
    """Bucket a distance into the nearest allowed class of
    `DEFAULT_CLASS_TABLE`.

    Ties go to the smaller class. The 100 m class is reachable only for
    contacts. Returns None (not listed) beyond the largest class plus the
    listing margin.
    """
    if d_m < 0:
        raise ValueError("distance must be non-negative")
    allowed = DEFAULT_CLASS_TABLE[1 if contact else 0]
    if d_m > allowed[-1] + LISTING_MARGIN_M:
        return None
    k = bisect_left(allowed, d_m)
    if k == 0:
        return allowed[0]
    if k == len(allowed):
        return allowed[-1]
    # Only the two neighbours can be nearest; comparing them as below is the
    # (|d - c|, c) ordering, so a tie goes to the smaller class.
    lower, upper = allowed[k - 1], allowed[k]
    return lower if d_m - lower <= upper - d_m else upper


@dataclass
class AccountState:
    """Per-account quota, movement and ban bookkeeping."""

    id: str
    queries_today: int = 0
    day_epoch: int | None = None
    last_pos: GeoPoint | None = None
    last_ts: float | None = None
    ban_until: float | None = None
    ban_code: str | None = None
    ban_events: int = 0
    total_admitted: int = 0
    anchor_pos: GeoPoint | None = None
    anchor_window: int | None = None


@dataclass(frozen=True)
class TargetRecord:
    id: str
    pos: GeoPoint
    contact_of: frozenset = frozenset()


def _block_of(p: GeoPoint) -> int:
    row = math.floor((p.lat + 90.0) / BLOCK_DEG)
    return row * _BLOCK_COLS + math.floor((p.lon + 180.0) / BLOCK_DEG) % _BLOCK_COLS


class TargetRegistry:
    """Opted-in targets with true positions, fixed unless explicitly moved.

    Records are bucketed by the `BLOCK_DEG` block of their true position so
    that `near` touches only the blocks around a query. A record is never
    mutated: `move` replaces it, so a caller may key derived data on the
    record's identity. Positions must lie inside the Mercator domain.
    """

    def __init__(self):
        self._targets: dict[str, TargetRecord] = {}
        self._blocks: dict[int, dict[str, TargetRecord]] = {}
        self._lock = threading.Lock()

    def add(self, target_id: str, pos: GeoPoint, contact_of=()) -> None:
        check_lat(pos.lat)
        with self._lock:
            if target_id in self._targets:
                raise ValueError(f"duplicate target id {target_id!r}")
            rec = TargetRecord(target_id, pos, frozenset(contact_of))
            self._targets[target_id] = rec
            self._blocks.setdefault(_block_of(pos), {})[target_id] = rec

    def move(self, target_id: str, pos: GeoPoint) -> None:
        check_lat(pos.lat)
        with self._lock:
            old = self._targets[target_id]
            rec = TargetRecord(old.id, pos, old.contact_of)
            self._targets[target_id] = rec
            old_block, new_block = _block_of(old.pos), _block_of(pos)
            if old_block != new_block:
                bucket = self._blocks[old_block]
                del bucket[target_id]
                if not bucket:
                    del self._blocks[old_block]
            self._blocks.setdefault(new_block, {})[target_id] = rec

    def near(self, center: GeoPoint, radius_m: float) -> list[TargetRecord]:
        """Every record in a block that the spherical cap of radius_m about
        center can reach, with one block of margin on each side: a superset
        of the targets within radius_m, in no particular order. A registry
        of one record returns it whatever the cap."""
        with self._lock:
            if len(self._targets) == 1:
                return list(self._targets.values())
            delta = radius_m / EARTH_RADIUS_M
            span = delta * DEGREES_PER_RADIAN
            row_lo = max(floor((center.lat - span + 90.0) / BLOCK_DEG) - 1, 0)
            row_hi = min(floor((center.lat + span + 90.0) / BLOCK_DEG) + 1, _BLOCK_ROWS - 1)
            # The window's columns run from col_lo for n_cols, modulo
            # _BLOCK_COLS so they wrap at the antimeridian; a cap that reaches
            # a pole, or spans every longitude, takes whole rows.
            col_lo, n_cols = 0, _BLOCK_COLS
            if abs(center.lat) + span < 90.0:
                ratio = sin(delta) / cos(center.lat * RADIANS_PER_DEGREE)
                if ratio < 1.0:
                    dlon = asin(ratio) * DEGREES_PER_RADIAN
                    lo = floor((center.lon - dlon + 180.0) / BLOCK_DEG) - 1
                    hi = floor((center.lon + dlon + 180.0) / BLOCK_DEG) + 1
                    if hi - lo + 1 < _BLOCK_COLS:
                        col_lo, n_cols = lo % _BLOCK_COLS, hi - lo + 1
            out: list[TargetRecord] = []
            if (row_hi - row_lo + 1) * n_cols > len(self._blocks):
                # Fewer occupied blocks than blocks in the window: test each.
                for key, bucket in self._blocks.items():
                    row, col = divmod(key, _BLOCK_COLS)
                    if row_lo <= row <= row_hi and (col - col_lo) % _BLOCK_COLS < n_cols:
                        out.extend(bucket.values())
            else:
                for row in range(row_lo, row_hi + 1):
                    base = row * _BLOCK_COLS
                    for col in range(col_lo, col_lo + n_cols):
                        bucket = self._blocks.get(base + col % _BLOCK_COLS)
                        if bucket:
                            out.extend(bucket.values())
        return out

    def position(self, target_id: str) -> GeoPoint:
        return self._targets[target_id].pos

    def __len__(self) -> int:
        return len(self._targets)

    def __contains__(self, target_id: str) -> bool:
        return target_id in self._targets

    def iter_sorted(self):
        for tid in sorted(self._targets):
            yield self._targets[tid]

    @classmethod
    def from_jsonl(cls, path: str) -> "TargetRegistry":
        """Load targets from JSONL records:
        {"id": str, "lat": num, "lon": num, "contact_of": [account ids]}
        """
        reg = cls()
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise RegistryFormatError(path, line_no, f"invalid JSON: {exc.msg}") from exc
                if not isinstance(rec, dict):
                    raise RegistryFormatError(path, line_no, "record must be an object")
                try:
                    tid = rec["id"]
                    lat = rec["lat"]
                    lon = rec["lon"]
                except KeyError as exc:
                    raise RegistryFormatError(path, line_no, f"missing field {exc.args[0]!r}") from exc
                contacts = rec.get("contact_of", [])
                if (
                    not isinstance(tid, str)
                    or not isinstance(lat, (int, float))
                    or not isinstance(lon, (int, float))
                    or not isinstance(contacts, list)
                ):
                    raise RegistryFormatError(path, line_no, "bad field types")
                try:
                    reg.add(tid, GeoPoint(float(lat), float(lon)), contacts)
                except ValueError as exc:
                    raise RegistryFormatError(path, line_no, str(exc)) from exc
        return reg


class Service:
    """The proximity service proper.

    A search classifies only the targets that `TargetRegistry.near` returns
    for the listing reach: the largest class plus the listing margin plus
    the largest snap displacement of a target, so its cost follows the
    number of nearby targets, not the registry size. Each target is snapped
    once per registry record; a snapped point is reused only while the
    registry still holds the record it came from, and `move` replaces the
    record, so a moved target is never classified from its old position.
    Per-account state is mutated under a per-account lock so a threaded
    server can serialize admissions per account while distance computation
    stays lock-free. One table maps each account to its state and its lock;
    a search reads it without a lock, and only the first use of an account
    takes the table's guard, so two threads never create two states for
    one account.
    """

    def __init__(
        self,
        registry: TargetRegistry,
        quantizer: Quantizer | None = None,
        daily_quota: int = DEFAULT_DAILY_QUOTA,
        speed_limit_mps: float = DEFAULT_SPEED_LIMIT_MPS,
        max_results: int = DEFAULT_MAX_RESULTS,
        admission: str = "standard",
    ):
        if admission not in ("standard", "anchored"):
            raise ValueError(f"unknown admission policy {admission!r}")
        self.registry = registry
        self.quantizer = quantizer or Quantizer()
        self.daily_quota = daily_quota
        self.speed_limit_mps = speed_limit_mps
        self.max_results = max_results
        self.admission = admission
        self._accounts: dict[str, tuple[AccountState, threading.Lock]] = {}
        self._guard = threading.Lock()
        # Snapping moves a target by at most half a cell diagonal, and a
        # cell is never wider than grid_deg of equator; the reach allows a
        # whole diagonal, the other half as margin.
        self._reach_m = (
            max(DISTANCE_CLASSES_M)
            + LISTING_MARGIN_M
            + math.sqrt(2.0) * self.quantizer.grid_deg * METERS_PER_DEGREE
        )
        self._snapped: dict[str, tuple[TargetRecord, GeoPoint]] = {}

    # -- account state ----------------------------------------------------

    def _account_entry(self, account_id: str) -> tuple[AccountState, threading.Lock]:
        entry = self._accounts.get(account_id)
        if entry is None:
            with self._guard:
                entry = self._accounts.get(account_id)
                if entry is None:
                    entry = self._accounts[account_id] = (AccountState(id=account_id), threading.Lock())
        return entry

    def account(self, account_id: str) -> AccountState:
        return self._account_entry(account_id)[0]

    def _admit(self, st: AccountState, pos: GeoPoint, ts: float) -> None:
        if st.last_ts is not None and ts < st.last_ts:
            raise ProtocolError(
                f"non-monotonic timestamp for account {st.id!r}: {ts} < {st.last_ts}"
            )
        if st.ban_until is not None:
            if ts < st.ban_until:
                exc = FloodWaitError if st.ban_code == "FLOOD_WAIT" else SpeedBanError
                raise exc("account banned", retry_after_s=st.ban_until - ts)
            st.ban_until = None
            st.ban_code = None
        day = int(ts // SECONDS_PER_DAY)
        if st.day_epoch != day:
            st.day_epoch = day
            st.queries_today = 0
        if self.admission == "anchored":
            window = int(ts // ANCHOR_WINDOW_S)
            if st.anchor_window != window:
                st.anchor_window = window
                st.anchor_pos = pos
            elif distance(st.anchor_pos, pos) > ANCHOR_RADIUS_M:
                next_window = (window + 1) * ANCHOR_WINDOW_S
                raise AreaRestrictedError(
                    "position outside the declared area for this window",
                    retry_after_s=next_window - ts,
                )
        if st.queries_today >= self.daily_quota:
            st.ban_until = ts + DEFAULT_BAN_S
            st.ban_code = "FLOOD_WAIT"
            st.ban_events += 1
            raise FloodWaitError("daily query quota exhausted", retry_after_s=DEFAULT_BAN_S)
        if st.last_pos is not None and st.last_ts is not None:
            d = distance(st.last_pos, pos)
            dt = ts - st.last_ts
            if d > self.speed_limit_mps * dt:
                st.ban_until = ts + DEFAULT_BAN_S
                st.ban_code = "SPEED_BAN"
                st.ban_events += 1
                raise SpeedBanError("implied speed above limit", retry_after_s=DEFAULT_BAN_S)
        st.queries_today += 1
        st.total_admitted += 1
        st.last_pos = pos
        st.last_ts = ts

    # -- queries -----------------------------------------------------------

    def search(self, account_id: str, pos: GeoPoint, ts: float) -> list[tuple[str, int]]:
        """Nearby listing for one query: [(target id, class meters)], sorted
        ascending by class then id, truncated to max_results."""
        # Snapping first rejects a polar query before it is admitted.
        query_pt = self.quantizer.snap_point(pos)
        st, lock = self._account_entry(account_id)
        with lock:
            self._admit(st, pos, ts)
        snapped = self._snapped
        out: list[tuple[str, int]] = []
        for rec in self.registry.near(query_pt, self._reach_m):
            entry = snapped.get(rec.id)
            if entry is None or entry[0] is not rec:
                entry = snapped[rec.id] = (rec, self.quantizer.snap_point(rec.pos))
            d = distance(query_pt, entry[1])
            cls = classify(d, account_id in rec.contact_of)
            if cls is not None:
                out.append((rec.id, cls))
        out.sort(key=lambda e: (e[1], e[0]))
        return out[: self.max_results]


class LocalClient:
    """In-process client with the same surface as the TCP client."""

    def __init__(self, service: Service, account: str):
        self._service = service
        self.account = account

    def search(self, pos: GeoPoint, ts: float) -> list[tuple[str, int]]:
        return self._service.search(self.account, pos, ts)
