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
from dataclasses import dataclass

from .geo import (
    MAX_MERCATOR_LAT_DEG,
    METERS_PER_DEGREE,
    GeoPoint,
    MercatorPoint,
    ProjectionDomainError,
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
DEFAULT_MAX_RESULTS = 100
SECONDS_PER_DAY = 86_400.0


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


@dataclass(frozen=True)
class GridNode:
    """Integer cell indices on the Mercator grid."""

    i: int
    j: int


class Quantizer:
    """Rounds coordinates onto a Mercator-aligned tessellation.

    mode="nearest" rounds each Mercator axis to the closest grid line with
    ties toward +inf; mode="floor" is the alternative rounding convention
    kept as a configuration variant. Snapping is idempotent: a node's own
    geographic coordinate snaps back to the same node.
    """

    def __init__(self, grid_deg: float = DEFAULT_GRID_DEG, mode: str = "nearest"):
        if grid_deg <= 0:
            raise ValueError("grid_deg must be positive")
        if mode not in ("nearest", "floor"):
            raise ValueError(f"unknown rounding mode {mode!r}")
        self.grid_deg = grid_deg
        self.mode = mode

    def _index(self, v: float) -> int:
        u = v / self.grid_deg
        if self.mode == "nearest":
            return math.floor(u + 0.5)
        return math.floor(u)

    def snap(self, p: GeoPoint) -> GridNode:
        m = to_mercator(p)
        return GridNode(i=self._index(m.x), j=self._index(m.y))

    def node_point(self, node: GridNode) -> GeoPoint:
        return from_mercator(MercatorPoint(node.i * self.grid_deg, node.j * self.grid_deg))

    def snap_point(self, p: GeoPoint) -> GeoPoint:
        return self.node_point(self.snap(p))

    def cell_size(self, lat_deg: float) -> float:
        """Ground extent of one cell in meters, identical in both axes."""
        if abs(lat_deg) >= MAX_MERCATOR_LAT_DEG:
            raise ProjectionDomainError(
                f"|lat| must be below {MAX_MERCATOR_LAT_DEG} deg, got {lat_deg}"
            )
        return self.grid_deg * METERS_PER_DEGREE * math.cos(math.radians(lat_deg))


def classify(d_m: float, contact: bool = False, classes=DISTANCE_CLASSES_M) -> int | None:
    """Bucket a distance into the nearest allowed class.

    Ties go to the smaller class. The 100 m class is reachable only for
    contacts. Returns None (not listed) beyond the largest class plus the
    listing margin.
    """
    if d_m < 0:
        raise ValueError("distance must be non-negative")
    allowed = tuple(sorted(c for c in classes if contact or c not in CONTACT_ONLY_CLASSES_M))
    if not allowed:
        raise ValueError("class set is empty")
    if d_m > allowed[-1] + LISTING_MARGIN_M:
        return None
    return min(allowed, key=lambda c: (abs(d_m - c), c))


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


@dataclass
class TargetRecord:
    id: str
    pos: GeoPoint
    contact_of: frozenset = frozenset()


class TargetRegistry:
    """Opted-in targets with true positions, fixed unless explicitly moved."""

    def __init__(self):
        self._targets: dict[str, TargetRecord] = {}
        self.version = 0

    def add(self, target_id: str, pos: GeoPoint, contact_of=()) -> None:
        if target_id in self._targets:
            raise ValueError(f"duplicate target id {target_id!r}")
        self._targets[target_id] = TargetRecord(target_id, pos, frozenset(contact_of))
        self.version += 1

    def move(self, target_id: str, pos: GeoPoint) -> None:
        rec = self._targets[target_id]
        self._targets[target_id] = TargetRecord(rec.id, pos, rec.contact_of)
        self.version += 1

    def position(self, target_id: str) -> GeoPoint:
        return self._targets[target_id].pos

    def __len__(self) -> int:
        return len(self._targets)

    def __contains__(self, target_id: str) -> bool:
        return target_id in self._targets

    def ids(self) -> list[str]:
        return sorted(self._targets)

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

    The registry is immutable during an experiment (moves bump a version
    counter that invalidates the snapped-position cache). Per-account state
    is mutated under a per-account lock so a threaded server can serialize
    admissions per account while distance computation stays lock-free.
    """

    def __init__(
        self,
        registry: TargetRegistry,
        quantizer: Quantizer | None = None,
        daily_quota: int = DEFAULT_DAILY_QUOTA,
        speed_limit_mps: float = DEFAULT_SPEED_LIMIT_MPS,
        classes=DISTANCE_CLASSES_M,
        max_results: int = DEFAULT_MAX_RESULTS,
        ban_s: float = DEFAULT_BAN_S,
        admission: str = "standard",
        anchor_radius_m: float = 10.0,
        anchor_window_s: float = 600.0,
    ):
        if admission not in ("standard", "anchored"):
            raise ValueError(f"unknown admission policy {admission!r}")
        self.registry = registry
        self.quantizer = quantizer or Quantizer()
        self.daily_quota = daily_quota
        self.speed_limit_mps = speed_limit_mps
        self.classes = tuple(classes)
        self.max_results = max_results
        self.ban_s = ban_s
        self.admission = admission
        self.anchor_radius_m = anchor_radius_m
        self.anchor_window_s = anchor_window_s
        self._accounts: dict[str, AccountState] = {}
        self._locks: dict[str, threading.Lock] = {}
        self._guard = threading.Lock()
        self._snap_cache: dict[str, GeoPoint] = {}
        self._snap_cache_version = -1

    # -- account state ----------------------------------------------------

    def account(self, account_id: str) -> AccountState:
        with self._guard:
            st = self._accounts.get(account_id)
            if st is None:
                st = AccountState(id=account_id)
                self._accounts[account_id] = st
            return st

    def _lock_for(self, account_id: str) -> threading.Lock:
        with self._guard:
            lock = self._locks.get(account_id)
            if lock is None:
                lock = threading.Lock()
                self._locks[account_id] = lock
            return lock

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
            window = int(ts // self.anchor_window_s)
            if st.anchor_window != window:
                st.anchor_window = window
                st.anchor_pos = pos
            elif distance(st.anchor_pos, pos) > self.anchor_radius_m:
                next_window = (window + 1) * self.anchor_window_s
                raise AreaRestrictedError(
                    "position outside the declared area for this window",
                    retry_after_s=next_window - ts,
                )
        if st.queries_today >= self.daily_quota:
            st.ban_until = ts + self.ban_s
            st.ban_code = "FLOOD_WAIT"
            st.ban_events += 1
            raise FloodWaitError("daily query quota exhausted", retry_after_s=self.ban_s)
        if st.last_pos is not None and st.last_ts is not None:
            d = distance(st.last_pos, pos)
            dt = ts - st.last_ts
            if d > self.speed_limit_mps * dt:
                st.ban_until = ts + self.ban_s
                st.ban_code = "SPEED_BAN"
                st.ban_events += 1
                raise SpeedBanError("implied speed above limit", retry_after_s=self.ban_s)
        st.queries_today += 1
        st.total_admitted += 1
        st.last_pos = pos
        st.last_ts = ts

    # -- queries -----------------------------------------------------------

    def _target_point(self, rec: TargetRecord) -> GeoPoint:
        if self._snap_cache_version != self.registry.version:
            self._snap_cache = {}
            self._snap_cache_version = self.registry.version
        pt = self._snap_cache.get(rec.id)
        if pt is None:
            pt = self.quantizer.snap_point(rec.pos)
            self._snap_cache[rec.id] = pt
        return pt

    def search(self, account_id: str, pos: GeoPoint, ts: float) -> list[tuple[str, int]]:
        """Nearby listing for one query: [(target id, class meters)], sorted
        ascending by class then id, truncated to max_results."""
        if abs(pos.lat) >= MAX_MERCATOR_LAT_DEG:
            raise ProjectionDomainError(
                f"|lat| must be below {MAX_MERCATOR_LAT_DEG} deg, got {pos.lat}"
            )
        with self._lock_for(account_id):
            self._admit(self.account(account_id), pos, ts)
        query_pt = self.quantizer.snap_point(pos)
        out: list[tuple[str, int]] = []
        for rec in self.registry.iter_sorted():
            d = distance(query_pt, self._target_point(rec))
            cls = classify(d, contact=account_id in rec.contact_of, classes=self.classes)
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
