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
import sys
import threading
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import chain
from dataclasses import dataclass
from math import asin, atan, cos, exp, floor, log, sin, sqrt, tan
from operator import itemgetter

from .geo import (
    DEGREES_PER_RADIAN,
    EARTH_RADIUS_M,
    METERS_PER_DEGREE,
    RADIANS_PER_DEGREE,
    GeoPoint,
    _point,
    check_lat,
    distance,
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

# Edge of the registry's index blocks, about 1.1 km of latitude. Against a
# search reach of about 13.3 km, the window of blocks a search may walk,
# one block of margin included, holds about 1.6 times the targets within
# reach at mid latitudes; larger blocks inflate that share and coarsen the
# walk's early stop, smaller ones raise the number of blocks to look up.
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


class DecodeError(ValueError):
    """A line that is not one JSON object, or an invalid protocol message."""


# The json module's C scanner, called without the Python wrapper of loads.
_scan = json.decoder.JSONDecoder().scan_once
_skip_space = json.decoder.WHITESPACE.match


def decode(line: bytes | str) -> dict:
    """Parse one JSON line (a wire message, a registry or transitions
    record) into a dict; raises DecodeError with the json module's message."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DecodeError("not valid UTF-8") from exc
    try:
        msg, end = _scan(line, _skip_space(line, 0).end())
    except StopIteration:
        # Only the top-level value fails this way. A BOM always fails here,
        # at the first character: it is neither whitespace nor a value.
        why = "Unexpected UTF-8 BOM (decode using utf-8-sig)" if line.startswith("\ufeff") else "Expecting value"
        raise DecodeError(f"invalid JSON: {why}") from None
    # A JSONDecodeError, an int past the digit limit, or arrays or objects
    # nested past the recursion limit: a line of 2,000 '[' does that.
    except (ValueError, RecursionError) as exc:
        raise DecodeError(f"invalid JSON: {getattr(exc, 'msg', exc)}") from exc
    if _skip_space(line, end).end() != len(line):
        raise DecodeError("invalid JSON: Extra data")
    if not isinstance(msg, dict):
        raise DecodeError("line must be a JSON object")
    return msg


# Every JSON line the package writes, in one layout (sorted keys, compact
# separators) from one encoder: json.dumps with keyword arguments would
# build one per call. A NaN raises instead of writing invalid JSON.
dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False).encode


def is_number(value) -> bool:
    """True for a number read from JSON that a float can hold: a float, or
    an int no larger in magnitude than the largest float, but not JSON true
    or false, which load as bools, ints to isinstance. Finiteness of a
    float is the caller's to check."""
    if isinstance(value, float):
        return True
    return isinstance(value, int) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


class Quantizer:
    """Rounds coordinates onto a Mercator-aligned tessellation.

    Each Mercator axis is rounded to the nearest grid line, ties toward
    +inf. Snapping is idempotent: a node's own geographic coordinate snaps
    back to the same node.
    """

    def __init__(self, grid_deg: float = DEFAULT_GRID_DEG):
        # Negated so that NaN fails too; an infinite pitch snaps to NaN.
        if not 0.0 < grid_deg < math.inf:
            raise ValueError("grid_deg must be finite and positive")
        self.grid_deg = grid_deg

    def snap_point(self, p: GeoPoint) -> GeoPoint:
        """The grid node p rounds to, as a point: the Mercator y of p's
        latitude, both axes rounded to node indices (i, j), and node j's y
        taken back to a latitude. Raises ProjectionDomainError outside the
        Mercator domain."""
        lat = p.lat
        check_lat(lat)
        g = self.grid_deg
        y = log(tan(math.pi / 4.0 + lat * RADIANS_PER_DEGREE / 2.0)) * DEGREES_PER_RADIAN
        i = floor(p.lon / g + 0.5)
        j = floor(y / g + 0.5)
        node_lat = (2.0 * atan(exp(j * g * RADIANS_PER_DEGREE)) - math.pi / 2.0) * DEGREES_PER_RADIAN
        # i * g reaches 180.0 just west of the antimeridian; _point's wrap
        # takes it to -180.0, as GeoPoint's would.
        return _point(node_lat, i * g)

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


# Per contact flag, the cuts of `classify`: a distance up to cuts[k], and
# above cuts[k - 1], classifies to the k-th allowed class. The cuts are the
# midpoints between neighbouring classes, then the last class plus the
# listing margin; past that, the padding None means not listed. For integer
# classes L < U the midpoint is exact, and so are d - L and U - d for d near
# it, so `d <= (L + U) / 2` is the nearest-class rule with ties to L.
_CLASS_CUTS = tuple(
    (
        (*((lo + hi) / 2.0 for lo, hi in zip(allowed, allowed[1:])), allowed[-1] + LISTING_MARGIN_M),
        (*allowed, None),
    )
    for allowed in DEFAULT_CLASS_TABLE
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
    cuts, classes = _CLASS_CUTS[1 if contact else 0]
    return classes[bisect_left(cuts, d_m)]


# Per contact flag, `classify` on the squared chord between the unit vectors
# of two points, 4 sin^2(d / 2R) for a distance d: (bounds, classes), where
# bounds brackets the squared chord of each cut by a relative 1e-6 either
# side. bisect_right(bounds, chord2) at an even index 2k is the k-th class;
# at an odd index the chord lies in a bracket, and only `classify` on the
# haversine distance decides. Outside the brackets the two rules agree: the
# squared chord is monotone in d up to half a great circle, and the
# rounding of either computation, about 1e-11 relative at the smallest cut
# (300 m), is five orders of magnitude below the margin.
_CHORD_CUTS = tuple(
    (
        tuple(
            4.0 * sin(cut / (2.0 * EARTH_RADIUS_M)) ** 2 * side
            for cut in cuts
            for side in (1.0 - 1e-6, 1.0 + 1e-6)
        ),
        classes,
    )
    for cuts, classes in _CLASS_CUTS
)


# For each class c in ascending order, the largest distance that `classify`
# maps to a class <= c, for either contact flag: a contact may be listed in
# every class, and the upper cut of a class does not depend on the classes
# below it, so these are the contact row's cuts.
CLASS_CUTOFF_M = dict(zip(DEFAULT_CLASS_TABLE[1], _CLASS_CUTS[1][0]))
_ID, _CLASS = itemgetter(0), itemgetter(1)  # fields of a (target id, class) entry


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


@dataclass(frozen=True, slots=True)
class TargetRecord:
    id: str
    pos: GeoPoint
    contact_of: frozenset = frozenset()


def _unit_vector(p: GeoPoint) -> tuple[float, float, float]:
    """p on the unit sphere: (x, y, z), z toward the north pole."""
    phi, lam = p.lat * RADIANS_PER_DEGREE, p.lon * RADIANS_PER_DEGREE
    cos_phi = cos(phi)
    return cos_phi * cos(lam), cos_phi * sin(lam), sin(phi)


def _block_of(p: GeoPoint) -> int:
    row = math.floor((p.lat + 90.0) / BLOCK_DEG)
    return row * _BLOCK_COLS + math.floor((p.lon + 180.0) / BLOCK_DEG) % _BLOCK_COLS


class TargetRegistry:
    """Opted-in targets with true positions, fixed unless explicitly moved.

    Records are bucketed by the `BLOCK_DEG` block of their true position so
    that `walk` touches only the blocks around a query. A record is never
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

    def walk(self, center: GeoPoint, radius_m: float):
        """Yield (records, rest_m) for every record in a block that the
        spherical cap of radius_m about center can reach, one block of
        margin on each side, nearest blocks first: no record yielded later
        lies closer than rest_m to center, and rest_m never decreases. The
        caller holds the registry's lock while iterating.

        The groups are rings of blocks about center's block: ring k holds
        the blocks at most k rows and about k / cos(lat_max) columns away
        that ring k - 1 does not, lat_max being the largest latitude in the
        window, so the far part of the window is never looked up. A cap
        that reaches a pole or spans half the longitudes takes every
        column, each counted the short way round from center's."""
        blocks = self._blocks
        get = blocks.get
        delta = radius_m / EARTH_RADIUS_M
        span = delta * DEGREES_PER_RADIAN
        row_c = floor((center.lat + 90.0) / BLOCK_DEG)
        col_c = floor((center.lon + 180.0) / BLOCK_DEG)
        row_lo = max(floor((center.lat - span + 90.0) / BLOCK_DEG) - 1, 0)
        row_hi = min(floor((center.lat + span + 90.0) / BLOCK_DEG) + 1, _BLOCK_ROWS - 1)
        # The window's columns run from col_lo to col_hi, modulo _BLOCK_COLS
        # so they wrap at the antimeridian. A cap that reaches a pole or
        # spans half the longitudes takes every column, each offset from
        # center's the short way round: an offset of at most half the
        # columns still bounds the longitude difference.
        col_lo = col_hi = None
        if abs(center.lat) + span < 90.0:
            ratio = sin(delta) / cos(center.lat * RADIANS_PER_DEGREE)
            if ratio < 1.0:
                dlon = asin(ratio) * DEGREES_PER_RADIAN
                col_lo = floor((center.lon - dlon + 180.0) / BLOCK_DEG) - 1
                col_hi = floor((center.lon + dlon + 180.0) / BLOCK_DEG) + 1
        if col_lo is None or 2 * (col_hi - col_lo + 1) > _BLOCK_COLS:
            col_lo, col_hi = col_c - _BLOCK_COLS // 2, col_c + _BLOCK_COLS // 2 - 1
        # Offsets of the window's rows and columns from center's block.
        dr_lo, dr_hi = row_lo - row_c, row_hi - row_c
        dc_lo, dc_hi = col_lo - col_c, col_hi - col_c
        max_dr, max_dc = max(-dr_lo, dr_hi), max(-dc_lo, dc_hi)
        # Every point of the window lies within lat_max of the equator, so
        # two of them g whole columns apart are at least
        # 2R asin(cos(lat_max) sin(g BLOCK_DEG / 2)) apart (haversine), and g
        # whole rows apart at least g BLOCK_DEG degrees of arc. A window that
        # touches a pole has cos(lat_max) near 6e-17: its rings go by rows,
        # and their bounds stay near 0, so the walk never stops early.
        lat_max = max(abs(row_lo * BLOCK_DEG - 90.0), abs((row_hi + 1) * BLOCK_DEG - 90.0))
        cos_max = cos(lat_max * RADIANS_PER_DEGREE)
        ring_cols = [0]  # ring k reaches ring_cols[k] columns out
        while len(ring_cols) <= max_dr or ring_cols[-1] < max_dc:
            ring_cols.append(int(len(ring_cols) / cos_max))
        half_block = BLOCK_DEG * RADIANS_PER_DEGREE / 2.0

        def bound(k: int) -> float:
            # Ring k's blocks are k rows away or beyond ring_cols[k - 1]
            # columns, so at least k - 1 whole rows or ring_cols[k - 1]
            # whole columns lie between them and center's block.
            if k >= len(ring_cols):
                return math.inf
            cols = min(ring_cols[k - 1], max_dc)
            return min(
                (k - 1) * BLOCK_DEG * METERS_PER_DEGREE,
                2.0 * EARTH_RADIUS_M * asin(min(1.0, cos_max * sin(cols * half_block))),
            )

        if (dr_hi - dr_lo + 1) * (dc_hi - dc_lo + 1) > 8 * len(blocks):
            # Few occupied blocks against the window: place each in its
            # ring. This pass costs about as much per occupied block as the
            # ring walk below does per eight blocks of the window.
            rings: dict[int, list[TargetRecord]] = {}
            for key, bucket in blocks.items():
                row, col = divmod(key, _BLOCK_COLS)
                dr = row - row_c
                dc = (col - col_c - dc_lo) % _BLOCK_COLS + dc_lo
                if dr_lo <= dr <= dr_hi and dc <= dc_hi:
                    k = max(abs(dr), bisect_left(ring_cols, abs(dc)))
                    rings.setdefault(k, []).extend(bucket.values())
            for k in sorted(rings):
                yield rings[k], bound(k + 1)
            return
        for k, reach in enumerate(ring_cols):
            group = []
            lo, hi = max(-reach, dc_lo), min(reach, dc_hi)
            # The ring's whole rows, k rows south and north of center's.
            first, last = (col_c + lo) % _BLOCK_COLS, (col_c + hi) % _BLOCK_COLS
            for dr in {-k, k}:
                if dr_lo <= dr <= dr_hi:
                    base = (row_c + dr) * _BLOCK_COLS
                    if first <= last:
                        keys = range(base + first, base + last + 1)
                    else:  # across the antimeridian
                        keys = chain(
                            range(base + first, base + _BLOCK_COLS), range(base, base + last + 1)
                        )
                    for bucket in filter(None, map(get, keys)):
                        group.extend(bucket.values())
            if k:
                # Past the previous ring's columns, on the rows in between:
                # one strided run of keys per column.
                south = (row_c + max(1 - k, dr_lo)) * _BLOCK_COLS
                north = (row_c + min(k - 1, dr_hi)) * _BLOCK_COLS
                inner = ring_cols[k - 1]
                for dc in chain(range(lo, -inner), range(inner + 1, hi + 1)):
                    col = (col_c + dc) % _BLOCK_COLS
                    keys = range(south + col, north + col + 1, _BLOCK_COLS)
                    for bucket in filter(None, map(get, keys)):
                        group.extend(bucket.values())
            yield group, bound(k + 1)

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

        A malformed record raises RegistryFormatError naming `path:line`:
        an id that is not a non-empty string, a coordinate that is not a
        number (JSON true and false included), or a contact id that is not
        a string."""
        reg = cls()
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = decode(line)
                except DecodeError as exc:
                    raise RegistryFormatError(path, line_no, str(exc)) from exc
                try:
                    tid = rec["id"]
                    lat = rec["lat"]
                    lon = rec["lon"]
                except KeyError as exc:
                    raise RegistryFormatError(path, line_no, f"missing field {exc.args[0]!r}") from exc
                contacts = rec.get("contact_of", [])
                if not isinstance(tid, str) or not tid:
                    raise RegistryFormatError(
                        path, line_no, f"id must be a non-empty string, got {tid!r}"
                    )
                if not (is_number(lat) and is_number(lon)):
                    raise RegistryFormatError(
                        path, line_no, f"lat and lon must be numbers, got {lat!r}, {lon!r}"
                    )
                if not isinstance(contacts, list) or not all(isinstance(a, str) for a in contacts):
                    raise RegistryFormatError(
                        path, line_no, f"contact_of must be a list of account ids, got {contacts!r}"
                    )
                try:
                    reg.add(tid, GeoPoint(float(lat), float(lon)), contacts)
                except ValueError as exc:
                    raise RegistryFormatError(path, line_no, str(exc)) from exc
        return reg


class Service:
    """The proximity service proper.

    A search walks the registry's blocks within the listing reach (the
    largest class plus the listing margin plus the largest snap
    displacement of a target) nearest first, through `TargetRegistry.walk`,
    and stops once no block it has not visited can change the truncated
    listing: when the rest of the walk lies farther than the distance cut
    of the class of the max_results-th entry so far, plus the largest snap
    displacement, every target left classifies above that class. Its cost
    follows the number of targets needed to fill max_results, or those
    within reach when fewer are, not the registry size. Once the listing
    holds max_results entries, a count of entries per class, updated ring
    by ring, gives that class without a sort, and the entries above it are
    dropped before the listing is sorted.

    Each target is snapped once per registry record, into an entry of the
    record, the unit vector of its grid node; an entry is reused only while
    the registry still holds the record it came from, and `move` replaces
    the record, so a moved target is never classified from its old
    position. `_class_of` classifies a record from the squared chord
    between its entry and the query node's unit vector: three
    subtractions, three multiplies and one bisection of `_CHORD_CUTS`, a
    table that brackets each class cut by a relative 1e-6. A chord outside
    every bracket has the class that `classify` gives the haversine
    distance between the two nodes; one inside a bracket, within about
    0.15 mm of the 300 m cut or 6 mm of the 12.5 km one, is classified by
    `classify` on `geo.distance` itself, so every listing is the one that
    rule gives. Records are slotted, which keeps their attribute reads
    cheap. A registry of one record, as every attack deployment of the lab
    holds, skips the walk: its listing is that record, classified, or
    empty.

    One lock, the registry's, guards the account table, admission and the
    walk: a search takes it once, so a threaded server serializes each
    account's quota and ban checks, two threads never create two states
    for one account, and one search sees one registry state. Under the GIL
    that costs a threaded server no throughput.
    """

    def __init__(
        self,
        registry: TargetRegistry,
        quantizer: Quantizer | None = None,
        daily_quota: int = DEFAULT_DAILY_QUOTA,
        speed_limit_mps: float = DEFAULT_SPEED_LIMIT_MPS,
        max_results: int = DEFAULT_MAX_RESULTS,
    ):
        if max_results < 1:
            raise ValueError("max_results must be at least 1")
        # `_admit` compares against both, and every comparison with NaN is
        # false: a NaN limit would never ban, a NaN quota never flood. An
        # infinite limit, which never bans, stays allowed.
        if not speed_limit_mps > 0.0:
            raise ValueError("speed_limit_mps must be positive")
        if isinstance(daily_quota, bool) or not isinstance(daily_quota, int) or daily_quota < 1:
            raise ValueError("daily_quota must be an int of at least 1")
        self.registry = registry
        self.quantizer = quantizer or Quantizer()
        self.daily_quota = daily_quota
        self.speed_limit_mps = speed_limit_mps
        self.max_results = max_results
        self._accounts: dict[str, AccountState] = {}
        # Snapping moves a target by at most half of grid_deg in latitude and
        # in longitude, so by the haversine formula by at most
        # 2R asin(sqrt(2) sin(grid_deg / 4)); a millimetre more covers the
        # rounding of block indices and of `distance`. A target farther than
        # a class's cutoff plus that from the snapped query point classifies
        # above the class, and one beyond the reach is not listed.
        snap_m = 2.0 * EARTH_RADIUS_M * asin(
            min(1.0, math.sqrt(2.0) * sin(self.quantizer.grid_deg * RADIANS_PER_DEGREE / 4.0))
        ) + 1e-3
        self._stop_at = {c: cutoff + snap_m for c, cutoff in CLASS_CUTOFF_M.items()}
        self._reach_m = self._stop_at[max(DISTANCE_CLASSES_M)]
        self._snapped: dict[str, tuple[TargetRecord, float, float, float]] = {}

    # -- account state ----------------------------------------------------

    def account(self, account_id: str) -> AccountState:
        with self.registry._lock:
            return self._accounts.get(account_id) or self._accounts.setdefault(account_id, AccountState(id=account_id))

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
        if st.queries_today >= self.daily_quota:
            st.ban_until = ts + DEFAULT_BAN_S
            st.ban_code = "FLOOD_WAIT"
            st.ban_events += 1
            raise FloodWaitError("daily query quota exhausted", retry_after_s=DEFAULT_BAN_S)
        last = st.last_pos
        if last is not None and st.last_ts is not None:
            # geo.distance(last, pos), operation for operation.
            a_lat, b_lat = last.lat, pos.lat
            dphi = (b_lat - a_lat) * RADIANS_PER_DEGREE
            dlam = ((pos.lon - last.lon + 180.0) % 360.0 - 180.0) * RADIANS_PER_DEGREE
            h = (
                sin(dphi / 2.0) ** 2
                + cos(a_lat * RADIANS_PER_DEGREE) * cos(b_lat * RADIANS_PER_DEGREE) * sin(dlam / 2.0) ** 2
            )
            d = 2.0 * EARTH_RADIUS_M * asin(min(1.0, sqrt(h)))
            if d > self.speed_limit_mps * (ts - st.last_ts):
                st.ban_until = ts + DEFAULT_BAN_S
                st.ban_code = "SPEED_BAN"
                st.ban_events += 1
                raise SpeedBanError("implied speed above limit", retry_after_s=DEFAULT_BAN_S)
        st.queries_today += 1
        st.total_admitted += 1
        st.last_pos = pos
        st.last_ts = ts

    # -- queries -----------------------------------------------------------

    def _class_of(self, rec: TargetRecord, contact: bool, query_pt: GeoPoint, qx: float, qy: float, qz: float):
        """classify(distance(query_pt, snapped rec.pos), contact), from the
        squared chord between rec's entry, the unit vector of its node, and
        (qx, qy, qz), query_pt's; within a bracket of a class cut, from
        that distance itself."""
        entry = self._snapped.get(rec.id)
        if entry is None or entry[0] is not rec:
            entry = self._snapped[rec.id] = (rec, *_unit_vector(self.quantizer.snap_point(rec.pos)))
        _, x, y, z = entry
        dx, dy, dz = x - qx, y - qy, z - qz
        bounds, classes = _CHORD_CUTS[contact]
        i = bisect_right(bounds, dx * dx + dy * dy + dz * dz)
        if i & 1:
            return classify(distance(query_pt, self.quantizer.snap_point(rec.pos)), contact)
        return classes[i >> 1]

    def search(self, account_id: str, pos: GeoPoint, ts: float) -> list[tuple[str, int]]:
        """Nearby listing for one query: [(target id, class meters)], sorted
        ascending by class then id, truncated to max_results."""
        # Snapping first rejects a polar query before it is admitted.
        query_pt = self.quantizer.snap_point(pos)
        qx, qy, qz = _unit_vector(query_pt)
        class_of = self._class_of
        registry = self.registry
        targets = registry._targets
        with registry._lock:
            st = self._accounts.get(account_id) or self._accounts.setdefault(account_id, AccountState(id=account_id))
            self._admit(st, pos, ts)
            if len(targets) == 1:
                # The lab's one-target registry: its record is the whole
                # listing, or there is none, as the loop below would list it.
                (rec,) = targets.values()
                cls = class_of(rec, account_id in rec.contact_of, query_pt, qx, qy, qz)
                return [] if cls is None else [(rec.id, cls)]
            stop_at = self._stop_at
            k = self.max_results
            out: list[tuple[str, int]] = []
            counts = None  # entries per class, once out holds k of them
            for group, rest_m in registry.walk(query_pt, self._reach_m):
                seen = len(out)
                for rec in group:
                    cls = class_of(rec, account_id in rec.contact_of, query_pt, qx, qy, qz)
                    if cls is not None:
                        out.append((rec.id, cls))
                if len(out) < k:
                    continue
                if counts is None:
                    counts = Counter(map(_CLASS, out))
                else:
                    counts.update(map(_CLASS, out[seen:]))
                # The class of the k-th entry; once every record not yet
                # seen classifies above it, the listing is final.
                listed = 0
                for kth in CLASS_CUTOFF_M:
                    listed += counts[kth]
                    if listed >= k:
                        break
                if rest_m > stop_at[kth]:
                    break
        if counts is not None:
            # Only entries up to the k-th entry's class can make the cut.
            out = [e for e in out if e[1] <= kth]
        # By class, then id: two stable sorts on one-type keys are about
        # twice as fast as one sort on (class, id) keys.
        out.sort(key=_ID)
        out.sort(key=_CLASS)
        return out[:k]


class LocalClient:
    """In-process client with the same surface as the TCP client."""

    def __init__(self, service: Service, account: str):
        self._service = service
        self.account = account

    def search(self, pos: GeoPoint, ts: float) -> list[tuple[str, int]]:
        return self._service.search(self.account, pos, ts)
