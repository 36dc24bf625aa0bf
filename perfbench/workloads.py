"""The four benchmark workloads, their seeded inputs and their checks.

Every workload is a closed loop with one caller in one process. build()
is the set-up the benchmark times; run() executes operations until a
deadline and may be called again to continue the same operation stream;
finish() runs the checks that stay outside the timed region.

With the reference enabled, every operation is followed by the same kind
of operation on the frozen copy in proxilab_ref, timed on its own; the
ratio of the two is steady on a host whose speed drifts, because both
sides see the same host state.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import shutil
from array import array
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import oracle
import proxilab_ref.geo
import proxilab_ref.prober
import proxilab_ref.service
import proxilab_ref.wire
from proxilab import analysis, cli, prober
from proxilab.analysis import InsufficientCoverageError
from proxilab.geo import GeoPoint
from proxilab.prober import AttackBannedError, InconsistentOracleError, ProbeConfig, TargetNotFoundError
from proxilab.service import LocalClient, ProtocolError, QueryRejected, Service, TargetRegistry
from proxilab.wire import ApiServer, DecodeError, TcpClient

ATTACK_TARGET = "target"
DEPLOYMENTS = 60  # one pass; later passes replay it and must match it exactly
PASS_S = 2 * 86_400.0  # virtual time between passes: a replay starts on a fresh day
QUERY_SAMPLE = 50_000  # query times kept per run, so memory does not grow with throughput
ANTIMERIDIAN_EVERY = 10
REGIMES = ((0.0, 17.5), (17.7, 47.5), (47.7, 80.0))  # cross, square, multi-tile |lat|
ACCURACY_SLACK_M = 1e-6

CITIES = (  # name, lat, lon: one southern, one above 60 deg, one on the antimeridian
    ("Doha", 25.2854, 51.5310),
    ("Sydney", -33.8688, 151.2093),
    ("Reykjavik", 64.1466, -21.9426),
    ("Taveuni", -16.8500, 179.9900),
    ("Chicago", 41.8781, -87.6298),
)
CITY_TARGETS = 5000
CITY_RADIUS_M = 15_000.0
CITY_ACCOUNTS = 8
CONTACT_SHARE = 0.02
SEARCHES_PER_MOVE = 5
WALK_SPEED_MPS = 24.9
DAY_S = 86_400.0
DAILY_QUOTA = 1000
ORACLE_EVERY = 3  # brute-force every third listing
DIGEST_SEARCHES = 60  # listings digest covers this fixed prefix of the stream

LAB_ARGV = (("sweep", ["--step", "10"]), ("figures", ["--runs", "300"]))
LAB_REF_BATCH = 30  # frozen attacks per reference batch in lab_cli


def sha256_lines(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


class Workload:
    name = ""

    def __init__(self, seed: int, root: str):
        self.seed = seed
        self.root = root
        self.tracer = None
        self.op_times = array("d")  # seconds per operation, successful ops only
        self.attempted = 0
        self.causes: Counter = Counter()
        self.mismatches = 0  # oracle disagreements
        self.drift: list[str] = []  # determinism violations
        self.digests: dict[str, str] = {}
        self.deterministic: dict[str, float] = {}
        self.ref_on = False
        self.ref_times = array("d")  # seconds per reference operation

    def fail(self, cause: str) -> None:
        self.causes[cause] += 1

    @property
    def failed(self) -> int:
        return sum(self.causes.values())

    @property
    def correct(self) -> bool:
        return self.mismatches == 0 and not self.drift

    def build(self) -> None:
        raise NotImplementedError

    def build_reference(self) -> None:
        """Frozen-copy state for the interleaved reference operations."""
        raise NotImplementedError

    def run(self, seconds: float, span_cap: int | None = None) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        pass

    def close(self) -> None:
        pass

    def _over(self, deadline: float, span_cap: int | None) -> bool:
        if span_cap is not None and self.tracer is not None and len(self.tracer) >= span_cap:
            return True
        return perf_counter() >= deadline

    def _begin_op(self, op_id: int) -> None:
        if self.tracer is not None:
            self.tracer.cur_op = op_id

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every end-to-end metric this workload defines, by name: (value, unit)."""
        raise NotImplementedError

    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def ref_summary(self) -> tuple[float, float]:
        """Reference counterparts of op_summary(): (ms p50, ops per second)."""
        busy = sum(self.ref_times)
        return pct(self.ref_times, 50) * 1e3, (len(self.ref_times) / busy if busy else 0.0)

    def ratios(self) -> tuple[float, float]:
        """(op_p50_vs_ref, throughput_vs_ref): op_summary() over ref_summary()."""
        op_ms, per_s = self.op_summary()
        ref_ms, ref_per_s = self.ref_summary()
        return (op_ms / ref_ms if ref_ms else 0.0), (per_s / ref_per_s if ref_per_s else 0.0)


def reference_attack(service, server, d: "Deployment", account: str, start_ts: float) -> float | None:
    """One attack with the frozen copy, in-process or over its own loopback
    server, timed like AttackWorkload._attack; seconds, or None if it failed."""
    pos = proxilab_ref.geo.GeoPoint(d.lat, d.lon)
    conn = None
    t0 = perf_counter()
    try:
        if server is not None:
            conn = proxilab_ref.wire.TcpClient(*server.address, account)
        else:
            conn = proxilab_ref.service.LocalClient(service, account)
        proxilab_ref.prober.collect_transitions(
            conn, ATTACK_TARGET, hint=pos, start_ts=start_ts, rng=random.Random(d.walk_seed))
        return perf_counter() - t0
    except (RuntimeError, ValueError, OSError):
        return None
    finally:
        if server is not None and conn is not None:
            conn.close()


def reference_service(lat: float = 0.0, lon: float = 0.0):
    registry = proxilab_ref.service.TargetRegistry()
    registry.add(ATTACK_TARGET, proxilab_ref.geo.GeoPoint(lat, lon))
    return registry, proxilab_ref.service.Service(registry)


# -- attacks ---------------------------------------------------------------------


@dataclass(frozen=True)
class Deployment:
    index: int
    lat: float
    lon: float
    walk_seed: int


def make_deployments(seed: int) -> list[Deployment]:
    """Targets over both hemispheres and all three regimes, a few of them
    within 0.05 deg of the antimeridian. Latitudes are stratified: each
    regime's band is cut into equal slices and every slice gets one target,
    so seeds differ in placement but not in latitude mix."""
    rng = random.Random(f"proxilab-bench/deployments/{seed}")
    per_regime = DEPLOYMENTS // len(REGIMES)
    out = []
    for k in range(DEPLOYMENTS):
        lo, hi = REGIMES[k % len(REGIMES)]
        j = k // len(REGIMES)
        lat = (lo + (hi - lo) * (j + rng.random()) / per_regime) * (1.0 if j % 2 == 0 else -1.0)
        if k % ANTIMERIDIAN_EVERY == ANTIMERIDIAN_EVERY - 3:
            lon = oracle.wrap_lon(180.0 + rng.choice((-1.0, 1.0)) * rng.uniform(0.0, 0.05))
        else:
            lon = rng.uniform(-180.0, 180.0)
        out.append(Deployment(k, lat, lon, rng.getrandbits(32)))
    return out


class Reservoir:
    """Uniform sample of at most `capacity` values (algorithm R)."""

    def __init__(self, capacity: int, seed: str):
        self.values = array("d")
        self.seen = 0
        self._capacity = capacity
        self._rng = random.Random(seed)

    def extend(self, values) -> None:
        for v in values:
            self.seen += 1
            if len(self.values) < self._capacity:
                self.values.append(v)
            else:
                j = self._rng.randrange(self.seen)
                if j < self._capacity:
                    self.values[j] = v


class TimedClient:
    """Client-observed time of every search call."""

    def __init__(self, client, sink: array):
        self._client = client
        self._sink = sink

    def search(self, pos, ts):
        t0 = perf_counter()
        try:
            return self._client.search(pos, ts)
        finally:
            self._sink.append(perf_counter() - t0)


def transition_lines(tset) -> list[str]:
    return [
        json.dumps(
            [t.inside.lat, t.inside.lon, t.outside.lat, t.outside.lon, t.bearing,
             t.direction.value, t.queries_spent],
            separators=(",", ":"),
        )
        for t in tset.transitions
    ]


class AttackWorkload(Workload):
    """Per deployment: move the single target (untimed), give the deployment
    a fresh account, run collect_transitions with the default ProbeConfig and
    build_report against the true position."""

    def __init__(self, seed: int, root: str, over_tcp: bool):
        super().__init__(seed, root)
        self.name = "attack_tcp" if over_tcp else "attack_local"
        self.over_tcp = over_tcp
        self.deployments = make_deployments(seed)
        self.query_times = Reservoir(QUERY_SAMPLE, f"proxilab-bench/query-sample/{seed}")
        self.n_done = 0
        self.pass_digests: list[str | None] = [None] * DEPLOYMENTS
        self.first_pass_queries = 0
        self.first_pass_transitions = 0
        self.full_boxes = 0
        self.server: ApiServer | None = None
        self.ref_server = None

    def build(self) -> None:
        self.registry = TargetRegistry()
        self.registry.add(ATTACK_TARGET, GeoPoint(0.0, 0.0))
        self.service = Service(self.registry)
        if self.over_tcp:
            self.server = ApiServer(self.service, "127.0.0.1", 0)
            self.server.start()

    def build_reference(self) -> None:
        self.ref_registry, self.ref_service = reference_service()
        if self.over_tcp:
            self.ref_server = proxilab_ref.wire.ApiServer(self.ref_service, "127.0.0.1", 0)
            self.ref_server.start()
        self.ref_on = True

    def close(self) -> None:
        for server in (self.server, self.ref_server):
            if server is not None:
                server.stop()
        self.server = self.ref_server = None

    def _attack(self, service: Service, server: ApiServer | None, d: Deployment, account: str,
                start_ts: float, sink: array):
        """One attack to verdict; returns (seconds, tset, report) or raises."""
        pos = GeoPoint(d.lat, d.lon)
        conn = None
        t0 = perf_counter()
        try:
            if server is not None:
                conn = TcpClient(*server.address, account)
            else:
                conn = LocalClient(service, account)
            # Module attributes, so that the traced run's wrappers see these calls.
            tset = prober.collect_transitions(
                TimedClient(conn, sink), ATTACK_TARGET, hint=pos, cfg=ProbeConfig(),
                start_ts=start_ts, rng=random.Random(d.walk_seed),
            )
            report = analysis.build_report(tset, pos)
            elapsed = perf_counter() - t0
        finally:
            if server is not None and conn is not None:
                conn.close()
        return elapsed, tset, report

    def run(self, seconds: float, span_cap: int | None = None) -> None:
        deadline = perf_counter() + seconds
        while self.n_done < DEPLOYMENTS or not self._over(deadline, span_cap):
            k = self.n_done
            d = self.deployments[k % DEPLOYMENTS]
            # Each deployment has its own account; a replay in a later pass
            # starts a fresh virtual day on it, with a fresh quota.
            account = f"deploy-{d.index}"
            bans_before = self.service.account(account).ban_events
            sink = array("d")
            self.registry.move(ATTACK_TARGET, GeoPoint(d.lat, d.lon))
            self._begin_op(k)
            self.attempted += 1
            self.n_done += 1
            tset = report = None
            try:
                elapsed, tset, report = self._attack(
                    self.service, self.server, d, account, (k // DEPLOYMENTS) * PASS_S, sink)
            except TargetNotFoundError:
                self.fail("not_found")
            except AttackBannedError:
                self.fail("banned")
            except InsufficientCoverageError:
                self.fail("insufficient_coverage")
            except InconsistentOracleError:
                self.fail("inconsistent_class")
            except (OSError, DecodeError, ProtocolError):
                self.fail("wire_error")
            except (RuntimeError, ValueError):
                self.fail("error")
            if self.ref_on:
                self.ref_registry.move(ATTACK_TARGET, proxilab_ref.geo.GeoPoint(d.lat, d.lon))
                t = reference_attack(self.ref_service, self.ref_server, d, account, (k // DEPLOYMENTS) * PASS_S)
                if t is not None:
                    self.ref_times.append(t)
            self.query_times.extend(sink)
            if tset is not None:
                self._check(k, d, self.service.account(account).ban_events - bans_before, tset, report)
                if report is not None and not tset.budget_exhausted:
                    self.op_times.append(elapsed)

    def _check(self, k: int, d: Deployment, new_bans: int, tset, report) -> None:
        if tset.budget_exhausted:
            self.fail("budget_exhausted")
        if new_bans:
            self.fail("banned")
        bad = 0
        target = (d.lat, d.lon)
        for t in tset.transitions:
            inside = (t.inside.lat, t.inside.lon)
            outside = (t.outside.lat, t.outside.lon)
            if (
                oracle.haversine(*inside, *outside) > ProbeConfig().accuracy + ACCURACY_SLACK_M
                or oracle.reported_class(inside, target) != 500
                or oracle.reported_class(outside, target) != 1000
            ):
                bad += 1
        if bad:
            self.mismatches += bad
            self.fail("oracle_mismatch")
        digest = sha256_lines(transition_lines(tset))
        slot = k % DEPLOYMENTS
        if k < DEPLOYMENTS:
            self.pass_digests[slot] = digest
            self.first_pass_queries += tset.total_queries
            self.first_pass_transitions += len(tset)
            if report is not None and self._full_box(d, report):
                self.full_boxes += 1
        elif digest != self.pass_digests[slot]:
            self.drift.append(f"deployment {slot} pass {k // DEPLOYMENTS} differs from pass 0")
            self.fail("nondeterminism")

    @staticmethod
    def _full_box(d: Deployment, report) -> bool:
        tol = 2.0 * ProbeConfig().accuracy
        x_lo, x_hi, y_lo, y_hi = oracle.region_box_local(d.lat, d.lon)
        r = report.rect
        return (abs(r.x_m - x_lo) <= tol and abs(r.x_M - x_hi) <= tol
                and abs(r.y_m - y_lo) <= tol and abs(r.y_M - y_hi) <= tol)

    def finish(self) -> None:
        self.digests["transitions"] = sha256_lines(self.pass_digests[i] or "" for i in range(DEPLOYMENTS))
        if self.over_tcp:
            # The same deployments in-process must give the same transitions.
            registry = TargetRegistry()
            registry.add(ATTACK_TARGET, GeoPoint(0.0, 0.0))
            service = Service(registry)
            local = []
            for d in self.deployments:
                registry.move(ATTACK_TARGET, GeoPoint(d.lat, d.lon))
                try:
                    _, tset, _ = self._attack(service, None, d, f"replay-{d.index}", 0.0, array("d"))
                    local.append(sha256_lines(transition_lines(tset)))
                except (TargetNotFoundError, AttackBannedError, InsufficientCoverageError,
                        InconsistentOracleError):
                    local.append("")
            if sha256_lines(local) != self.digests["transitions"]:
                self.drift.append("attack_tcp transitions differ from the in-process replay")
                self.fail("nondeterminism")
        self.deterministic = {
            "queries_per_transition": self.queries_per_transition(),
            "full_box_frac": self.full_boxes / DEPLOYMENTS,
        }

    def queries_per_transition(self) -> float:
        return self.first_pass_queries / self.first_pass_transitions if self.first_pass_transitions else 0.0

    def metrics(self) -> dict[str, tuple[float, str]]:
        ms = [t * 1e3 for t in self.op_times]
        us = [t * 1e6 for t in self.query_times.values]
        busy = sum(self.op_times)
        return {
            "attack_ms_p50": (pct(ms, 50), "ms"),
            "attack_ms_p90": (pct(ms, 90), "ms"),
            "attacks_per_s": (len(ms) / busy if busy else 0.0, "1/s"),
            "query_us_p50": (pct(us, 50), "us"),
            "query_us_p90": (pct(us, 90), "us"),
            "queries_per_transition": (self.queries_per_transition(), "count"),
            "full_box_frac": (self.full_boxes / DEPLOYMENTS, "ratio"),
            "fail_frac": (self.fail_frac(), "ratio"),
            "attacks": (len(ms), "count"),
            "queries": (self.query_times.seen, "count"),
        }

    def op_summary(self) -> tuple[float, float]:
        ms = self.metrics()
        return ms["attack_ms_p50"][0], ms["attacks_per_s"][0]


# -- city_mixed -------------------------------------------------------------------


class CityWorkload(Workload):
    """Paced searches by eight walking accounts over a 5,000-target registry
    in five city discs, with one target move per five searches."""

    name = "city_mixed"

    def __init__(self, seed: int, root: str):
        super().__init__(seed, root)
        rng = random.Random(f"proxilab-bench/city/{seed}")
        self.positions = {
            f"t{k:05d}": self._in_disc(rng, k % len(CITIES), CITY_RADIUS_M) for k in range(CITY_TARGETS)
        }
        self.accounts = [f"acct{a}" for a in range(CITY_ACCOUNTS)]
        contact_pool = [f"t{k:05d}" for k in range(0, CITY_TARGETS, len(CITIES))]  # city 0, acct0's home
        self.contact_ids = sorted(rng.sample(contact_pool, int(CITY_TARGETS * CONTACT_SHARE)))
        self.contacts = {tid: frozenset({self.accounts[0]}) for tid in self.contact_ids}
        self._script = self._ops()
        self.move_times = array("d")
        self.n_search = 0
        self.n_ops = 0
        self.first_listings: list[str] = []
        self.coverage = Counter()

    @staticmethod
    def _in_disc(rng: random.Random, city: int, radius: float) -> tuple[float, float]:
        _, lat, lon = CITIES[city]
        r = radius * rng.random() ** 0.5
        theta = rng.uniform(0.0, 2.0 * math.pi)
        return oracle.offset(lat, lon, r * math.cos(theta), r * math.sin(theta))

    def build(self) -> None:
        self.oracle = oracle.ListingOracle(dict(self.positions), dict(self.contacts))
        self.registry = TargetRegistry()
        for tid, (lat, lon) in self.positions.items():
            self.registry.add(tid, GeoPoint(lat, lon), self.contacts.get(tid, ()))
        self.service = Service(self.registry)
        self.clients = {a: LocalClient(self.service, a) for a in self.accounts}
        # Let the snapped-position cache fill before timing.
        _, lat, lon = CITIES[0]
        LocalClient(self.service, "warmup").search(GeoPoint(lat, lon), 0.0)

    def build_reference(self) -> None:
        ref = proxilab_ref.service
        self.ref_registry = ref.TargetRegistry()
        for tid, (lat, lon) in self.positions.items():
            self.ref_registry.add(tid, proxilab_ref.geo.GeoPoint(lat, lon), self.contacts.get(tid, ()))
        service = ref.Service(self.ref_registry)
        self.ref_clients = {a: ref.LocalClient(service, a) for a in self.accounts}
        _, lat, lon = CITIES[0]
        ref.LocalClient(service, "warmup").search(proxilab_ref.geo.GeoPoint(lat, lon), 0.0)
        self.ref_move_times = array("d")
        self.ref_on = True

    def _ops(self):
        """Deterministic stream of ('search', account, pos, ts) and
        ('move', target id, east m, north m) operations."""
        rng = random.Random(f"proxilab-bench/city-ops/{self.seed}")
        walkers = []
        for a, acct in enumerate(self.accounts):
            walkers.append({"acct": acct, "city": a % len(CITIES), "pos": None, "ts": 0.0, "day": 0, "n": 0})
        i = 0
        while True:
            w = walkers[i % CITY_ACCOUNTS]
            if w["acct"] == self.accounts[0] and i % 2 == 0:
                base = self.positions[rng.choice(self.contact_ids)]
                nxt = oracle.offset(*base, rng.uniform(-60.0, 60.0), rng.uniform(-60.0, 60.0))
            else:
                nxt = self._in_disc(rng, w["city"], CITY_RADIUS_M)
            if w["pos"] is not None:
                w["ts"] += max(oracle.haversine(*w["pos"], *nxt) / WALK_SPEED_MPS, 1.0)
            day = int(w["ts"] // DAY_S)
            if day != w["day"]:
                w["day"], w["n"] = day, 0
            if w["n"] >= DAILY_QUOTA:
                w["day"] += 1
                w["ts"], w["n"] = w["day"] * DAY_S, 0
            w["pos"] = nxt
            w["n"] += 1
            yield ("search", w["acct"], nxt, w["ts"])
            i += 1
            if i % SEARCHES_PER_MOVE == 0:
                tid = f"t{rng.randrange(CITY_TARGETS):05d}"
                dist = rng.uniform(10.0, 200.0)
                theta = rng.uniform(0.0, 2.0 * math.pi)
                yield ("move", tid, dist * math.cos(theta), dist * math.sin(theta))

    def run(self, seconds: float, span_cap: int | None = None) -> None:
        deadline = perf_counter() + seconds
        while not self._over(deadline, span_cap):
            op = next(self._script)
            self._begin_op(self.n_ops)
            self.n_ops += 1
            self.attempted += 1
            if op[0] == "move":
                self._move(*op[1:])
            else:
                self._search(*op[1:])

    def _move(self, tid: str, east: float, north: float) -> None:
        new = oracle.offset(*self.oracle.targets[tid], east, north)
        pos = GeoPoint(*new)
        t0 = perf_counter()
        self.registry.move(tid, pos)
        self.move_times.append(perf_counter() - t0)
        self.oracle.move(tid, new)
        if self.ref_on:
            pos = proxilab_ref.geo.GeoPoint(*new)
            t0 = perf_counter()
            self.ref_registry.move(tid, pos)
            self.ref_move_times.append(perf_counter() - t0)

    def _search(self, account: str, pos: tuple[float, float], ts: float) -> None:
        gp = GeoPoint(*pos)
        client = self.clients[account]
        t0 = perf_counter()
        try:
            listing = client.search(gp, ts)
        except QueryRejected:
            self.fail("banned")
            return
        except ProtocolError:
            self.fail("error")
            return
        elapsed = perf_counter() - t0
        self.op_times.append(elapsed)
        if self.ref_on:
            ref_pos = proxilab_ref.geo.GeoPoint(*pos)
            t0 = perf_counter()
            self.ref_clients[account].search(ref_pos, ts)
            self.ref_times.append(perf_counter() - t0)
        k = self.n_search
        self.n_search += 1
        if k < DIGEST_SEARCHES:
            self.first_listings.append(json.dumps([account, listing], separators=(",", ":")))
        if len(listing) == oracle.MAX_RESULTS:
            self.coverage["listings_at_max_results"] += 1
        if any(cls == 100 for _, cls in listing):
            self.coverage["listings_with_contact_class"] += 1
        if k % ORACLE_EVERY == 0:
            self.coverage["oracle_checked"] += 1
            if self.oracle.listing(account, pos) != list(listing):
                self.mismatches += 1
                self.fail("oracle_mismatch")

    def finish(self) -> None:
        if self.n_search >= DIGEST_SEARCHES:
            self.digests["listings"] = sha256_lines(self.first_listings)

    def metrics(self) -> dict[str, tuple[float, str]]:
        us = [t * 1e6 for t in self.op_times]
        busy = sum(self.op_times) + sum(self.move_times)
        return {
            "query_us_p50": (pct(us, 50), "us"),
            "query_us_p90": (pct(us, 90), "us"),
            "searches_per_s": (len(us) / busy if busy else 0.0, "1/s"),
            "move_us_p50": (pct([t * 1e6 for t in self.move_times], 50), "us"),
            "fail_frac": (self.fail_frac(), "ratio"),
            "searches": (len(us), "count"),
            "moves": (len(self.move_times), "count"),
        }

    def op_summary(self) -> tuple[float, float]:
        ms = self.metrics()
        return ms["query_us_p50"][0] / 1e3, ms["searches_per_s"][0]

    def ref_summary(self) -> tuple[float, float]:
        busy = sum(self.ref_times) + sum(self.ref_move_times)
        return pct(self.ref_times, 50) * 1e3, (len(self.ref_times) / busy if busy else 0.0)


# -- lab_cli ----------------------------------------------------------------------


class LabCliWorkload(Workload):
    """`proxilab sweep --step 10` then `proxilab figures --runs 300`, called
    in-process through cli.main into a directory under the checkout."""

    name = "lab_cli"

    def __init__(self, seed: int, root: str):
        super().__init__(seed, root)
        self.times: dict[str, array] = {sub: array("d") for sub, _ in LAB_ARGV}
        self.n_calls = 0
        self._last_cycle = 0.0  # wall time of the latest cycle, to end runs on time
        self.norm_cycles = array("d")  # cycle time in reference-batch units, see ratios()
        self.first_digest: str | None = None
        self.workdir = os.path.join(root, ".bench_out", f"lab-{os.getpid()}")

    def build(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)

    def build_reference(self) -> None:
        self.ref_registry, self.ref_service = reference_service()
        self.ref_deployments = make_deployments(self.seed)
        self.ref_on = True

    def _reference_batch(self) -> None:
        """LAB_REF_BATCH frozen attacks, cycling through the deployments."""
        start = len(self.ref_times) * LAB_REF_BATCH
        t0 = perf_counter()
        for k in range(start, start + LAB_REF_BATCH):
            d = self.ref_deployments[k % DEPLOYMENTS]
            self.ref_registry.move(ATTACK_TARGET, proxilab_ref.geo.GeoPoint(d.lat, d.lon))
            reference_attack(self.ref_service, None, d, f"ref-{d.index}", (k // DEPLOYMENTS) * PASS_S)
        self.ref_times.append(perf_counter() - t0)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def run(self, seconds: float, span_cap: int | None = None) -> None:
        deadline = perf_counter() + seconds
        first = True
        while first or not self._over(deadline - self._last_cycle, span_cap):
            first = False
            t0 = perf_counter()
            self._cycle(self.n_calls // len(LAB_ARGV))
            self._last_cycle = perf_counter() - t0

    def _call(self, sub: str, argv: list[str]) -> float | None:
        self._begin_op(self.n_calls)
        self.n_calls += 1
        self.attempted += 1
        sink = io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                if self.tracer is not None:
                    rc = self.tracer.span(f"cli.main.{sub}", cli.main, argv)
                else:
                    rc = cli.main(argv)
        except InsufficientCoverageError:
            self.fail("insufficient_coverage")
            return None
        except (ValueError, RuntimeError, OSError):
            self.fail("error")
            return None
        elapsed = perf_counter() - t0
        if rc != cli.EXIT_OK:
            self.fail({cli.EXIT_BUDGET: "budget_exhausted", cli.EXIT_BANNED: "banned",
                       cli.EXIT_NOT_FOUND: "not_found"}.get(rc, "error"))
            return None
        return elapsed

    def _cycle(self, k: int) -> None:
        out = os.path.join(self.workdir, f"cycle-{k}")
        os.makedirs(out)
        elapsed = {}
        normalized = 0.0
        for sub, extra in LAB_ARGV:
            if self.ref_on and not self.ref_times:
                self._reference_batch()
            target = os.path.join(out, "sweep.csv" if sub == "sweep" else "figures")
            t = self._call(sub, [sub, *extra, "--seed", str(self.seed), "--out", target])
            if t is not None:
                self.times[sub].append(t)
                elapsed[sub] = t
            if self.ref_on:
                self._reference_batch()
                if t is not None:
                    normalized += t / ((self.ref_times[-2] + self.ref_times[-1]) / 2.0)
        if len(elapsed) == len(LAB_ARGV):
            self.op_times.append(sum(elapsed.values()))
            if self.ref_on:
                self.norm_cycles.append(normalized)
        self._check_outputs(out)
        shutil.rmtree(out, ignore_errors=True)

    def _check_outputs(self, out: str) -> None:
        files = []
        for dirpath, _, names in os.walk(out):
            files.extend(os.path.join(dirpath, n) for n in names)
        lines = []
        for path in sorted(files):
            with open(path, "rb") as fh:
                lines.append(os.path.relpath(path, out) + " " + hashlib.sha256(fh.read()).hexdigest())
        for name in ("sweep.csv", os.path.join("figures", "sweep.csv")):
            path = os.path.join(out, name)
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")][1:]
                if any(r[3] == "" for r in rows):
                    self.fail("sweep_row_error")
        digest = sha256_lines(lines)
        if self.first_digest is None:
            self.first_digest = digest
            self.digests["outputs"] = digest
        elif digest != self.first_digest:
            self.drift.append(f"lab_cli outputs of {os.path.basename(out)} differ from the first cycle")
            self.fail("nondeterminism")

    def metrics(self) -> dict[str, tuple[float, str]]:
        sweep = float(np.median(self.times["sweep"])) if len(self.times["sweep"]) else 0.0
        figures = float(np.median(self.times["figures"])) if len(self.times["figures"]) else 0.0
        busy = sum(self.op_times)
        return {
            "sweep_s": (sweep, "s"),
            "figures_s": (figures, "s"),
            "cycles_per_s": (len(self.op_times) / busy if busy else 0.0, "1/s"),
            "fail_frac": (self.fail_frac(), "ratio"),
            "cycles": (len(self.op_times), "count"),
        }

    def op_summary(self) -> tuple[float, float]:
        ms = self.metrics()
        return (ms["sweep_s"][0] + ms["figures_s"][0]) * 1e3, ms["cycles_per_s"][0]

    def ref_summary(self) -> tuple[float, float]:
        """A cycle holds two reference batches, so the reference "cycle" is
        two batches: its time and rate compare with op_summary()."""
        ms, per_s = super().ref_summary()
        return 2.0 * ms, per_s / 2.0

    def ratios(self) -> tuple[float, float]:
        """Each CLI call is divided by the mean of the reference batches run
        just before and just after it, so that a host speed change during a
        multi-second call is matched by the batches around it; a cycle is
        the sum for its two calls, against a reference cycle of two batches."""
        if not self.norm_cycles:
            return 0.0, 0.0
        return float(np.median(self.norm_cycles)) / 2.0, 2.0 / float(np.mean(self.norm_cycles))


def make(name: str, seed: int, root: str) -> Workload:
    if name == "attack_local":
        return AttackWorkload(seed, root, over_tcp=False)
    if name == "attack_tcp":
        return AttackWorkload(seed, root, over_tcp=True)
    if name == "city_mixed":
        return CityWorkload(seed, root)
    if name == "lab_cli":
        return LabCliWorkload(seed, root)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("attack_local", "attack_tcp", "city_mixed", "lab_cli")
