"""Per-layer instrumentation for the traced run: which public functions get
spans, the registry-size probe, the small layer probes that cover layers a
workload does not reach, and the per-layer metrics computed from spans."""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import shutil
from time import perf_counter

import numpy as np

import oracle
from spans import SCOPE_PROBE, SCOPE_WORKLOAD, SpanFrame, Tracer

import proxilab
from proxilab import analysis, cli, geo, prober, service, wire
from proxilab.geo import GeoPoint

MODULES = (proxilab, geo, service, wire, prober, analysis, cli)

PHASES = (
    ("find_start", "prober.find_inward_start"),
    ("choose_direction", "prober.choose_direction"),
    ("probe_outward", "prober.probe_outward"),
    ("bisect", "prober.bisect_boundary"),
    ("walk_inward", "prober.walk_inward"),
)
WRITERS = (
    "analysis.write_sweep_csv",
    "analysis.write_ecdf_csv",
    "analysis.write_report_json",
    "prober.write_transitions",
)
SIZE_PROBE_N = (1, 100, 1_000, 10_000, 100_000)
SIZE_PROBE_SEARCHES = 3
SIZE_PROBE_CENTER = (40.0, -3.0)
# Same density as city_mixed: 1,000 targets per 15 km disc.
SIZE_PROBE_DENSITY_PER_M2 = 1_000 / (math.pi * 15_000.0 ** 2)


def install(tr: Tracer) -> None:
    """Span every public entry point of the six layers."""
    for fn in ("distance", "destination", "to_mercator", "from_mercator"):
        tr.install(geo, fn, f"geo.{fn}", MODULES)
    tr.install(service, "classify", "service.classify", MODULES, hook=lambda a, r: float(r is not None))
    tr.install(service.Quantizer, "snap_point", "service.snap_point")
    tr.install(service.Service, "search", "service.search")
    tr.install(service.Service, "_admit", "service.admit")
    tr.install(service.TargetRegistry, "move", "service.move")
    tr.install(service.LocalClient, "search", "service.LocalClient.search", query=True)
    tr.install(wire, "encode", "wire.encode", MODULES, hook=lambda a, r: float(len(r)))
    tr.install(wire, "decode", "wire.decode", MODULES)
    tr.install(wire, "decode_request", "wire.decode_request", MODULES)
    tr.install(wire, "error_response", "wire.error_response", MODULES,
               hook=lambda a, r: float(a[0] == "BAD_REQUEST"))
    tr.install(wire.TcpClient, "__init__", "wire.connect")
    tr.install(wire.TcpClient, "search", "wire.TcpClient.search", query=True, remote=True)
    tr.install(prober, "collect_transitions", "prober.collect_transitions", MODULES)
    tr.install(prober, "write_transitions", "prober.write_transitions", MODULES)
    for method in ("query_class", "find_inward_start", "choose_direction", "probe_outward",
                   "bisect_boundary", "walk_inward"):
        tr.install(prober.ProbeSession, method, f"prober.{method}")
    for fn in ("build_report", "bounding_box", "classify_shape", "estimate_tile_size",
               "latitude_sweep", "ecdf", "write_sweep_csv", "write_ecdf_csv", "write_report_json"):
        tr.install(analysis, fn, f"analysis.{fn}", MODULES)


# -- registry-size probe ------------------------------------------------------------


def size_probe(seed: int) -> dict[str, float]:
    """Service.search time at growing registry size and fixed density, with
    and without a target move right before the search. Untraced."""
    out = {}
    rng = random.Random(f"proxilab-bench/size-probe/{seed}")
    c_lat, c_lon = SIZE_PROBE_CENTER
    for n in SIZE_PROBE_N:
        radius = (n / (math.pi * SIZE_PROBE_DENSITY_PER_M2)) ** 0.5
        registry = service.TargetRegistry()
        for k in range(n):
            r = radius * rng.random() ** 0.5
            theta = rng.uniform(0.0, 2.0 * math.pi)
            registry.add(f"t{k:06d}", GeoPoint(*oracle.offset(c_lat, c_lon, r * math.cos(theta), r * math.sin(theta))))
        svc = service.Service(registry)
        svc.search("warmup", GeoPoint(c_lat, c_lon), 0.0)
        plain, moved = [], []
        for s in range(2 * SIZE_PROBE_SEARCHES):
            after_move = s % 2 == 1
            if after_move:
                tid = f"t{rng.randrange(n):06d}"
                registry.move(tid, GeoPoint(*oracle.offset(*_latlon(registry, tid), rng.uniform(-100, 100), 50.0)))
            q = GeoPoint(*oracle.offset(c_lat, c_lon, rng.uniform(-2000, 2000), rng.uniform(-2000, 2000)))
            t0 = perf_counter()
            svc.search(f"probe-{s}", q, 0.0)
            (moved if after_move else plain).append((perf_counter() - t0) * 1e3)
        out[f"service.search.ms_n{n}"] = float(np.median(plain))
        out[f"service.search.ms_n{n}_after_move"] = float(np.median(moved))
    return out


def _latlon(registry, tid: str) -> tuple[float, float]:
    p = registry.position(tid)
    return p.lat, p.lon


# -- layer probes -----------------------------------------------------------------


def wire_probe(tr: Tracer, seed: int) -> None:
    """Two attacks over loopback TCP, traced in the probe scope, for workloads
    that never touch the wire."""
    registry = service.TargetRegistry()
    registry.add("target", GeoPoint(0.0, 0.0))
    svc = service.Service(registry)
    rng = random.Random(f"proxilab-bench/wire-probe/{seed}")
    with wire.ApiServer(svc, "127.0.0.1", 0) as server:
        for k in range(2):
            pos = GeoPoint(rng.uniform(20.0, 45.0), rng.uniform(-170.0, 170.0))
            registry.move("target", pos)
            with wire.TcpClient(*server.address, f"wire-probe-{k}") as conn:
                tset = prober.collect_transitions(conn, "target", hint=pos, rng=random.Random(k))
                analysis.build_report(tset, pos)


def cli_probe(tr: Tracer, seed: int, root: str) -> None:
    """A default sweep and a ten-run figures call, for workloads that never
    drive the lab harness."""
    out = os.path.join(root, ".bench_out", f"cli-probe-{os.getpid()}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            tr.span("cli.main.sweep", cli.main, ["sweep", "--seed", str(seed), "--out", os.path.join(out, "s.csv")])
            tr.span("cli.main.figures", cli.main,
                    ["figures", "--runs", "10", "--seed", str(seed), "--out", os.path.join(out, "fig")])
    finally:
        shutil.rmtree(out, ignore_errors=True)


def run_probes(tr: Tracer, workload: str, seed: int, root: str) -> list[str]:
    ran = []
    tr.cur_scope = SCOPE_PROBE
    tr.cur_op = -1
    try:
        if workload != "attack_tcp":
            wire_probe(tr, seed)
            ran.append("wire")
        if workload != "lab_cli":
            cli_probe(tr, seed, root)
            ran.append("cli")
    finally:
        tr.cur_scope = SCOPE_WORKLOAD
    return ran


# -- metrics ----------------------------------------------------------------------


def _p50(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _ratio(a: float, b: float) -> float:
    return float(a) / float(b) if b else 0.0


def per_layer(tr: Tracer, op_seconds: float, cycles: int) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer metrics from the recorded spans, and the source (workload or
    probe) of every timing. Counts and ratios use workload spans only."""
    f = SpanFrame(tr)
    sources: dict[str, str] = {}

    def timing(metric: str, name: str, scale: float, self_time: bool = False) -> float:
        values, source = f.times(name, self_time)
        sources[metric] = source
        return _p50(values) * scale

    n_query = f.count("service.LocalClient.search") + f.count("wire.TcpClient.search")
    n_search = f.count("service.search")
    n_transitions = f.count("prober.bisect_boundary", ok=True)
    n_attacks = f.count("prober.collect_transitions")
    dist = f.mask("geo.distance")
    listed, classified = tr.hook_total("service.classify", SCOPE_WORKLOAD)
    m: dict[str, float] = {
        "geo.distance.calls_per_query": _ratio(dist.sum(), n_query),
        "geo.distance.self_frac": _ratio(f.self_time[dist].sum(), op_seconds),
        "geo.destination.calls_per_query": _ratio(f.count("geo.destination"), n_query),
        "geo.to_mercator.calls_per_search": _ratio(f.count("geo.to_mercator"), n_search),
        "geo.from_mercator.calls_per_search": _ratio(f.count("geo.from_mercator"), n_search),
        "service.search.self_us_p50": timing("service.search.self_us_p50", "service.search", 1e6, True),
        "service.classify.calls_per_search": _ratio(f.count("service.classify"), n_search),
        "service.classify.listed_frac": _ratio(listed, classified),
        "service.snap_point.calls_per_search": _ratio(f.count("service.snap_point"), n_search),
        "service.admit.self_us_p50": timing("service.admit.self_us_p50", "service.admit", 1e6, True),
        "service.move.us_p50": timing("service.move.us_p50", "service.move", 1e6),
        "service.rejected.FLOOD_WAIT": f.count("service.admit", error="FloodWaitError"),
        "service.rejected.SPEED_BAN": f.count("service.admit", error="SpeedBanError"),
    }
    for metric, name in (("wire.encode.us_p50", "wire.encode"),
                         ("wire.decode_request.us_p50", "wire.decode_request"),
                         ("wire.decode.us_p50", "wire.decode")):
        m[metric] = timing(metric, name, 1e6)
    m["wire.rtt_overhead_us_p50"] = _rtt_overhead(f, sources)
    for metric, main_thread in (("wire.request_bytes", True), ("wire.response_bytes", False)):
        for scope, source in ((SCOPE_WORKLOAD, "workload"), (SCOPE_PROBE, "probe")):
            total, calls = tr.hook_total("wire.encode", scope, main_thread)
            if calls:
                m[metric], sources[metric] = total / calls, source
                break
        else:
            m[metric], sources[metric] = 0.0, "none"
    m["wire.connect_ms"] = timing("wire.connect_ms", "wire.connect", 1e3)
    m["wire.bad_request"] = tr.hook_total("wire.error_response", SCOPE_WORKLOAD)[0]
    for phase, name in PHASES:
        m[f"prober.queries.{phase}"] = _ratio(
            f.count("prober.query_class", parent_name=name), n_transitions)
    m["prober.direction_accept_frac"] = _ratio(
        f.count("prober.choose_direction", ok=True),
        f.count("prober.query_class", parent_name="prober.choose_direction"))
    m["prober.walk_resets_per_attack"] = _ratio(
        f.count("prober.probe_outward", error="_WalkReset") + f.count("prober.walk_inward", error="_WalkReset"),
        n_attacks)
    m["prober.query_class.self_us_p50"] = timing("prober.query_class.self_us_p50", "prober.query_class", 1e6, True)
    for metric, name, scale in (
        ("analysis.build_report.us_p50", "analysis.build_report", 1e6),
        ("analysis.bounding_box.us_p50", "analysis.bounding_box", 1e6),
        ("analysis.classify_shape.us_p50", "analysis.classify_shape", 1e6),
        ("analysis.estimate_tile_size.ms_p50", "analysis.estimate_tile_size", 1e3),
        ("analysis.latitude_sweep.s", "analysis.latitude_sweep", 1.0),
        ("analysis.ecdf.us_p50", "analysis.ecdf", 1e6),
        ("cli.main.sweep.s", "cli.main.sweep", 1.0),
        ("cli.main.figures.s", "cli.main.figures", 1.0),
    ):
        m[metric] = timing(metric, name, scale)
    m["analysis.write_s"], sources["analysis.write_s"] = _writer_seconds(f, cycles)
    return m, sources


def _rtt_overhead(f: SpanFrame, sources: dict[str, str]) -> float:
    """Client-observed TcpClient.search time minus the server-side
    Service.search time of the same query."""
    for scope, source in ((SCOPE_WORKLOAD, "workload"), (SCOPE_PROBE, "probe")):
        client = f.mask("wire.TcpClient.search", scope)
        server = f.mask("service.search", scope) & (f.qid >= 0)
        if not client.any():
            continue
        server_by_qid = dict(zip(f.qid[server].tolist(), f.dur[server].tolist()))
        gaps = [d - server_by_qid[q] for q, d in zip(f.qid[client].tolist(), f.dur[client].tolist())
                if q in server_by_qid]
        sources["wire.rtt_overhead_us_p50"] = source
        return _p50(gaps) * 1e6
    sources["wire.rtt_overhead_us_p50"] = "none"
    return 0.0


def _writer_seconds(f: SpanFrame, cycles: int) -> tuple[float, str]:
    """Writer time per sweep-plus-figures cycle."""
    for scope, source, n in ((SCOPE_WORKLOAD, "workload", cycles), (SCOPE_PROBE, "probe", 1)):
        total = sum(float(f.dur[f.mask(name, scope)].sum()) for name in WRITERS)
        if total and n and f.mask("cli.main.figures", scope).any():
            return total / n, source
    return 0.0, "none"
