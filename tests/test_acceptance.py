"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s or -rP to see them). The
heavyweight artifacts (100-seed run battery, 300-deployment distribution
study) are built once per session and shared.
"""

from __future__ import annotations

import functools
import json
import math
import random
import threading
import time

import numpy as np
import pytest
from scipy import stats

from proxilab.geo import GeoPoint, destination, distance
from proxilab.prober import collect_transitions, transition_record
from proxilab.service import (
    FloodWaitError,
    Quantizer,
    Service,
    SpeedBanError,
    TargetRegistry,
)
from proxilab.wire import ApiServer, TcpClient, decode, decode_request, encode
from proxilab import analysis
from proxilab.analysis import (
    InsufficientCoverageError,
    bounding_box,
    build_report,
    centroid,
    classify_shape,
    edge_offsets,
    latitude_sweep,
    max_localization_error,
    midpoints_local,
    phasor,
    run_probe_deployment,
)

from conftest import oracle_class

EQ_CELL_M = 0.005 * math.pi / 180.0 * 6_378_137.0


def criterion(label: str):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {label}: FAIL")
                raise
            print(f"ACCEPTANCE {label}: PASS")

        return run

    return wrap


@pytest.fixture(scope="session")
def distribution_study():
    """300 seeded deployments at latitude ~23 with measured boxes and
    centroid-error phasors; master seed 0."""
    t_start = time.monotonic()
    base_lat, base_lon = 23.0, 10.0
    rng = random.Random(0)
    rects, phasors = [], []
    for k in range(300):
        target = GeoPoint(base_lat + rng.uniform(-0.02, 0.02), base_lon + rng.uniform(-0.05, 0.05))
        tset, _ = run_probe_deployment(target, seed=k)
        try:
            rect = bounding_box(tset, target)
        except InsufficientCoverageError:
            continue
        rects.append(rect)
        phasors.append(phasor((0.0, 0.0), centroid(rect)))
    return {
        "rects": rects,
        "phasors": phasors,
        "cell_m": EQ_CELL_M * math.cos(math.radians(base_lat)),
        "elapsed_s": time.monotonic() - t_start,
    }


@criterion("1 latitude sweep endpoints")
def test_latitude_sweep_endpoints_and_monotonicity():
    t_start = time.monotonic()
    rows = latitude_sweep(step=10.0)
    elapsed = time.monotonic() - t_start
    by_name = {r.name: r for r in rows}
    assert by_name["Kourou"].max_error_m == pytest.approx(392.0, abs=15.0)
    assert by_name["Utqiagvik"].max_error_m == pytest.approx(126.0, abs=15.0)
    d_values = [r.max_error_m for r in rows]
    assert all(d is not None for d in d_values)
    assert all(a > b for a, b in zip(d_values, d_values[1:])), "D must strictly decrease"
    assert elapsed <= 120.0, f"sweep took {elapsed:.1f}s, budget is 120s"


@criterion("2 uncertainty ratio at lat 40")
def test_uncertainty_ratio_and_box_extent():
    target = GeoPoint(40.0, -3.0)
    tset, service = run_probe_deployment(target, seed=0)
    rect = bounding_box(tset, target)
    cell = service.quantizer.cell_size(target.lat)
    assert rect.width == pytest.approx(3.0 * cell, abs=25.0)
    assert rect.height == pytest.approx(3.0 * cell, abs=25.0)
    ratio = (cell * cell) / rect.area
    assert ratio == pytest.approx(1.0 / 9.0, rel=0.05)


@criterion("3 max localization error formula")
def test_max_error_formula_exact():
    assert abs(max_localization_error(500.0) - 353.55) <= 0.01
    assert abs(max_localization_error(400.0) - 282.84) <= 0.01


@criterion("4 distribution properties at lat 23")
def test_distributions_over_300_deployments(distribution_study):
    study = distribution_study
    s = study["cell_m"]
    assert len(study["rects"]) >= 280  # quality gate may drop a few runs
    d_x, d_y = edge_offsets(study["rects"])
    ks_x = stats.kstest(d_x, stats.uniform(loc=s, scale=s).cdf)
    ks_y = stats.kstest(d_y, stats.uniform(loc=s, scale=s).cdf)
    assert ks_x.pvalue >= 0.01, f"edge-offset x KS p={ks_x.pvalue}"
    assert ks_y.pvalue >= 0.01, f"edge-offset y KS p={ks_y.pvalue}"
    phases = np.array([p.phase for p in study["phasors"]])
    ks_phase = stats.kstest(phases, stats.uniform(loc=-math.pi, scale=2 * math.pi).cdf)
    assert ks_phase.pvalue >= 0.01, f"phase KS p={ks_phase.pvalue}"
    rho = np.array([p.rho for p in study["phasors"]])
    p200 = float((rho <= 200.0).mean())
    assert abs(p200 - 0.48) <= 0.05, f"P(rho<=200)={p200}"
    assert study["elapsed_s"] <= 300.0, f"study took {study['elapsed_s']:.1f}s, budget is 300s"


@criterion("5 attack efficiency")
def test_attack_efficiency_default_run():
    target = GeoPoint(0.0, 0.0)
    tset, service = run_probe_deployment(target, seed=0)
    assert len(tset) >= 30
    assert tset.total_queries <= 600
    assert service.account("finder").total_admitted == tset.total_queries
    assert service.account("finder").ban_events == 0


@criterion("6 bisection accuracy across 100 seeds")
def test_every_transition_straddles_analytic_boundary(midlat_runs):
    checked = 0
    for target, tset, _ in midlat_runs:
        for t in tset.transitions:
            assert distance(t.inside, t.outside) <= 10.0 + 1e-9
            assert oracle_class(t.inside, target) == 500
            assert oracle_class(t.outside, target) == 1000
            checked += 1
    assert checked >= 100 * 30


@criterion("7 rate limits")
def test_rate_limits_quota_speed_and_expiry():
    registry = TargetRegistry()
    registry.add("t", GeoPoint(0, 0))
    service = Service(registry, Quantizer())
    pos = GeoPoint(0, 0)
    # 1,000 admitted, the 1,001st rejected
    for k in range(1000):
        service.search("quota", pos, float(k))
    with pytest.raises(FloodWaitError) as flood:
        service.search("quota", pos, 1000.0)
    assert flood.value.retry_after_s > 0
    # flood ban expires after 24 h of virtual time
    with pytest.raises(FloodWaitError):
        service.search("quota", pos, 1000.0 + 86_399.0)
    service.search("quota", pos, 1000.0 + 86_400.0)
    # 90.9 km/h rejected, 89.1 km/h admitted
    moved = destination(pos, 90.0, 2500.0)
    service.search("fast", pos, 0.0)
    with pytest.raises(SpeedBanError):
        service.search("fast", moved, 99.0)
    service.search("slow", pos, 0.0)
    service.search("slow", moved, 101.0)
    # speed ban expires after 24 h of virtual time
    with pytest.raises(SpeedBanError):
        service.search("fast", pos, 99.0 + 86_399.0)
    service.search("fast", pos, 99.0 + 86_400.0)


@criterion("8 shape taxonomy")
def test_shape_taxonomy_and_box_agreement():
    results = {}
    for lat, seed in ((5.0, 1), (40.0, 0)):
        target = GeoPoint(lat, 7.25)
        tset, service = run_probe_deployment(target, seed=seed)
        rect = bounding_box(tset, target)
        results[lat] = (classify_shape(midpoints_local(tset, target)), rect, service.quantizer.cell_size(lat))
    shape5, rect5, cell5 = results[5.0]
    shape40, rect40, cell40 = results[40.0]
    assert shape5 is analysis.Shape.CROSS
    assert shape40 is analysis.Shape.SQUARE
    # each measured box is square to within 5% and matches three tiles per side
    for rect, cell in ((rect5, cell5), (rect40, cell40)):
        assert rect.width == pytest.approx(rect.height, rel=0.05)
        assert rect.width == pytest.approx(3.0 * cell, rel=0.05)
        assert rect.height == pytest.approx(3.0 * cell, rel=0.05)


@criterion("9 protocol and determinism")
def test_protocol_fuzz_e2e_determinism_and_isolation():
    # lossless codec round-trip over 1,000 fuzzed valid messages
    rng = random.Random(99)
    alphabet = "abcXYZ0189_-é世界"
    for _ in range(1000):
        msg = {
            "v": 1,
            "type": "search",
            "account": "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12))),
            "lat": rng.uniform(-90.0, 90.0),
            "lon": rng.uniform(-400.0, 400.0),
            "ts": rng.choice([rng.randint(0, 10**9), rng.uniform(0.0, 1e9)]),
        }
        assert decode(encode(msg)) == msg
        assert decode_request(encode(msg)) == msg

    # two full end-to-end runs over TCP with equal seeds, byte-identical files
    def end_to_end() -> tuple[bytes, bytes]:
        registry = TargetRegistry()
        target = GeoPoint(0.0012, 0.0034)
        registry.add("alice", target)
        service = Service(registry, Quantizer())
        with ApiServer(service, "127.0.0.1", 0) as server:
            host, port = server.address
            with TcpClient(host, port, "finder") as client:
                tset = collect_transitions(
                    client, "alice", hint=target, rng=random.Random(4)
                )
        lines = [json.dumps(transition_record("alice", t), sort_keys=True) for t in tset.transitions]
        report = build_report(tset, target)
        return "\n".join(lines).encode(), json.dumps(report.to_dict(), sort_keys=True).encode()

    first = end_to_end()
    second = end_to_end()
    assert first[0] == second[0], "transition bytes differ between equal-seed runs"
    assert first[1] == second[1], "report bytes differ between equal-seed runs"

    # 100 concurrent clients on distinct accounts observe single-client behavior
    registry = TargetRegistry()
    registry.add("t", GeoPoint(0, 0))
    service = Service(registry, Quantizer())
    reference_service = Service(registry, Quantizer())
    probe_points = [GeoPoint(0.0, 0.005 * k / 4.0) for k in range(8)]
    reference = [
        reference_service.search("ref", p, k * 3600.0) for k, p in enumerate(probe_points)
    ]
    failures: list[str] = []
    with ApiServer(service, "127.0.0.1", 0) as server:
        host, port = server.address

        def worker(idx: int) -> None:
            account = f"client{idx:03d}"
            try:
                with TcpClient(host, port, account) as client:
                    for k, p in enumerate(probe_points):
                        got = client.search(p, k * 3600.0)
                        if got != reference[k]:
                            failures.append(f"{account} step {k}: {got} != {reference[k]}")
                            return
            except Exception as exc:  # noqa: BLE001 - surfaced via the assert
                failures.append(f"{account}: {exc!r}")

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(100)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    assert failures == []
    for idx in range(100):
        assert service.account(f"client{idx:03d}").total_admitted == len(probe_points)
