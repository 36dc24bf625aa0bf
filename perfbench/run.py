#!/usr/bin/env python3
"""proxilab benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload attack_local --seed 1 --seconds 20 --trace 0

Workloads: attack_local, attack_tcp, city_mixed, lab_cli (see
perfbench/README.md). The seed generates every input. With --trace 0 the
run is untraced and the last stdout line is a JSON object whose metrics are
the end-to-end metrics of BENCHMARK.json; with --trace 1 the run installs
span wrappers on the public functions of every layer and reports the
per-layer metrics instead. Human-readable detail (every metric the
workload defines, digests, failure causes, provenance) is printed above
the JSON line and saved under .bench_out/.

Exit status: 0 on a correct run; 1 when an oracle check or a determinism
check failed (the JSON line is still printed, with "correct": false);
2 when the program sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 5
SPAN_CAP = 1_000_000
CHILD_IMPORT = "import time; t = time.perf_counter(); import proxilab.cli; print(repr(time.perf_counter() - t))"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def child_import_seconds() -> float:
    """First import of proxilab in a fresh interpreter, timed inside it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    done = subprocess.run([sys.executable, "-c", CHILD_IMPORT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip())


def source_digest() -> str:
    """sha256 over the program and benchmark sources, keying the
    determinism store."""
    h = hashlib.sha256()
    for base in (os.path.join(SRC, "proxilab"), HERE):
        for name in sorted(os.listdir(base)):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_revision() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def provenance(seed: int) -> dict:
    return {
        "seed": seed,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "network": "loopback only: attack_tcp serves and connects on 127.0.0.1",
    }


def check_drift(workload, key: str) -> None:
    """Same sources and seed must reproduce the same digests and
    deterministic counts as every earlier run in this checkout."""
    path = os.path.join(OUT_DIR, "determinism.json")
    store = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            store = json.load(fh)
    record = {**workload.digests, **workload.deterministic}
    previous = store.get(key)
    if previous is None:
        store[key] = record
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(store, fh, sort_keys=True, indent=1)
        os.replace(tmp, path)
        return
    for name, value in record.items():
        if name in previous and previous[name] != value:
            workload.drift.append(f"{name} drifted from an earlier run: {previous[name]} -> {value}")
            workload.fail("nondeterminism")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_traced(wl, args, layers, spans) -> tuple[dict, dict]:
    """Untraced warm part, then the same operation stream under spans, then
    the registry-size probe and the layer probes."""
    untraced_s = args.seconds / 3.0
    wl.run(untraced_s)
    n_untraced = len(wl.op_times)
    size = layers.size_probe(args.seed)
    tr = spans.Tracer()
    tr.calibrate()
    layers.install(tr)
    try:
        wl.tracer = tr
        wl.run(max(args.seconds - untraced_s, 0.0), span_cap=SPAN_CAP)
        wl.tracer = None
        n_workload_spans = len(tr)
        probes = layers.run_probes(tr, wl.name, args.seed, ROOT)
    finally:
        tr.uninstall()
    traced_ops = wl.op_times[n_untraced:]
    metrics, sources = layers.per_layer(tr, sum(traced_ops), cycles=len(traced_ops))
    metrics.update(size)
    untraced_ms = statistics.median(wl.op_times[:n_untraced]) * 1e3 if n_untraced else 0.0
    traced_ms = statistics.median(traced_ops) * 1e3 if traced_ops else 0.0
    metrics["trace.op_ms_p50"] = traced_ms
    metrics["trace.op_ms_p50_untraced"] = untraced_ms
    metrics["trace.overhead_frac"] = traced_ms / untraced_ms - 1.0 if untraced_ms else 0.0
    os.makedirs(OUT_DIR, exist_ok=True)
    tr.save(os.path.join(OUT_DIR, f"spans-{wl.name}.npz"))  # one file per workload bounds disk use
    info = {
        "untraced_ops": n_untraced,
        "traced_ops": len(traced_ops),
        "workload_spans": n_workload_spans,
        "probe_spans": len(tr) - n_workload_spans,
        "span_cap": SPAN_CAP,
        "child_span_cost_us": tr.child_cost * 1e6,
        "layer_probes_run": probes,
        "timing_sources": sources,
    }
    return metrics, info


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "proxilab", "__init__.py")):
        print(f"error: program sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    t0 = perf_counter()
    import proxilab.cli  # noqa: F401  (first import, compiles bytecode for the child imports)
    first_import_s = perf_counter() - t0

    import layers
    import spans
    import workloads

    wl = workloads.make(args.workload, args.seed, ROOT)
    os.makedirs(OUT_DIR, exist_ok=True)
    setups = []
    for _ in range(SETUP_REPEATS):
        imported = child_import_seconds()
        wl.close()  # releases the previous build (server, work directory) untimed
        t0 = perf_counter()
        wl.build()
        setups.append(imported + perf_counter() - t0)
    try:
        if not args.trace:
            wl.build_reference()
        trace_info = {}
        if args.trace:
            layer_metrics, trace_info = run_traced(wl, args, layers, spans)
        else:
            wl.run(args.seconds)
        wl.finish()
    finally:
        wl.close()
    check_drift(wl, f"{wl.name}/seed{args.seed}/{source_digest()[:16]}")

    op_ms_p50, ops_per_s = wl.op_summary()
    e2e = {
        "setup_s": (statistics.median(setups), "s"),
        "op_ms_p50": (op_ms_p50, "ms"),
        "ops_per_s": (ops_per_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    if wl.ref_on:
        op_vs_ref, throughput_vs_ref = wl.ratios()
        e2e["ref_op_ms_p50"] = (wl.ref_summary()[0], "ms")
        e2e["op_p50_vs_ref"] = (op_vs_ref, "ratio")
        e2e["throughput_vs_ref"] = (throughput_vs_ref, "ratio")
    detail = {
        "workload": wl.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance(args.seed),
        "setup_samples_s": setups,
        "first_import_s": first_import_s,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in {**e2e, **wl.metrics()}.items()},
        "digests": wl.digests,
        "deterministic": wl.deterministic,
        "attempted": wl.attempted,
        "failed_by_cause": dict(wl.causes),
        "oracle_mismatches": wl.mismatches,
        "drift": wl.drift,
        "coverage": dict(getattr(wl, "coverage", {})),
    }
    if args.trace:
        detail["per_layer"] = layer_metrics
        detail["trace_info"] = trace_info
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = {name: v for name, (v, _) in e2e.items()} if not args.trace else layer_metrics
    missing = [m["name"] for m in section if m["name"] not in values]
    if missing:
        raise RuntimeError(f"benchmark does not produce {missing}")
    result = {
        "correct": wl.correct,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in section},
    }
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    print_detail(detail)
    print(json.dumps(result))
    return 0 if wl.correct else 1


def print_detail(detail: dict) -> None:
    print(f"workload {detail['workload']}  trace {detail['trace']}  seconds {detail['seconds']}")
    for key, value in detail["provenance"].items():
        print(f"  {key:<26} {value}")
    print("end-to-end:")
    for name, m in detail["metrics"].items():
        print(f"  {name:<26} {m['value']:.6g} {m['unit']}")
    if "per_layer" in detail:
        print("per-layer:")
        sources = detail["trace_info"]["timing_sources"]
        for name, value in detail["per_layer"].items():
            note = f"  [{sources[name]}]" if sources.get(name, "workload") != "workload" else ""
            print(f"  {name:<38} {value:.6g}{note}")
        print(f"  trace: {json.dumps({k: v for k, v in detail['trace_info'].items() if k != 'timing_sources'})}")
    for name, digest in detail["digests"].items():
        print(f"  {name}_sha256 {digest}")
    print(f"  attempted {detail['attempted']}  failed {detail['failed_by_cause']}"
          f"  oracle_mismatches {detail['oracle_mismatches']}  coverage {detail['coverage']}")
    for line in detail["drift"]:
        print(f"  DRIFT: {line}")


if __name__ == "__main__":
    sys.exit(main())
