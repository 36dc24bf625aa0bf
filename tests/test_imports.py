"""Import cost: importing the program loads neither numpy nor the process pool,
and each CLI command loads only the layers it runs."""

from __future__ import annotations

import json
import socket
import subprocess
import sys

from conftest import child_env

from proxilab.cli import EXIT_CONFIG, EXIT_OK

# numpy is a test dependency only; the process pool behind `sweep` and
# `figures` is imported when a pool opens, not by importing the CLI.
NOT_LOADED = ("numpy", "multiprocessing", "concurrent.futures")

PROBE = """
import importlib, pkgutil, sys
import proxilab, proxilab.cli
for info in pkgutil.iter_modules(proxilab.__path__, "proxilab."):
    importlib.import_module(info.name)
print(",".join(m for m in sys.argv[1:] if m in sys.modules))
"""

# The statistics and the TCP layers, and what they import that nothing
# else in the program does.
LAYERS = ("proxilab.analysis", "proxilab.wire", "socket", "socketserver", "logging", "csv")

# Runs each (kind, argv) step of argv[2] in turn: "import" imports the CLI,
# "parse" parses argv and "main" runs it. Prints, one JSON line per step,
# which modules of argv[1] it newly loaded, main's exit code and stderr.
# Comparing sys.modules before and after each step keeps a module that a
# site .pth preloads out of the count.
STEPS = """
import contextlib, io, json, sys
watched, steps = json.loads(sys.argv[1]), json.loads(sys.argv[2])

def run(kind, argv):
    if kind == "import":
        import proxilab.cli
        return None
    from proxilab.cli import build_parser, main
    if kind == "parse":
        build_parser().parse_args(argv)
        return None
    return main(argv)

for kind, argv in steps:
    before = set(sys.modules)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(kind, argv)
    new = [m for m in watched if m in sys.modules and m not in before]
    print(json.dumps({"new": new, "code": code, "err": err.getvalue()}))
"""


def run_steps(*steps) -> list[dict]:
    """STEPS in a fresh interpreter, after importing the CLI."""
    out = subprocess.run(
        [sys.executable, "-c", STEPS, json.dumps(LAYERS), json.dumps([("import", None), *steps])],
        env=child_env(), capture_output=True, text=True, check=True, timeout=120,
    )
    return [json.loads(line) for line in out.stdout.splitlines()]


def test_importing_every_module_loads_no_numpy_and_no_pool():
    out = subprocess.run(
        [sys.executable, "-c", PROBE, *NOT_LOADED], env=child_env(), capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == ""


def test_each_command_loads_only_its_layers(tmp_path):
    registry = tmp_path / "t.jsonl"
    registry.write_text('{"id": "t", "lat": 23.0, "lon": 51.35}\n')
    transitions, report = str(tmp_path / "t_out.jsonl"), str(tmp_path / "r.json")
    parsed = {
        "serve": ["serve", "--targets", str(registry)],
        "attack": ["attack", "--target", "t", "--out", transitions],
        "analyze": ["analyze", "--transitions", transitions, "--targets", str(registry), "--out", report],
        "sweep": ["sweep", "--out", str(tmp_path / "s.csv")],
        "figures": ["figures", "--out", str(tmp_path / "figures")],
    }
    attack = ["attack", "--targets", str(registry), "--target", "t", "--out", transitions]
    steps = run_steps(
        *(("parse", argv) for argv in parsed.values()), ("main", attack), ("main", parsed["analyze"])
    )
    names = ["import", *(f"parse {cmd}" for cmd in parsed), "attack --targets", "analyze"]
    new = {name: step["new"] for name, step in zip(names, steps, strict=True)}
    analyze = new.pop("analyze")
    assert new == {name: [] for name in new}
    assert "proxilab.analysis" in analyze and "proxilab.wire" not in analyze
    assert [step["code"] for step in steps[-2:]] == [EXIT_OK, EXIT_OK]


def test_attack_over_an_endpoint_loads_the_wire(tmp_path):
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    # Nothing listens on the port now, so the attack cannot connect.
    steps = run_steps(
        ("main", ["attack", "--endpoint", f"127.0.0.1:{port}", "--target", "t", "--hint", "23.0,51.35",
                  "--out", str(tmp_path / "t.jsonl")])
    )
    assert steps[0]["new"] == []
    assert "proxilab.wire" in steps[1]["new"]
    assert steps[1]["code"] == EXIT_CONFIG
    err = steps[1]["err"].splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot open --endpoint")
