"""CLI: exit codes, provenance headers, and byte-identical reruns."""

from __future__ import annotations

import atexit
import contextlib
import csv
import functools
import hashlib
import json
import multiprocessing
import os
import random
import signal
import socket
import subprocess
import sys
import threading

import pytest

from proxilab import analysis
from proxilab.analysis import DEFAULT_STEP_M, SWEEP_CITIES
from proxilab.cli import (
    EXIT_BANNED,
    EXIT_BUDGET,
    EXIT_CONFIG,
    EXIT_NOT_FOUND,
    EXIT_OK,
    PLOT_LADDER_RUNGS,
    ExperimentConfig,
    build_parser,
    build_server,
    main,
)
from proxilab.geo import GeoPoint
from proxilab.prober import DEFAULT_TRANSITIONS, INNER_CLASS_M, InconsistentOracleError, ProbeConfig
from proxilab.service import (
    DEFAULT_DAILY_QUOTA,
    DEFAULT_GRID_DEG,
    DEFAULT_SPEED_LIMIT_MPS,
    FloodWaitError,
    Service,
    TargetRegistry,
)
from proxilab.wire import ApiServer, TcpClient

from conftest import child_env

CONFIG_KEYS = {
    "seed", "grid_deg", "quota", "speed_limit", "accuracy",
    "jump", "max_queries", "transitions", "step",
}


# A registry position the service accepts, 0.005 deg of latitude short of
# the Mercator limit: the walk around it queries beyond 85.06 deg.
POLAR_TARGET = (85.055, 0.0)


@pytest.fixture()
def registry_file(tmp_path):
    path = tmp_path / "targets.jsonl"
    path.write_text('{"id": "alice", "lat": 0.0, "lon": 0.0}\n')
    return str(path)


def run_attack(tmp_path, registry_file, name, extra=()):
    out = tmp_path / name
    code = main([
        "attack",
        "--targets", registry_file,
        "--target", "alice",
        "--seed", "0",
        "--out", str(out),
        *extra,
    ])
    return code, out


class TestAttack:
    def test_default_run_writes_transitions(self, tmp_path, registry_file):
        code, out = run_attack(tmp_path, registry_file, "t.jsonl")
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        meta = json.loads(lines[0])
        assert meta["type"] == "meta"
        assert len(lines) - 1 >= 30
        assert meta["total_queries"] <= 600

    def test_rerun_is_byte_identical(self, tmp_path, registry_file):
        _, out1 = run_attack(tmp_path, registry_file, "a.jsonl")
        _, out2 = run_attack(tmp_path, registry_file, "b.jsonl")
        assert out1.read_bytes() == out2.read_bytes()

    def test_config_echo_round_trips_to_equivalent_run(self, tmp_path, registry_file):
        _, out1 = run_attack(tmp_path, registry_file, "a.jsonl")
        meta = json.loads(out1.read_text().splitlines()[0])
        cfg = meta["config"]
        code, out2 = run_attack(
            tmp_path,
            registry_file,
            "b.jsonl",
            extra=[
                "--accuracy", str(cfg["accuracy"]),
                "--jump", str(cfg["jump"]),
                "--max-queries", str(cfg["max_queries"]),
                "--transitions", str(cfg["transitions"]),
                "--grid-deg", str(cfg["grid_deg"]),
            ],
        )
        assert code == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_budget_exit_code(self, tmp_path, registry_file):
        code, out = run_attack(tmp_path, registry_file, "t.jsonl", extra=["--max-queries", "3"])
        assert code == EXIT_BUDGET
        assert out.exists()

    def test_unknown_target_exit_code(self, tmp_path, registry_file):
        out = tmp_path / "t.jsonl"
        code = main([
            "attack", "--targets", registry_file, "--target", "nobody",
            "--seed", "0", "--out", str(out),
        ])
        assert code == EXIT_NOT_FOUND

    def test_malformed_seed_env_exits_with_config_error(self, tmp_path, registry_file, monkeypatch):
        monkeypatch.setenv("PROXILAB_SEED", "abc")
        with pytest.raises(SystemExit) as exc:
            main(["attack", "--targets", registry_file, "--target", "alice", "--out", str(tmp_path / "t.jsonl")])
        assert exc.value.code == EXIT_CONFIG

    def test_seed_env_fallback(self, tmp_path, registry_file, monkeypatch):
        monkeypatch.setenv("PROXILAB_SEED", "7")
        out = tmp_path / "env.jsonl"
        code = main(["attack", "--targets", registry_file, "--target", "alice", "--out", str(out)])
        assert code == EXIT_OK
        assert json.loads(out.read_text().splitlines()[0])["config"]["seed"] == 7


    def test_missing_targets_file_exits_with_config_error(self, tmp_path, capsys):
        code = main([
            "attack", "--targets", str(tmp_path / "nope.jsonl"), "--target", "alice",
            "--out", str(tmp_path / "t.jsonl"),
        ])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_refused_endpoint_exits_with_config_error(self, tmp_path, capsys):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        code = main([
            "attack", "--endpoint", f"127.0.0.1:{port}", "--target", "alice",
            "--hint", "0,0", "--out", str(tmp_path / "t.jsonl"),
        ])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_no_service_source_exits_with_config_error(self, tmp_path, capsys):
        code = main(["attack", "--target", "alice", "--out", str(tmp_path / "t.jsonl")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_hint_far_from_the_target_exits_not_found(self, tmp_path, capsys):
        # No probe within 1 km of the hint lists a target 23 deg away.
        targets = _file(tmp_path / "t23.jsonl", '{"id": "alice", "lat": 23.0, "lon": 51.35}\n')
        out = tmp_path / "t.jsonl"
        code = main(["attack", "--targets", targets, "--target", "alice", "--hint", "0,0", "--out", str(out)])
        assert code == EXIT_NOT_FOUND
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert errors == ["error: target not found: no inner-class position within 48 probes of the hint"]
        assert not out.exists()

    def test_service_banning_the_walker_exits_banned(self, tmp_path, capsys):
        # The walker paces just under the default 25 m/s; this server bans
        # above 1 m/s, so the first jump after the hint is banned.
        registry = TargetRegistry()
        registry.add("alice", GeoPoint(0.0, 0.0))
        out = tmp_path / "t.jsonl"
        with ApiServer(Service(registry, speed_limit_mps=1.0), "127.0.0.1", 0) as server:
            code = main([
                "attack", "--endpoint", "%s:%d" % server.address, "--target", "alice",
                "--hint", "0,0", "--out", str(out),
            ])
        assert code == EXIT_BANNED
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert errors == ["error: banned during choose-direction: SPEED_BAN"]
        assert not out.exists()

    def test_walk_past_the_mercator_limit_over_tcp_exits_with_config_error(self, tmp_path, capsys):
        # The server answers the walk's first query beyond 85.06 deg with
        # BAD_REQUEST, which the client raises as a ProtocolError.
        registry = TargetRegistry()
        registry.add("alice", GeoPoint(*POLAR_TARGET))
        out = tmp_path / "t.jsonl"
        with ApiServer(Service(registry), "127.0.0.1", 0) as server:
            code = main([
                "attack", "--endpoint", "%s:%d" % server.address, "--target", "alice",
                "--hint", "%r,%r" % POLAR_TARGET, "--seed", "0", "--out", str(out),
            ])
        assert code == EXIT_CONFIG
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "BAD_REQUEST" in errors[0]
        assert not out.exists()

    @pytest.mark.parametrize("reply, fragment", [
        pytest.param(b"", "closed the connection", id="dropped"),
        pytest.param(b"not json\n", "invalid JSON", id="garbled"),
    ])
    def test_endpoint_that_drops_or_garbles_the_reply_exits_with_config_error(
        self, tmp_path, reply, fragment, capsys
    ):
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)

            def answer_first_request():
                conn, _ = listener.accept()
                with conn:
                    conn.recv(4096)
                    conn.sendall(reply)

            server = threading.Thread(target=answer_first_request)
            server.start()
            out = tmp_path / "t.jsonl"
            code = main([
                "attack", "--endpoint", "%s:%d" % listener.getsockname(), "--target", "alice",
                "--hint", "0,0", "--out", str(out),
            ])
            server.join(timeout=5.0)
        assert code == EXIT_CONFIG
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and fragment in errors[0]
        assert not out.exists()


class TestAnalyze:
    def test_report_from_transitions(self, tmp_path, registry_file):
        _, tfile = run_attack(tmp_path, registry_file, "t.jsonl")
        report_path = tmp_path / "report.json"
        code = main([
            "analyze", "--transitions", str(tfile),
            "--targets", registry_file, "--out", str(report_path),
        ])
        assert code == EXIT_OK
        payload = json.loads(report_path.read_text())
        assert payload["report"]["n_transitions"] >= 30

    def test_missing_input_exits_with_config_error(self, tmp_path, registry_file):
        code = main([
            "analyze", "--transitions", str(tmp_path / "nope.jsonl"),
            "--targets", registry_file, "--out", str(tmp_path / "r.json"),
        ])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("flag", [["--seed", "9"], ["--grid-deg", "0.5"]])
    def test_flags_it_would_ignore_are_usage_errors(self, tmp_path, registry_file, flag, capsys):
        # The report echoes the attack's own config, so a seed or grid pitch
        # given here could only be silently ignored.
        with pytest.raises(SystemExit) as exc:
            main([
                "analyze", "--transitions", str(tmp_path / "t.jsonl"),
                "--targets", registry_file, "--out", str(tmp_path / "r.json"), *flag,
            ])
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments: " + flag[0] in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_target_missing_from_the_registry_exits_not_found(self, tmp_path, capsys):
        tfile = _transitions_file(tmp_path, json.dumps(_RECORD))
        targets = _file(tmp_path / "bob.jsonl", '{"id": "bob", "lat": 0.0, "lon": 0.0}\n')
        out = tmp_path / "r.json"
        code = main(["analyze", "--transitions", tfile, "--targets", targets, "--out", str(out)])
        assert code == EXIT_NOT_FOUND
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert errors == ["error: target 'alice' not in registry"]
        assert not out.exists()

    def test_non_object_line_is_a_bad_transitions_file(self, tmp_path, registry_file, capsys):
        tfile = tmp_path / "t.jsonl"
        tfile.write_text('{"type": "meta", "target": "alice"}\n[1, 2]\n')
        code = main([
            "analyze", "--transitions", str(tfile),
            "--targets", registry_file, "--out", str(tmp_path / "r.json"),
        ])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "bad transitions file" in err and ":2:" in err


@contextlib.contextmanager
def _serve_process(registry_file: str, bind: str):
    """`proxilab serve` as a child process, killed on leaving the block if it
    still runs. Its output is unbuffered, so the "serving ..." line can be
    read while it runs, and it gets SIGINT as a KeyboardInterrupt even where
    the test run's own SIGINT is ignored."""
    with subprocess.Popen(
        [sys.executable, "-m", "proxilab.cli", "serve", "--targets", registry_file, "--bind", bind],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=child_env(PYTHONUNBUFFERED="1"),
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    ) as proc:
        try:
            yield proc
        finally:
            proc.kill()  # sends nothing once the process has exited


class TestServe:
    def test_process_answers_then_exits_0_on_sigint_and_frees_its_port(self, registry_file):
        with _serve_process(registry_file, "127.0.0.1:0") as proc:
            line = proc.stdout.readline()
            assert line.startswith("serving 1 target(s) on 127.0.0.1:")
            port = int(line.rstrip("\n").rpartition(":")[2])
            # An answer means the serve loop runs, so SIGINT reaches it there.
            with TcpClient("127.0.0.1", port, "finder", timeout=5.0) as client:
                assert client.search(GeoPoint(0.0, 0.0), 0.0) == [("alice", INNER_CLASS_M)]
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=10.0) == EXIT_OK
            assert proc.stderr.read() == ""
        # Another server can listen on the port again.
        with socket.socket() as sock:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind(("127.0.0.1", port))
            sock.listen()

    def test_process_on_a_port_in_use_exits_with_one_error_line(self, registry_file):
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen()
            with _serve_process(registry_file, f"127.0.0.1:{busy.getsockname()[1]}") as proc:
                out, err = proc.communicate(timeout=30.0)
        assert proc.returncode == EXIT_CONFIG
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_malformed_registry_exits_nonzero_with_line_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "x", "lat": 1, "lon": 2}\n{broken\n')
        code = main(["serve", "--targets", str(bad), "--bind", "127.0.0.1:0"])
        assert code == EXIT_CONFIG
        assert ":2:" in capsys.readouterr().err

    def test_empty_registry_warns_but_serves(self, tmp_path, capsys):
        from proxilab.cli import build_parser, build_server

        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        args = build_parser().parse_args(
            ["serve", "--targets", str(empty), "--bind", "127.0.0.1:0"]
        )
        server = build_server(args)
        try:
            assert server.address[1] > 0
        finally:
            server.stop()
        assert "empty" in capsys.readouterr().err

    def test_ten_city_registry_registers_all_targets(self, tmp_path, capsys):
        from proxilab.analysis import SWEEP_CITIES
        from proxilab.cli import build_parser, build_server

        registry = tmp_path / "cities.jsonl"
        registry.write_text(
            "".join(
                json.dumps({"id": name, "lat": lat, "lon": lon}) + "\n"
                for name, lat, lon in SWEEP_CITIES
            )
        )
        args = build_parser().parse_args(
            ["serve", "--targets", str(registry), "--bind", "127.0.0.1:0"]
        )
        server = build_server(args)
        server.stop()
        assert "serving 10 target(s)" in capsys.readouterr().out

    def test_seed_is_a_usage_error(self, registry_file, capsys):
        # The server has no randomness, so a seed could only be silently ignored.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["serve", "--targets", registry_file, "--bind", "127.0.0.1:0", "--seed", "9"]
            )
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments: --seed" in capsys.readouterr().err

    def test_admission_is_a_usage_error(self, registry_file, capsys):
        # Standard admission is the service's only policy.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["serve", "--targets", registry_file, "--bind", "127.0.0.1:0", "--admission", "anchored"]
            )
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments: --admission" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--speed-limit", "nan"),
        ("--speed-limit", "inf"),
        ("--speed-limit", "0"),
        ("--grid-deg", "nan"),
        ("--quota", "0"),
    ])
    def test_bad_numeric_flag_is_a_usage_error(self, registry_file, flag, value, capsys):
        # A NaN speed limit would never trip the ban: `d > nan` is false.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["serve", "--targets", registry_file, "--bind", "127.0.0.1:0", flag, value]
            )
        assert exc.value.code == EXIT_CONFIG
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and f"argument {flag}:" in errors[0]


def _file(path, text: str) -> str:
    path.write_text(text)
    return str(path)


_RECORD = {"target": "alice", "inside": [0.0, 0.0], "outside": [0.0, 0.0], "bearing": 0.0, "dir": "OUT", "queries": 1}


def _transitions_file(tmp_path, line: str) -> str:
    """A meta record, then `line` as line 2."""
    return _file(tmp_path / "t.jsonl", '{"type": "meta", "target": "alice"}\n' + line + "\n")


def _transitions_with_inside(tmp_path, inside) -> str:
    return _transitions_file(tmp_path, json.dumps({**_RECORD, "inside": inside}))


def _attack_with(*flags):
    """argv builder for an attack on the registry fixture with extra flags."""
    return lambda tmp, reg: ["attack", "--targets", reg, "--target", "alice", *flags,
                             "--out", str(tmp / "t.jsonl")]


def _sweep_with(*flags):
    return lambda tmp, reg: ["sweep", *flags, "--out", str(tmp / "s.csv")]


@functools.cache
def _silent_endpoint() -> str:
    """host:port of a socket that listens and never answers: a connection
    to it completes in the listen backlog. Opened on first use and closed
    at exit, since a BAD_INPUTS argv builder cannot take a fixture."""
    sock = socket.create_server(("127.0.0.1", 0))
    atexit.register(sock.close)
    return "%s:%d" % sock.getsockname()


# A JSON integer too large for a float, and one past int's digit limit.
_HUGE_INT = "1" + "0" * 400
_OVERLONG_INT = "1" + "0" * 5_000
# Arrays nested past the interpreter's recursion limit.
_NESTED = "[" * 100_000


# Each case builds argv from (tmp_path, registry_file) and names a fragment
# its one error line must hold.
BAD_INPUTS = [
    pytest.param(
        lambda tmp, reg: ["attack", "--targets", _file(tmp / "polar.jsonl", '{"id": "alice", "lat": %r, "lon": %r}\n' % POLAR_TARGET),
                          "--target", "alice", "--seed", "0", "--out", str(tmp / "t.jsonl")],
        "outside the service's domain", id="walk-past-the-mercator-limit",
    ),
    pytest.param(_attack_with("--hint", "86,0"), "outside the service's domain", id="hint-past-the-mercator-limit"),
    # The walker's polar defect: a class outside the 500/1000 pair mid-walk.
    pytest.param(
        lambda tmp, reg: ["attack", "--targets", _file(tmp / "t80.jsonl", '{"id": "alice", "lat": 80.0, "lon": 0.0}\n'),
                          "--target", "alice", "--seed", "5", "--out", str(tmp / "t.jsonl")],
        "walk got an unexpected class: class 2000", id="inconsistent-walk-at-80",
    ),
    pytest.param(
        lambda tmp, reg: ["attack", "--targets", _file(tmp / "t82.jsonl", '{"id": "alice", "lat": 82.0, "lon": 0.0}\n'),
                          "--target", "alice", "--seed", "1", "--out", str(tmp / "t.jsonl")],
        "walk got an unexpected class: class 2000", id="inconsistent-walk-at-82",
    ),
    pytest.param(
        lambda tmp, reg: ["analyze", "--transitions", _transitions_file(tmp, json.dumps(_RECORD)),
                          "--targets", _file(tmp / "far.jsonl", '{"id": "alice", "lat": 1.0, "lon": 0.0}\n'),
                          "--out", str(tmp / "r.json")],
        "far from the registry position", id="transitions-far-from-registry-position",
    ),
    pytest.param(
        lambda tmp, reg: ["attack", "--targets", reg, "--target", "alice", "--hint", "0,inf",
                          "--out", str(tmp / "t.jsonl")],
        "--hint", id="non-finite-hint-lon",
    ),
    pytest.param(
        lambda tmp, reg: ["attack", "--targets", _file(tmp / "inf.jsonl", '{"id": "alice", "lat": 0, "lon": Infinity}\n'),
                          "--target", "alice", "--out", str(tmp / "t.jsonl")],
        "inf.jsonl:1: longitude inf is not finite", id="non-finite-registry-lon",
    ),
    pytest.param(
        lambda tmp, reg: ["serve", "--targets", reg, "--bind", "127.0.0.1:99999"],
        "--bind", id="port-above-65535",
    ),
    pytest.param(
        lambda tmp, reg: ["analyze", "--transitions", _transitions_with_inside(tmp, 5),
                          "--targets", reg, "--out", str(tmp / "r.json")],
        "t.jsonl:2:", id="scalar-transition-point",
    ),
    pytest.param(
        lambda tmp, reg: ["analyze", "--transitions", _transitions_with_inside(tmp, ["a", "b"]),
                          "--targets", reg, "--out", str(tmp / "r.json")],
        "t.jsonl:2:", id="non-numeric-transition-point",
    ),
    pytest.param(
        lambda tmp, reg: ["analyze", "--transitions", _transitions_with_inside(tmp, [95.0, 0.0]),
                          "--targets", reg, "--out", str(tmp / "r.json")],
        "t.jsonl:2: inside: latitude 95.0", id="out-of-range-transition-lat",
    ),
    pytest.param(
        lambda tmp, reg: ["attack", "--targets", _file(tmp / "big.jsonl", f'{{"id": "alice", "lat": 0, "lon": {_HUGE_INT}}}\n'),
                          "--target", "alice", "--out", str(tmp / "t.jsonl")],
        "big.jsonl:1: lat and lon must be numbers", id="huge-int-registry-lon",
    ),
    pytest.param(
        lambda tmp, reg: ["attack", "--targets", _file(tmp / "long.jsonl", f'{{"id": "alice", "lat": 0, "lon": {_OVERLONG_INT}}}\n'),
                          "--target", "alice", "--out", str(tmp / "t.jsonl")],
        "long.jsonl:1:", id="overlong-int-registry-lon",
    ),
    pytest.param(
        lambda tmp, reg: ["attack", "--targets", _file(tmp / "deep.jsonl", _NESTED + "\n"),
                          "--target", "alice", "--out", str(tmp / "t.jsonl")],
        "deep.jsonl:1: invalid JSON", id="nested-registry-line-attack",
    ),
    pytest.param(
        lambda tmp, reg: ["sweep", "--targets", _file(tmp / "deep.jsonl", _NESTED + "\n"),
                          "--step", "20", "--out", str(tmp / "s.csv")],
        "deep.jsonl:1: invalid JSON", id="nested-registry-line-sweep",
    ),
    pytest.param(
        lambda tmp, reg: ["serve", "--targets", _file(tmp / "deep.jsonl", _NESTED + "\n"),
                          "--bind", "127.0.0.1:0"],
        "deep.jsonl:1: invalid JSON", id="nested-registry-line-serve",
    ),
    pytest.param(
        lambda tmp, reg: ["analyze", "--transitions", _transitions_file(tmp, _NESTED),
                          "--targets", reg, "--out", str(tmp / "r.json")],
        "t.jsonl:2: invalid JSON", id="nested-transitions-line",
    ),
    pytest.param(
        lambda tmp, reg: ["analyze", "--transitions",
                          _transitions_file(tmp, json.dumps(_RECORD) + "\n" + json.dumps({**_RECORD, "target": "bob"})),
                          "--targets", reg, "--out", str(tmp / "r.json")],
        "t.jsonl:3: target 'bob' differs from 'alice'", id="transitions-of-two-targets",
    ),
    pytest.param(
        lambda tmp, reg: ["analyze", "--transitions",
                          _file(tmp / "t.jsonl", json.dumps({"type": "meta", "target": ["alice"]}) + "\n"
                                + json.dumps(_RECORD) + "\n"),
                          "--targets", reg, "--out", str(tmp / "r.json")],
        "t.jsonl:1: target must be a non-empty string", id="list-transitions-target",
    ),
    pytest.param(
        lambda tmp, reg: ["attack", "--endpoint", _silent_endpoint(), "--target", "alice",
                          "--out", str(tmp / "t.jsonl")],
        "--hint required", id="endpoint-without-hint",
    ),
    pytest.param(
        lambda tmp, reg: ["analyze", "--transitions", _transitions_file(tmp, json.dumps(_RECORD)),
                          "--targets", str(tmp / "nope.jsonl"), "--out", str(tmp / "r.json")],
        "cannot read registry", id="analyze-missing-registry",
    ),
    pytest.param(
        lambda tmp, reg: ["analyze", "--transitions", _transitions_file(tmp, json.dumps(_RECORD) + "\n" + json.dumps(_RECORD)),
                          "--targets", reg, "--out", str(tmp / "r.json")],
        "need >= 4 transitions, have 2", id="two-transitions",
    ),
    pytest.param(_attack_with("--accuracy", "nan"), "--accuracy", id="nan-accuracy"),
    pytest.param(_attack_with("--accuracy", "inf"), "--accuracy", id="inf-accuracy"),
    pytest.param(_attack_with("--accuracy", "-1"), "--accuracy", id="negative-accuracy"),
    pytest.param(_attack_with("--jump", "inf"), "--jump", id="inf-jump"),
    pytest.param(_attack_with("--jump", "nan"), "--jump", id="nan-jump"),
    pytest.param(_attack_with("--jump", "0"), "--jump", id="zero-jump"),
    pytest.param(_attack_with("--accuracy", "50", "--jump", "50"), "jump must exceed accuracy",
                 id="jump-not-above-accuracy"),
    pytest.param(_attack_with("--grid-deg", "nan"), "--grid-deg", id="nan-grid"),
    pytest.param(_attack_with("--grid-deg", "inf"), "--grid-deg", id="inf-grid"),
    pytest.param(_attack_with("--grid-deg", "0"), "--grid-deg", id="zero-grid"),
    pytest.param(_attack_with("--grid-deg", "-0.005"), "--grid-deg", id="negative-grid"),
    pytest.param(_attack_with("--transitions", "0"), "--transitions", id="zero-transitions"),
    pytest.param(_attack_with("--account", ""), "--account", id="empty-account"),
    pytest.param(_attack_with("--max-queries", "0"), "--max-queries", id="zero-max-queries"),
    pytest.param(_sweep_with("--step", "-10"), "--step", id="negative-step"),
    pytest.param(_sweep_with("--step", "0"), "--step", id="zero-step"),
    pytest.param(_sweep_with("--step", "inf"), "--step", id="inf-step"),
    pytest.param(_sweep_with("--step", "nan"), "--step", id="nan-step"),
    # The tile scan's rung count, 4000 / step, overflows a float here.
    pytest.param(_sweep_with("--step", "1e-310"), "--step", id="subnormal-step"),
    pytest.param(_sweep_with("--grid-deg", "nan"), "--grid-deg", id="nan-sweep-grid"),
    # An --out that cannot be written fails before any query or deployment.
    pytest.param(
        lambda tmp, reg: ["attack", "--targets", reg, "--target", "alice", "--out", str(tmp / "missing" / "t.jsonl")],
        "--out", id="attack-out-in-a-missing-directory",
    ),
    pytest.param(
        lambda tmp, reg: ["analyze", "--transitions", _transitions_file(tmp, json.dumps(_RECORD)),
                          "--targets", reg, "--out", str(tmp / "missing" / "r.json")],
        "--out", id="analyze-out-in-a-missing-directory",
    ),
    pytest.param(
        lambda tmp, reg: ["sweep", "--step", "20", "--out", str(tmp / "missing" / "s.csv")],
        "--out", id="sweep-out-in-a-missing-directory",
    ),
    pytest.param(
        lambda tmp, reg: ["figures", "--runs", "10", "--out", os.path.join(_file(tmp / "plain", ""), "figs")],
        "--out", id="figures-out-under-a-file",
    ),
]


@pytest.mark.parametrize("argv, fragment", BAD_INPUTS)
def test_bad_input_exits_with_one_error_line(tmp_path, registry_file, argv, fragment, capsys):
    # Any exception other than argparse's SystemExit fails the test, so no
    # case can end in a traceback.
    try:
        code = main(argv(tmp_path, registry_file))
    except SystemExit as exc:
        code = exc.code
    assert code == EXIT_CONFIG
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and fragment in errors[0]


@pytest.mark.parametrize("argv, fragment", BAD_INPUTS)
def test_bad_input_writes_no_output(tmp_path, registry_file, argv, fragment):
    args = argv(tmp_path, registry_file)
    try:
        main(args)
    except SystemExit:
        pass
    if "--out" in args:
        assert not os.path.exists(args[args.index("--out") + 1])


def test_figures_out_an_existing_file_exits_with_config_error(tmp_path, capsys):
    out = tmp_path / "figs"
    out.write_text("kept\n")
    assert main(["figures", "--runs", "10", "--out", str(out)]) == EXIT_CONFIG
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "--out" in errors[0]
    assert out.read_text() == "kept\n"


@pytest.mark.parametrize("line", [
    pytest.param('{"target": "alice", "inside": [0.0, 0.0],', id="invalid-json"),
    pytest.param(json.dumps({k: v for k, v in _RECORD.items() if k != "bearing"}), id="missing-field"),
    pytest.param(json.dumps({**_RECORD, "dir": "SIDEWAYS"}), id="unknown-dir"),
    pytest.param(json.dumps({**_RECORD, "bearing": "north"}), id="non-number-bearing"),
    pytest.param(json.dumps({**_RECORD, "queries": 1.5}), id="non-int-queries"),
    pytest.param(json.dumps({**_RECORD, "queries": True}), id="bool-queries"),
    pytest.param(json.dumps({**_RECORD, "queries": -3}), id="negative-queries"),
    pytest.param(json.dumps({**_RECORD, "target": ["alice"]}), id="list-target"),
    pytest.param(json.dumps({**_RECORD, "target": 7}), id="number-target"),
    pytest.param(json.dumps({**_RECORD, "target": "bob"}), id="other-target"),
    pytest.param(json.dumps({**_RECORD, "inside": [True, 0.0]}), id="bool-transition-lat"),
    pytest.param(json.dumps({**_RECORD, "outside": [0.0, 10**400]}), id="huge-int-transition-lon"),
    pytest.param(json.dumps({**_RECORD, "bearing": 10**400}), id="huge-int-bearing"),
    pytest.param(json.dumps(_RECORD).replace('"bearing": 0.0', f'"bearing": {_OVERLONG_INT}'),
                 id="overlong-int-bearing"),
])
def test_malformed_transition_record_names_path_and_line(tmp_path, registry_file, line, capsys):
    tfile = _transitions_file(tmp_path, line)
    code = main(["analyze", "--transitions", tfile, "--targets", registry_file, "--out", str(tmp_path / "r.json")])
    assert code == EXIT_CONFIG
    errors = [msg for msg in capsys.readouterr().err.splitlines() if "error:" in msg]
    assert len(errors) == 1 and f"{tfile}:2:" in errors[0]


@pytest.mark.parametrize("fields", [
    pytest.param({"total_queries": "lots"}, id="string-total-queries"),
    pytest.param({"exploration_queries": None}, id="null-exploration-queries"),
    pytest.param({"total_queries": -1}, id="negative-total-queries"),
    pytest.param({"exploration_queries": True}, id="bool-exploration-queries"),
    pytest.param({"budget_exhausted": 0}, id="int-budget-exhausted"),
])
def test_malformed_meta_record_names_path_and_line(tmp_path, registry_file, fields, capsys):
    meta = json.dumps({"type": "meta", "target": "alice", **fields})
    tfile = _file(tmp_path / "t.jsonl", meta + "\n" + json.dumps(_RECORD) + "\n")
    code = main(["analyze", "--transitions", tfile, "--targets", registry_file, "--out", str(tmp_path / "r.json")])
    assert code == EXIT_CONFIG
    errors = [msg for msg in capsys.readouterr().err.splitlines() if "error:" in msg]
    assert len(errors) == 1 and f"{tfile}:1:" in errors[0]


class TestSweep:
    def test_two_city_sweep_csv(self, tmp_path):
        cities = tmp_path / "cities.jsonl"
        cities.write_text(
            '{"id": "Doha", "lat": 25.26174, "lon": 51.359269}\n'
            '{"id": "Utqiagvik", "lat": 71.300602, "lon": -156.754113}\n'
        )
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--targets", str(cities), "--out", str(out), "--seed", "0"])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[1] == "name,lat,lon,l_m,D_m,shape"
        rows = {line.split(",")[0]: line.split(",") for line in lines[2:]}
        assert float(rows["Doha"][4]) == pytest.approx(356.0, abs=15.0)
        assert float(rows["Utqiagvik"][4]) == pytest.approx(126.0, abs=15.0)

    def test_empty_locations_file_writes_only_the_header(self, tmp_path, capsys):
        # No rows to run, so no worker either.
        cities = tmp_path / "cities.jsonl"
        cities.write_text("")
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--targets", str(cities), "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 2 and lines[0].startswith("# config ")
        assert lines[1] == "name,lat,lon,l_m,D_m,shape"
        assert capsys.readouterr().out == f"0 location(s) -> {out}\n"
        assert multiprocessing.active_children() == []

    # At 0.1 deg the lab's search meets a class beyond 1000 m past the
    # one-cell region; at 30 deg it mostly spends its query budget first.
    @pytest.mark.parametrize("grid_deg", ["0.1", "30"])
    def test_coarse_grid_rows_fail_with_one_warning_each(self, tmp_path, grid_deg, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--grid-deg", grid_deg, "--out", str(out)]) == EXIT_OK
        warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning: ")]
        assert [line.split(":")[1].strip() for line in warnings] == [name for name, _, _ in SWEEP_CITIES]
        rows = list(csv.reader(out.read_text().splitlines()[2:]))
        assert [(r[3], r[4], r[5]) for r in rows] == [("", "", "Unknown")] * len(SWEEP_CITIES)

    def test_rerun_is_byte_identical(self, tmp_path):
        cities = tmp_path / "cities.jsonl"
        cities.write_text('{"id": "Doha", "lat": 25.26174, "lon": 51.359269}\n')
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        main(["sweep", "--targets", str(cities), "--out", str(out1), "--seed", "3"])
        main(["sweep", "--targets", str(cities), "--out", str(out2), "--seed", "3"])
        assert out1.read_bytes() == out2.read_bytes()


class TestFigures:
    def test_canned_outputs(self, tmp_path):
        out = tmp_path / "figs"
        code = main(["figures", "--out", str(out), "--runs", "25"])
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        # the canned equator walk reaches all four tips of the plus shape
        report = json.loads((out / "walk_report.json").read_text())["report"]
        for edge in (report["rect"]["x_M"], -report["rect"]["x_m"], report["rect"]["y_M"], -report["rect"]["y_m"]):
            assert edge == pytest.approx(835.0, abs=10.0)
        assert summary["shapes"]["low"]["shape"] == "Cross"
        assert summary["shapes"]["mid"]["shape"] == "Square"
        ratio = summary["uncertainty_ratio"]["cell_to_box_area_ratio"]
        assert ratio == pytest.approx(1.0 / 9.0, rel=0.05)
        sweep_d = [row["D_m"] for row in summary["sweep"]]
        assert all(a > b for a, b in zip(sweep_d, sweep_d[1:]))
        assert (out / "edge_offset_x_ecdf.csv").exists()
        assert (out / "radius_ecdf.csv").exists()
        assert (out / "tile_shifts.csv").exists()

    @pytest.mark.parametrize("step, rows", [("10", 26), ("0.01", PLOT_LADDER_RUNGS + 1)])
    def test_plot_ladder_rung_count_is_bounded(self, tmp_path, step, rows):
        # Rungs ten steps apart at the default step; a small step still
        # gives no more than PLOT_LADDER_RUNGS past the base.
        out = tmp_path / "figs"
        assert main(["figures", "--runs", "10", "--step", step, "--out", str(out)]) == EXIT_OK
        lines = (out / "tile_shifts.csv").read_text().splitlines()
        assert lines[1] == "offset_m,boundary_m"
        assert len(lines) - 2 == rows

    def test_failed_tile_scan_is_written_as_nulls(self, tmp_path):
        # A 3 km step sees fewer than two boundary shifts within the scan's
        # span, so the sweep's first row, and with it the tile estimate, fails.
        out = tmp_path / "figs"
        assert main(["figures", "--runs", "10", "--step", "3000", "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["tile_estimate"] == {"name": "Kourou", "l_m": None, "D_m": None}

    def test_failed_sweep_rows_are_warned_about(self, tmp_path, capsys):
        out = tmp_path / "figs"
        assert main(["figures", "--runs", "25", "--step", "3000", "--out", str(out)]) == EXIT_OK
        warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning: ")]
        assert [line.split(":")[1].strip() for line in warnings] == [name for name, _, _ in SWEEP_CITIES]


    @pytest.mark.parametrize("runs", ["0", "-3", "9"])
    def test_runs_below_ten_is_a_usage_error(self, tmp_path, runs, monkeypatch, capsys):
        # Ten runs give the 20 edge samples per axis a uniform fit needs.
        deployments = []
        monkeypatch.setattr(analysis, "run_probe_deployment", lambda *args, **kw: deployments.append(args))
        with pytest.raises(SystemExit) as exc:
            main(["figures", "--runs", runs, "--out", str(tmp_path / "figs")])
        assert exc.value.code == EXIT_CONFIG
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "--runs" in errors[0]
        assert deployments == [] and not (tmp_path / "figs").exists()

    def test_failing_pooled_run_exits_with_one_error_line_and_leaves_no_worker(self, tmp_path, monkeypatch, capsys):
        # Forked workers inherit the patch; pooled run seeds are 0..9 at --seed 0.
        real = analysis.run_probe_deployment

        def run(target, seed=0, grid_deg=DEFAULT_GRID_DEG):
            if seed == 5:
                raise InconsistentOracleError("class 2000 while walking inward")
            return real(target, seed, grid_deg)

        monkeypatch.setattr(analysis, "run_probe_deployment", run)
        assert main(["figures", "--runs", "10", "--seed", "0", "--out", str(tmp_path / "figs")]) == EXIT_CONFIG
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "class 2000 while walking inward" in errors[0]
        assert multiprocessing.active_children() == []
        assert os.listdir(tmp_path / "figs") == []

    # The equator walk fails at each pitch: at 0.1 deg its crossings are too
    # few for a box, at 0.05 and 0.0005 deg it sees a class outside the
    # 500/1000 pair. BAD_INPUTS cannot hold these, since figures creates
    # --out before any deployment.
    @pytest.mark.parametrize("grid_deg, fragment", [
        ("0.1", "need >= 4 transitions"),
        ("0.05", "class 6000 while probing outward"),
        ("0.0005", "class 2000 while walking inward"),
    ])
    def test_failing_canned_walk_exits_with_one_error_line_and_leaves_no_worker(
        self, tmp_path, grid_deg, fragment, capsys
    ):
        argv = ["figures", "--runs", "10", "--grid-deg", grid_deg, "--out", str(tmp_path / "figs")]
        assert main(argv) == EXIT_CONFIG
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and errors[0].startswith("error: figures: ") and fragment in errors[0]
        assert multiprocessing.active_children() == []
        assert os.listdir(tmp_path / "figs") == []

    def test_pooled_runs_match_a_serial_loop(self, tmp_path, monkeypatch):
        """The four ECDF files, `sweep.csv` and the summary distributions and
        sweep fields of `figures --runs 25 --seed 3`, and the CSV of `sweep
        --step 20 --seed 3`, on two workers and on one equal those of a plain
        loop over the same deployments and rows, so the pool keeps the
        order of both."""
        names = ("edge_offset_x_ecdf.csv", "edge_offset_y_ecdf.csv", "radius_ecdf.csv", "phase_ecdf.csv")
        serial = tmp_path / "serial"
        serial.mkdir()
        rng_pool = random.Random(3)
        rects = []
        for k in range(25):
            target = GeoPoint(23.0 + rng_pool.uniform(-0.02, 0.02), 10.0 + rng_pool.uniform(-0.05, 0.05))
            tset, _ = analysis.run_probe_deployment(target, seed=3 * 100_003 + k)
            try:
                rects.append(analysis.bounding_box(tset, target))
            except analysis.InsufficientCoverageError:
                continue
        phasors = [analysis.phasor((0.0, 0.0), analysis.centroid(r)) for r in rects]
        d_x, d_y = analysis.edge_offsets(rects)
        rho = [p.rho for p in phasors]
        config = ExperimentConfig(seed=3).to_dict()
        for name, samples in zip(names, (d_x, d_y, rho, [p.phase for p in phasors])):
            analysis.write_ecdf_csv(str(serial / name), analysis.ecdf(samples), config=config)
        rows = [analysis.sweep_row(city, step=DEFAULT_STEP_M, seed=3) for city in SWEEP_CITIES]
        analysis.write_sweep_csv(str(serial / "sweep.csv"), rows, config=config)
        rows_20 = [analysis.sweep_row(city, step=20.0, seed=3) for city in SWEEP_CITIES]
        analysis.write_sweep_csv(
            str(serial / "sweep-20.csv"), rows_20, config=ExperimentConfig(seed=3, step=20.0).to_dict()
        )
        expected = {
            "distributions": {
                "runs_used": len(rects),
                "edge_x_fit": list(analysis.fit_uniform(d_x)),
                "edge_y_fit": list(analysis.fit_uniform(d_y)),
                "p_rho_le_200": sum(1 for r in rho if r <= 200.0) / len(rho),
            },
            "tile_estimate": {"name": rows[0].name, "l_m": rows[0].tile_size_m, "D_m": rows[0].max_error_m},
            "sweep": [
                {"name": r.name, "lat": r.lat, "l_m": r.tile_size_m, "D_m": r.max_error_m, "shape": r.shape}
                for r in rows
            ],
            **{name: (serial / name).read_bytes() for name in (*names, "sweep.csv", "sweep-20.csv")},
        }
        for cpus in ({0, 1}, {0}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            out = tmp_path / f"pooled-{len(cpus)}"
            assert main(["figures", "--runs", "25", "--seed", "3", "--out", str(out)]) == EXIT_OK
            assert main(["sweep", "--step", "20", "--seed", "3", "--out", str(out / "sweep-20.csv")]) == EXIT_OK
            summary = json.loads((out / "summary.json").read_text())
            got = {
                **{key: summary[key] for key in ("distributions", "tile_estimate", "sweep")},
                **{name: (out / name).read_bytes() for name in (*names, "sweep.csv", "sweep-20.csv")},
            }
            assert got == expected
            assert multiprocessing.active_children() == []


class TestFlagsReachConsumers:
    def test_sweep_header_echoes_every_field(self, tmp_path):
        cities = tmp_path / "cities.jsonl"
        cities.write_text('{"id": "Doha", "lat": 25.26174, "lon": 51.359269}\n')
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--targets", str(cities), "--step", "20", "--seed", "4", "--out", str(out)])
        assert code == EXIT_OK
        header = out.read_text().splitlines()[0]
        assert header.startswith("# config ")
        cfg = json.loads(header[len("# config "):])
        assert set(cfg) == CONFIG_KEYS
        assert cfg == {
            "seed": 4,
            "grid_deg": DEFAULT_GRID_DEG,
            "quota": DEFAULT_DAILY_QUOTA,
            "speed_limit": DEFAULT_SPEED_LIMIT_MPS,
            "accuracy": ProbeConfig().accuracy,
            "jump": ProbeConfig().jump,
            "max_queries": ProbeConfig().max_queries,
            "transitions": DEFAULT_TRANSITIONS,
            "step": 20.0,
        }

    def test_attack_meta_echoes_every_field(self, tmp_path, registry_file):
        code, out = run_attack(tmp_path, registry_file, "t.jsonl", extra=[
            "--accuracy", "8", "--jump", "120", "--max-queries", "900",
            "--transitions", "6", "--grid-deg", "0.004",
        ])
        assert code == EXIT_OK
        cfg = json.loads(out.read_text().splitlines()[0])["config"]
        assert set(cfg) == CONFIG_KEYS
        assert cfg == {
            "seed": 0,
            "grid_deg": 0.004,
            "quota": DEFAULT_DAILY_QUOTA,
            "speed_limit": DEFAULT_SPEED_LIMIT_MPS,
            "accuracy": 8.0,
            "jump": 120.0,
            "max_queries": 900,
            "transitions": 6,
            "step": DEFAULT_STEP_M,
        }

    def test_serve_quota_reaches_the_service(self, registry_file):
        args = build_parser().parse_args(
            ["serve", "--targets", registry_file, "--bind", "127.0.0.1:0", "--quota", "1"]
        )
        server = build_server(args)
        server.start()
        try:
            with TcpClient(*server.address, "finder", timeout=5.0) as client:
                client.search(GeoPoint(0.0, 0.0), 0.0)
                with pytest.raises(FloodWaitError):
                    client.search(GeoPoint(0.0, 0.0), 1.0)
        finally:
            server.stop()


# sha256 of every file that `sweep --step 20 --seed 0` and `figures --runs 10
# --seed 0` write: a change anywhere in the lab harness (the tile-size ladder,
# the sweep rows, the pooled deployments, the CSV and JSON writers) that moves
# one byte of an output fails here.
GOLDEN_SWEEP = "687be2fa638f72cb67c8da5c1d5defe696e7bd0a3015cf6b63cd05f9b1e7cc07"
GOLDEN_FIGURES = {
    "edge_offset_x_ecdf.csv": "42ffc3c901bb82be5824f41461ea6c0491af3850435a31e521effbb36e5a287c",
    "edge_offset_y_ecdf.csv": "16c05a69aebcc9aa2465b1f95c1de21115b6e93991866d0f5c1df4bd24e758d6",
    "phase_ecdf.csv": "05e1338413e05a94f1c1e6d435219e96285a7b1769eec31289adbd858eee2d81",
    "radius_ecdf.csv": "f78a3c7718e5895364dc5972e256c33dbee744c7240370187d08436199f0151c",
    "summary.json": "e3b4a012c8127ed0fb5b116719b8d4d225a0f1b04c2eaac66757c03ebb27b827",
    "sweep.csv": "23781cdef46d7e7af6fe7f79afd65ac5d15bf4d46178781fd9d3d2d44f9260e2",
    "tile_shifts.csv": "0f70e36e70ce7d0e30b9f17007338ad64ff566fcec3bc2b11c14162ea10888df",
    "walk_report.json": "f0c4b55bde766fe30386af9e39fd212c746c622a298859ee41dff036c636420f",
    "walk_transitions.jsonl": "6acccdd97735c0258bfb8a29b4e7a10e1b8f84eabd53ee063fa8afc716fffe0b",
}
# sha256 of the transitions file that `attack --targets t.jsonl --target t
# --seed N` writes for one target at 23 N, 51.35 E, keyed by N: pins how
# --seed reaches the walker's random draws.
GOLDEN_ATTACK_TARGET = {"id": "t", "lat": 23.0, "lon": 51.35}
GOLDEN_ATTACK = {
    0: "0cb3a6f2e737adfc75dcedc4d1ee1bb7f580b03f48fa90ce61e3d5596673735f",
    3: "12f47950464422b01d90fcf76910c38bff8e09aa16dda2651f5ae07415aa26b6",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestGoldenOutputs:
    def test_sweep_digest(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--step", "20", "--seed", "0", "--out", str(out)]) == EXIT_OK
        assert _sha256(out) == GOLDEN_SWEEP

    def test_figures_digests(self, tmp_path):
        out = tmp_path / "figs"
        assert main(["figures", "--runs", "10", "--seed", "0", "--out", str(out)]) == EXIT_OK
        assert {p.name: _sha256(p) for p in out.iterdir()} == GOLDEN_FIGURES

    @pytest.mark.parametrize("seed", list(GOLDEN_ATTACK))
    def test_attack_digest(self, tmp_path, seed):
        targets = tmp_path / "t.jsonl"
        targets.write_text(json.dumps(GOLDEN_ATTACK_TARGET) + "\n")
        out = tmp_path / "out.jsonl"
        code = main([
            "attack", "--targets", str(targets), "--target", "t",
            "--seed", str(seed), "--out", str(out),
        ])
        assert code == EXIT_OK
        assert _sha256(out) == GOLDEN_ATTACK[seed]
