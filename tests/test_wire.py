"""Wire protocol: codec round-trips, server behavior, client error mapping."""

from __future__ import annotations

import random
import socket
import threading
import time

import pytest

from proxilab import cli
from proxilab.geo import GeoPoint
from proxilab.service import (
    FloodWaitError,
    ProtocolError,
    Quantizer,
    Service,
    SpeedBanError,
    TargetRegistry,
)
from proxilab.wire import (
    MAX_REPLY_BYTES,
    MAX_REQUEST_BYTES,
    ApiServer,
    DecodeError,
    TcpClient,
    decode,
    decode_request,
    encode,
    error_response,
    make_search,
    result_response,
)


def make_service(targets=(("t", GeoPoint(0, 0)),), **kwargs) -> Service:
    registry = TargetRegistry()
    for tid, pos in targets:
        registry.add(tid, pos)
    return Service(registry, Quantizer(), **kwargs)


@pytest.fixture()
def served():
    service = make_service()
    server = ApiServer(service, "127.0.0.1", 0)
    server.start()
    yield server.address, service
    server.stop()


class TestCodec:
    def test_search_round_trip(self):
        msg = make_search("a1", GeoPoint(0.0, 0.0), 0)
        assert decode(encode(msg)) == msg

    def test_doha_coordinates_round_trip(self):
        msg = {"v": 1, "type": "search", "account": "a1", "lat": 25.26174, "lon": 51.359269, "ts": 10}
        assert decode(encode(msg)) == msg
        assert decode_request(encode(msg)) == msg

    def test_junk_line_raises_decode_error(self):
        with pytest.raises(DecodeError):
            decode(b"not json\n")
        with pytest.raises(DecodeError):
            decode_request(encode({"v": 1}))
        with pytest.raises(DecodeError):
            decode_request(encode({"v": 2, "type": "search", "account": "a", "lat": 0, "lon": 0, "ts": 0}))
        with pytest.raises(DecodeError):
            decode_request(b"[1, 2, 3]\n")

    def test_fuzzed_round_trip_1000_messages(self):
        rng = random.Random(1234)
        alphabet = "abcXYZ0189_-é世界"
        for _ in range(1000):
            msg = {
                "v": 1,
                "type": "search",
                "account": "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12))),
                "lat": rng.uniform(-90.0, 90.0),
                "lon": rng.uniform(-1e6, 1e6) if rng.random() < 0.2 else rng.uniform(-180.0, 180.0),
                "ts": rng.choice([rng.randint(0, 10**9), rng.uniform(0, 1e9)]),
            }
            assert decode(encode(msg)) == msg
            assert decode_request(encode(msg)) == msg

    def test_encoding_is_deterministic_bytes(self):
        msg = {"type": "search", "v": 1, "ts": 1.5, "lon": 2.25, "lat": -3.125, "account": "a"}
        assert encode(msg) == encode(dict(reversed(list(msg.items()))))

    def test_error_response_codes(self):
        assert error_response("FLOOD_WAIT", 3.0)["code"] == "FLOOD_WAIT"
        with pytest.raises(ValueError):
            error_response("NO_SUCH_CODE")

    def test_result_entries_shape(self):
        resp = result_response([("t", 500)])
        assert resp["entries"] == [{"id": "t", "class_m": 500}]


class TestServer:
    def test_search_round_trip_over_tcp(self, served):
        (host, port), _ = served
        with TcpClient(host, port, "a") as client:
            assert client.search(GeoPoint(0, 0), 0.0) == [("t", 500)]

    def test_bad_line_gets_bad_request_and_connection_stays_open(self, served):
        (host, port), _ = served
        with TcpClient(host, port, "a") as client:
            resp = client.request_line(b"not json\n")
            assert resp["type"] == "error" and resp["code"] == "BAD_REQUEST"
            # connection still usable
            assert client.search(GeoPoint(0, 0), 0.0) == [("t", 500)]

    def test_over_long_line_gets_one_bad_request_then_close(self, served):
        (host, port), _ = served
        junk = b"x" * (2 * 1024 * 1024)  # no newline anywhere
        assert len(junk) > MAX_REQUEST_BYTES
        with socket.create_connection((host, port), timeout=10.0) as sock:
            try:
                sock.sendall(junk)
            except (BrokenPipeError, ConnectionResetError):
                pass  # the server closed before reading the rest
            with sock.makefile("rb") as rfile:
                assert decode(rfile.readline())["code"] == "BAD_REQUEST"
                try:
                    assert rfile.readline() == b""
                except ConnectionResetError:
                    pass  # closed with the unread rest of the line pending
        with TcpClient(host, port, "a") as client:
            assert client.search(GeoPoint(0, 0), 0.0) == [("t", 500)]

    def test_line_of_max_length_is_answered(self, served):
        (host, port), _ = served
        line = encode(make_search("a", GeoPoint(0, 0), 0.0))
        line = line[:-1] + b" " * (MAX_REQUEST_BYTES - len(line)) + b"\n"
        assert len(line) == MAX_REQUEST_BYTES
        with TcpClient(host, port, "a") as client:
            assert client.request_line(line)["type"] == "result"
            assert client.search(GeoPoint(0, 0), 1.0) == [("t", 500)]

    def test_server_bug_gets_internal_and_connection_stays_open(self, served, monkeypatch, caplog):
        (host, port), _ = served
        real_search = Service.search
        calls = []

        def buggy_once(self, *args):
            calls.append(args)
            if len(calls) == 1:
                raise ZeroDivisionError("injected")
            return real_search(self, *args)

        monkeypatch.setattr(Service, "search", buggy_once)
        with TcpClient(host, port, "a") as client:
            resp = client.request(make_search("a", GeoPoint(0, 0), 0.0))
            assert resp["type"] == "error" and resp["code"] == "INTERNAL"
            assert client.search(GeoPoint(0, 0), 1.0) == [("t", 500)]
        assert any(r.exc_info and r.exc_info[0] is ZeroDivisionError for r in caplog.records)

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_version_other_than_int_1_gets_bad_request(self, served, version):
        msg = {**make_search("a", GeoPoint(0, 0), 0.0), "v": version}
        with pytest.raises(DecodeError, match="unsupported protocol version"):
            decode_request(encode(msg))
        (host, port), _ = served
        with TcpClient(host, port, "a") as client:
            resp = client.request(msg)
            assert resp["type"] == "error" and resp["code"] == "BAD_REQUEST"

    @pytest.mark.parametrize("field, value, reason", [
        ("type", "result", "unsupported request type 'result'"),
        ("account", "", "account must be a non-empty string"),
    ], ids=["type_other_than_search", "empty_account"])
    def test_request_the_server_cannot_serve_gets_bad_request(self, served, field, value, reason):
        msg = {**make_search("a", GeoPoint(0, 0), 0.0), field: value}
        with pytest.raises(DecodeError, match=reason):
            decode_request(encode(msg))
        (host, port), _ = served
        with TcpClient(host, port, "a") as client:
            resp = client.request(msg)
            assert resp["type"] == "error" and resp["code"] == "BAD_REQUEST"
            # connection still usable
            assert client.search(GeoPoint(0, 0), 0.0) == [("t", 500)]

    @pytest.mark.parametrize("field", ["lat", "lon", "ts"])
    def test_int_too_large_for_a_float_gets_bad_request(self, served, field):
        # 400 digits fit well inside MAX_REQUEST_BYTES; a float cannot hold them.
        msg = {**make_search("a", GeoPoint(0, 0), 0.0), field: 10**400}
        with pytest.raises(DecodeError, match=f"{field} must be a number"):
            decode_request(encode(msg))
        (host, port), _ = served
        with TcpClient(host, port, "a") as client:
            resp = client.request(msg)
            assert resp["type"] == "error" and resp["code"] == "BAD_REQUEST"

    def test_non_monotonic_ts_maps_to_bad_request(self, served):
        (host, port), _ = served
        with TcpClient(host, port, "a") as client:
            client.search(GeoPoint(0, 0), 100.0)
            resp = client.request(make_search("a", GeoPoint(0, 0), 50.0))
            assert resp["type"] == "error" and resp["code"] == "BAD_REQUEST"

    def test_repeated_query_byte_identical(self, served):
        (host, port), _ = served
        with TcpClient(host, port, "a") as client:
            first = client.request(make_search("a", GeoPoint(0.001, 0.001), 5.0))
            second = client.request(make_search("a", GeoPoint(0.001, 0.001), 5.0))
            assert encode(first) == encode(second)

    def test_disjoint_accounts_have_independent_quotas(self):
        service = make_service(daily_quota=5)
        with ApiServer(service, "127.0.0.1", 0) as server:
            host, port = server.address
            with TcpClient(host, port, "a") as ca, TcpClient(host, port, "b") as cb:
                for k in range(5):
                    ca.search(GeoPoint(0, 0), float(k))
                with pytest.raises(FloodWaitError):
                    ca.search(GeoPoint(0, 0), 5.0)
                # account b is unaffected
                for k in range(5):
                    cb.search(GeoPoint(0, 0), float(k))

    def test_quota_exhaustion_over_tcp_retry_after(self):
        service = make_service(daily_quota=20)
        with ApiServer(service, "127.0.0.1", 0) as server:
            host, port = server.address
            with TcpClient(host, port, "a") as client:
                for k in range(20):
                    client.search(GeoPoint(0, 0), float(k))
                with pytest.raises(FloodWaitError) as ei:
                    client.search(GeoPoint(0, 0), 20.0)
                assert ei.value.retry_after_s > 0

    def test_speed_ban_surfaces_over_tcp(self, served):
        (host, port), _ = served
        with TcpClient(host, port, "racer") as client:
            client.search(GeoPoint(0, 0), 0.0)
            with pytest.raises(SpeedBanError):
                client.search(GeoPoint(0, 0.02), 1.0)

    def test_concurrent_clients_are_isolated(self, served):
        (host, port), _ = served
        errors = []

        def worker(account: str):
            try:
                with TcpClient(host, port, account) as client:
                    expect = [("t", 500)]
                    for k in range(10):
                        got = client.search(GeoPoint(0, 0), float(k))
                        assert got == expect
            except Exception as exc:  # noqa: BLE001 - collected for the assert below
                errors.append((account, exc))

        threads = [threading.Thread(target=worker, args=(f"acct{i}",)) for i in range(20)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []

    def test_a_burst_of_100_connects_is_accepted_at_once(self, served):
        # 100 clients, as many as the acceptance fuzz test starts, connect
        # at one instant. A listen backlog shorter than the burst drops
        # SYNs, and the kernel retries a dropped one a second or more later.
        (host, port), _ = served
        n = 100
        barrier = threading.Barrier(n)
        slow, errors = [], []

        def connect(idx: int) -> None:
            try:
                barrier.wait(timeout=30.0)
                start = time.perf_counter()
                with TcpClient(host, port, f"burst{idx}") as client:
                    took = time.perf_counter() - start
                    if took >= 1.0:
                        slow.append((idx, took))
                    assert client.search(GeoPoint(0, 0), 0.0) == [("t", 500)]
            except Exception as exc:  # noqa: BLE001 - collected for the assert below
                errors.append((idx, exc))

        threads = [threading.Thread(target=connect, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert not any(t.is_alive() for t in threads)
        assert errors == [] and slow == []


    def test_deeply_nested_line_gets_bad_request_not_internal(self, served, caplog):
        # 2,000 nested arrays fit in MAX_REQUEST_BYTES but pass the parser's
        # recursion limit: the client's fault, so no traceback is logged.
        (host, port), _ = served
        with TcpClient(host, port, "a") as client:
            resp = client.request_line(b"[" * 2000 + b"\n")
            assert resp["type"] == "error" and resp["code"] == "BAD_REQUEST"
            assert client.search(GeoPoint(0, 0), 0.0) == [("t", 500)]
        assert not any(r.exc_info for r in caplog.records)


def one_shot_server(reply: bytes, hold_open: bool = False):
    """A stdlib socket server that reads one request line, answers it with
    `reply` and closes, or with hold_open waits for the client to close
    first; returns its address and its thread."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(10.0)  # a test that never connects frees the thread

    def serve():
        with listener, listener.accept()[0] as conn, conn.makefile("rb") as rfile:
            rfile.readline()
            conn.sendall(reply)
            if hold_open:
                conn.settimeout(10.0)
                conn.recv(1)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener.getsockname(), thread


class TestClientResponses:
    @pytest.mark.parametrize(
        "entries",
        [[{"id": "t"}], 5, ["t"]],
        ids=["entry_without_class_m", "entries_not_a_list", "entry_not_an_object"],
    )
    def test_malformed_result_raises_protocol_error(self, entries):
        (host, port), thread = one_shot_server(encode({"v": 1, "type": "result", "entries": entries}))
        with TcpClient(host, port, "a", timeout=10.0) as client:
            with pytest.raises(ProtocolError, match="malformed result"):
                client.search(GeoPoint(0, 0), 0.0)
        thread.join(timeout=10.0)
        assert not thread.is_alive()

    @pytest.mark.parametrize(
        "entry",
        [{"id": 5, "class_m": "500"}, {"id": "t", "class_m": "500"}, {"id": 5, "class_m": 500},
         {"id": "t", "class_m": True}, {"id": "t", "class_m": 500.0}, {"id": None, "class_m": 500}],
        ids=["both_wrong", "class_m_a_string", "id_a_number", "class_m_a_bool", "class_m_a_float", "id_null"],
    )
    def test_entry_of_the_wrong_types_raises_protocol_error(self, entry):
        # Taken as-is, the walker would read the target as not listed.
        (host, port), thread = one_shot_server(encode({"v": 1, "type": "result", "entries": [entry]}))
        with TcpClient(host, port, "a", timeout=10.0) as client:
            with pytest.raises(ProtocolError, match="malformed result entries"):
                client.search(GeoPoint(0, 0), 0.0)
        thread.join(timeout=10.0)
        assert not thread.is_alive()

    def test_reply_of_an_unknown_type_raises_protocol_error(self):
        (host, port), thread = one_shot_server(encode({"v": 1, "type": "pong"}))
        with TcpClient(host, port, "a", timeout=10.0) as client:
            with pytest.raises(ProtocolError, match="unexpected response type 'pong'"):
                client.search(GeoPoint(0, 0), 0.0)
        thread.join(timeout=10.0)
        assert not thread.is_alive()

    def test_int_past_the_digit_limit_is_a_bad_reply(self, tmp_path, capsys):
        # 5,000 digits are past CPython's int-to-str conversion limit, so the
        # parser raises a plain ValueError rather than a JSONDecodeError.
        reply = b'{"entries":[{"class_m":' + b"1" * 5000 + b',"id":"t"}],"type":"result","v":1}\n'
        (host, port), thread = one_shot_server(reply)
        with TcpClient(host, port, "a", timeout=10.0) as client:
            with pytest.raises(DecodeError, match="invalid JSON"):
                client.search(GeoPoint(0, 0), 0.0)
        thread.join(timeout=10.0)
        (host, port), thread = one_shot_server(reply)
        out = tmp_path / "t.jsonl"
        code = cli.main([
            "attack", "--endpoint", f"{host}:{port}", "--target", "t",
            "--hint", "0,0", "--out", str(out),
        ])
        thread.join(timeout=10.0)
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: bad reply from --endpoint") and err.count("\n") == 1
        assert not out.exists()

    def test_reply_past_the_cap_is_a_bad_reply(self, tmp_path, capsys):
        # The client reads at most MAX_REPLY_BYTES of a reply line, so a line
        # that runs on without a newline, on a connection that stays open,
        # ends the attack at once rather than waiting for more bytes.
        (host, port), thread = one_shot_server(b"x" * (MAX_REPLY_BYTES + 1), hold_open=True)
        out = tmp_path / "t.jsonl"
        code = cli.main([
            "attack", "--endpoint", f"{host}:{port}", "--target", "t",
            "--hint", "0,0", "--out", str(out),
        ])
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: bad reply from --endpoint: reply line longer than") and err.count("\n") == 1
        assert not out.exists()

    def test_deeply_nested_reply_raises_decode_error(self):
        (host, port), thread = one_shot_server(b'{"v":' * 3000 + b"1" + b"}" * 3000 + b"\n")
        with TcpClient(host, port, "a", timeout=10.0) as client:
            with pytest.raises(DecodeError, match="invalid JSON"):
                client.search(GeoPoint(0, 0), 0.0)
        thread.join(timeout=10.0)
        assert not thread.is_alive()
