"""Wire protocol: codec round-trips, server behavior, client error mapping."""

from __future__ import annotations

import random
import socket
import threading

import pytest

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


def one_shot_server(reply: bytes):
    """A stdlib socket server that reads one request line, answers it with
    `reply` and closes; returns its address and its thread."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(10.0)  # a test that never connects frees the thread

    def serve():
        with listener, listener.accept()[0] as conn, conn.makefile("rb") as rfile:
            rfile.readline()
            conn.sendall(reply)

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
