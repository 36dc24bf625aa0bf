"""Newline-delimited JSON protocol over TCP.

One request line in, one response line out. Messages are encoded with
sorted keys and compact separators so identical logical responses are
byte-identical on the wire. Client timestamps carry the virtual clock; the
server never consults its own.
"""

from __future__ import annotations

import contextlib
import json
import logging
import math
import socket
import socketserver
import threading

from .geo import GeoPoint, ProjectionDomainError, _point, is_number
from .service import (
    FloodWaitError,
    ProtocolError,
    QueryRejected,
    Service,
    SpeedBanError,
)

PROTOCOL_VERSION = 1
DEFAULT_BIND = ("127.0.0.1", 7878)
REQUEST_FIELDS = {"v", "type", "account", "lat", "lon", "ts"}
# Longest request line, newline included, the server reads; a search request
# is about 100 bytes plus its account name.
MAX_REQUEST_BYTES = 4096
# Longest reply line, newline included, the client reads: a full listing of
# DEFAULT_MAX_RESULTS entries is a few kB.
MAX_REPLY_BYTES = 1 << 20
_CODE_TO_ERROR = {exc.code: exc for exc in (FloodWaitError, SpeedBanError)}
# BAD_REQUEST is the client's fault, INTERNAL the server's.
ERROR_CODES = ("BAD_REQUEST", "INTERNAL", *_CODE_TO_ERROR)

_log = logging.getLogger(__name__)
# One encoder for every message: json.dumps with keyword arguments would
# build a new one per call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)
# The two hot messages, written in _ENCODER's layout (sorted keys, compact
# separators) from a template; `encode` fills them field by field.
_RESULT_FIELDS = {"v", "type", "entries"}
_ENTRY_FIELDS = {"id", "class_m"}
_SEARCH_LINE = '{"account":%s,"lat":%s,"lon":%s,"ts":%s,"type":%s,"v":%s}\n'
_RESULT_LINE = '{"entries":[%s],"type":%s,"v":%s}\n'
_ENTRY = '{"class_m":%s,"id":%s}'
# What the ensure_ascii encoder writes for a str.
_quote = json.encoder.encode_basestring_ascii
# The C scanner that json.loads drives, called without its Python wrapper.
_scan = json.decoder.JSONDecoder().scan_once
_skip_space = json.decoder.WHITESPACE.match


class DecodeError(ValueError):
    """Line could not be decoded into a valid protocol message."""


def _value(v) -> str:
    """A field value as _ENCODER writes it inside a message: an exact int
    or a finite float is its repr; anything else (a bool, NaN, a nested
    object) goes to _ENCODER, which writes it or raises as it would have."""
    if type(v) is int or (type(v) is float and math.isfinite(v)):
        return repr(v)
    return _ENCODER.encode(v)


def encode(msg: dict) -> bytes:
    """One message per line, deterministic byte layout.

    A search request or a result listing whose string fields are str is
    written from its template, fields in sorted-key order so that the first
    bad value raises as _ENCODER would; every other message goes to
    _ENCODER. The bytes are the same either way."""
    if type(msg) is dict:
        keys = msg.keys()
        if keys == REQUEST_FIELDS:
            account, kind = msg["account"], msg["type"]
            if type(account) is str and type(kind) is str:
                return (_SEARCH_LINE % (
                    _quote(account), _value(msg["lat"]), _value(msg["lon"]),
                    _value(msg["ts"]), _quote(kind), _value(msg["v"]),
                )).encode("ascii")
        elif keys == _RESULT_FIELDS:
            entries, kind = msg["entries"], msg["type"]
            if type(entries) is list and type(kind) is str:
                parts = []
                for e in entries:
                    if type(e) is not dict or e.keys() != _ENTRY_FIELDS or type(e["id"]) is not str:
                        break
                    parts.append(_ENTRY % (_value(e["class_m"]), _quote(e["id"])))
                else:
                    return (_RESULT_LINE % (",".join(parts), _quote(kind), _value(msg["v"]))).encode("ascii")
    return (_ENCODER.encode(msg) + "\n").encode("utf-8")


def decode(line: bytes | str) -> dict:
    """Parse one line into a message dict; raises DecodeError on junk,
    with json.loads's message."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DecodeError("not valid UTF-8") from exc
    try:
        msg, end = _scan(line, _skip_space(line, 0).end())
    except StopIteration:
        # Only the top-level value fails this way. A BOM always fails here,
        # at the first character: it is neither whitespace nor a value.
        why = "Unexpected UTF-8 BOM (decode using utf-8-sig)" if line.startswith("\ufeff") else "Expecting value"
        raise DecodeError(f"invalid JSON: {why}") from None
    # A JSONDecodeError, an int past the digit limit, or arrays or objects
    # nested past the recursion limit: a line of 2,000 '[' does that.
    except (ValueError, RecursionError) as exc:
        raise DecodeError(f"invalid JSON: {getattr(exc, 'msg', exc)}") from exc
    if _skip_space(line, end).end() != len(line):
        raise DecodeError("invalid JSON: Extra data")
    if not isinstance(msg, dict):
        raise DecodeError("message must be a JSON object")
    return msg


def decode_request(line: bytes | str) -> dict:
    """Decode and validate a search request line."""
    msg = decode(line)
    if msg.keys() != REQUEST_FIELDS:
        raise DecodeError(f"request fields must be exactly {sorted(REQUEST_FIELDS)}")
    # JSON true and 1.0 compare equal to 1 in Python; only the int is version 1.
    if type(msg["v"]) is not int or msg["v"] != PROTOCOL_VERSION:
        raise DecodeError(f"unsupported protocol version {msg['v']!r}")
    if msg["type"] != "search":
        raise DecodeError(f"unsupported request type {msg['type']!r}")
    if not isinstance(msg["account"], str) or not msg["account"]:
        raise DecodeError("account must be a non-empty string")
    # The range check also rejects a non-finite lat.
    if not is_number(msg["lat"]) or not -90.0 <= msg["lat"] <= 90.0:
        raise DecodeError("lat must be a number in [-90, 90]")
    if not is_number(msg["lon"]) or not math.isfinite(msg["lon"]):
        raise DecodeError("lon must be a number")
    if not is_number(msg["ts"]) or not math.isfinite(msg["ts"]):
        raise DecodeError("ts must be a number")
    return msg


def make_search(account: str, pos: GeoPoint, ts: float) -> dict:
    return {
        "v": PROTOCOL_VERSION,
        "type": "search",
        "account": account,
        "lat": pos.lat,
        "lon": pos.lon,
        "ts": ts,
    }


def result_response(entries: list[tuple[str, int]]) -> dict:
    return {
        "v": PROTOCOL_VERSION,
        "type": "result",
        "entries": [{"id": tid, "class_m": cls} for tid, cls in entries],
    }


def error_response(code: str, retry_after_s: float = 0.0) -> dict:
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code {code!r}")
    return {
        "v": PROTOCOL_VERSION,
        "type": "error",
        "code": code,
        "retry_after_s": retry_after_s,
    }


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        service: Service = self.server.nearby_service  # type: ignore[attr-defined]
        readline, limit = self.rfile.readline, MAX_REQUEST_BYTES + 1
        while raw := readline(limit):
            if len(raw) > MAX_REQUEST_BYTES:
                # One BAD_REQUEST, then close rather than read the rest.
                with contextlib.suppress(BrokenPipeError, ConnectionResetError):
                    self.wfile.write(encode(error_response("BAD_REQUEST")))
                return
            try:
                resp = self._respond(service, raw)
            except Exception:
                # A bug must never kill the connection loop; the client gets
                # INTERNAL and the log keeps the traceback.
                _log.exception("internal error answering %r", raw)
                resp = error_response("INTERNAL")
            try:
                self.wfile.write(encode(resp))
            except (BrokenPipeError, ConnectionResetError):
                return

    @staticmethod
    def _respond(service: Service, raw: bytes) -> dict:
        try:
            msg = decode_request(raw)
        except DecodeError:
            return error_response("BAD_REQUEST")
        try:
            # decode_request checked what _point assumes: lat in [-90, 90]
            # and a finite lon.
            pos = _point(msg["lat"], msg["lon"])
            entries = service.search(msg["account"], pos, msg["ts"])
        except QueryRejected as exc:
            return error_response(exc.code, exc.retry_after_s)
        except (ProtocolError, ProjectionDomainError, ValueError):
            return error_response("BAD_REQUEST")
        return result_response(entries)


class _ThreadingServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class ApiServer:
    """TCP endpoint for a Service. Use port 0 for an ephemeral test port."""

    def __init__(self, service: Service, host: str = DEFAULT_BIND[0], port: int = DEFAULT_BIND[1]):
        self._tcp = _ThreadingServer((host, port), _Handler)
        self._tcp.nearby_service = service  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None
        self._serving = False

    @property
    def address(self) -> tuple[str, int]:
        return self._tcp.server_address  # type: ignore[return-value]

    def start(self) -> None:
        self._serving = True
        self._thread = threading.Thread(
            target=self._tcp.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()

    def serve_forever(self) -> None:
        self._serving = True
        self._tcp.serve_forever()

    def stop(self) -> None:
        if self._serving:
            self._tcp.shutdown()  # blocks until the serve loop acknowledges
            self._serving = False
        self._tcp.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "ApiServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


class TcpClient:
    """Blocking request/response client bound to one account."""

    def __init__(self, host: str, port: int, account: str, timeout: float = 30.0):
        self.account = account
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._rfile = self._sock.makefile("rb")

    def request(self, msg: dict) -> dict:
        """Send one raw message and return the raw response (for tests)."""
        return self.request_line(encode(msg))

    def request_line(self, raw: bytes) -> dict:
        """Send pre-encoded bytes (possibly junk) and return the response."""
        self._sock.sendall(raw)
        line = self._rfile.readline(MAX_REPLY_BYTES + 1)
        if not line:
            raise ConnectionError("server closed the connection")
        if len(line) > MAX_REPLY_BYTES:
            raise ProtocolError(f"reply line longer than {MAX_REPLY_BYTES} bytes")
        return decode(line)

    def search(self, pos: GeoPoint, ts: float) -> list[tuple[str, int]]:
        resp = self.request(make_search(self.account, pos, ts))
        if resp.get("type") == "result":
            try:
                entries = [(e["id"], e["class_m"]) for e in resp["entries"]]
            except (KeyError, TypeError) as exc:
                raise ProtocolError(f"malformed result entries: {exc!r}") from exc
            for tid, cls in entries:
                # A bool is an int to isinstance, but no class.
                if type(tid) is not str or type(cls) is not int:
                    raise ProtocolError(f"malformed result entries: id {tid!r}, class_m {cls!r}")
            return entries
        if resp.get("type") == "error":
            code = resp.get("code")
            retry = resp.get("retry_after_s", 0.0)
            exc_cls = _CODE_TO_ERROR.get(code)
            if exc_cls is not None:
                raise exc_cls(f"server rejected query: {code}", retry_after_s=retry)
            raise ProtocolError(f"server rejected query: {code}")
        raise ProtocolError(f"unexpected response type {resp.get('type')!r}")

    def close(self) -> None:
        try:
            self._rfile.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "TcpClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
