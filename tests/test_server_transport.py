"""The server's ``selectors`` transport over raw sockets.

What a well-behaved client never does: reset during the handshake,
send a fragmented message past the size cap, pipeline frames behind
the upgrade request, ping.  Each case checks the wire answer and that
the session lifecycle balances (every opened session is closed).
``/render`` is fetched raw too, for its content type.  The last test
covers how the load harness hosts the loop in-process.
"""

import asyncio
import json
import os
import socket
import struct
import time
import xml.etree.ElementTree as ET

import pytest

from repro.core.layout.engine import DynamicLayout
from repro.core.render.svg import SvgRenderer
from repro.server import ws
from repro.server.app import ReproServer, _ephemeral_session
from repro.server.client import WsClient, http_get
from repro.server.state import ServerConfig, SessionState
from repro.server.ws import (
    OP_CLOSE,
    OP_CONT,
    OP_PING,
    OP_PONG,
    OP_TEXT,
    FrameDecoder,
    encode_frame,
)
from repro.trace.synthetic import figure3_trace

UPGRADE = (
    b"GET /ws HTTP/1.1\r\n"
    b"Upgrade: websocket\r\n"
    b"Connection: Upgrade\r\n"
    b"Sec-WebSocket-Key: dGhlIHNhbXBsZSBub25jZQ==\r\n"
    b"Sec-WebSocket-Version: 13\r\n\r\n"
)


def _get_json(port: int, path: str) -> dict:
    status, body = asyncio.run(http_get("127.0.0.1", port, path))
    assert status == 200, (path, status)
    return json.loads(body)


def _wait_balanced(port: int, timeout: float = 10.0) -> dict:
    """Poll until no session is live and opened == closed; the
    ``server`` counters then."""
    deadline = time.monotonic() + timeout
    while True:
        health = _get_json(port, "/healthz")
        stats = _get_json(port, "/stats")["server"]
        if (
            health["sessions"] == 0
            and stats["sessions_opened"] == stats["sessions_closed"]
        ):
            return stats
        assert time.monotonic() < deadline, (health, stats)
        time.sleep(0.02)


def _next_frame(sock: socket.socket, decoder: FrameDecoder):
    while (frame := decoder.next_frame()) is None:
        data = sock.recv(65536)
        assert data, "server closed before sending a frame"
        decoder.feed(data)
    return frame


def _raw_session(port: int, first: bytes = b""):
    """A connected, upgraded raw socket plus the decoder holding any
    frame bytes that followed the 101 reply."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
    sock.sendall(UPGRADE + first)
    buffered = b""
    while b"\r\n\r\n" not in buffered:
        data = sock.recv(4096)
        assert data, buffered
        buffered += data
    head, _, rest = buffered.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 101 "), head
    assert b"s3pPLMBiTxaQ9kYGzzhZRbK+xOo=" in head
    decoder = FrameDecoder()
    decoder.feed(rest)
    return sock, decoder


def _text(payload: str) -> bytes:
    return encode_frame(OP_TEXT, payload.encode("utf-8"), mask=True)


def test_aborted_handshakes_release_their_sessions(capfd):
    """Clients that reset right after the upgrade request leave no
    session behind, and the server still admits a full house."""
    config = ServerConfig(settle_steps=0, max_sessions=4)
    with ReproServer(figure3_trace(), config) as server:
        for _ in range(10):
            sock = socket.create_connection(("127.0.0.1", server.port))
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            sock.sendall(UPGRADE)
            sock.close()  # linger 0: the peer sees a reset
        _wait_balanced(server.port)

        async def full_house(port):
            clients = [
                await WsClient.connect("127.0.0.1", port)
                for _ in range(config.max_sessions)
            ]
            for client in clients:
                assert (await client.request("hello"))["ok"]
                await client.close()

        asyncio.run(full_house(server.port))
        _wait_balanced(server.port)
    assert "Traceback" not in capfd.readouterr().err


def test_fragmented_message_over_the_cap_closes_1009(monkeypatch):
    monkeypatch.setattr(ws, "MAX_FRAME", 1024)
    config = ServerConfig(settle_steps=0)
    with ReproServer(figure3_trace(), config) as server:
        sock, decoder = _raw_session(server.port)
        with sock:
            for opcode in (OP_TEXT, OP_CONT):
                sock.sendall(
                    encode_frame(opcode, b" " * 600, mask=True, fin=False)
                )
            opcode, _, payload = _next_frame(sock, decoder)
            assert opcode == OP_CLOSE
            assert struct.unpack(">H", payload) == (1009,)
        stats = _wait_balanced(server.port)
        assert stats["sessions_opened"] == 1


def test_frames_pipelined_behind_the_upgrade_are_served_in_order():
    config = ServerConfig(settle_steps=0)
    requests = [
        '{"id": 1, "op": "hello"}',
        '{"id": 2, "op": "scrub", "start": 0.25, "end": 0.75}',
        '{"id": 3, "op": "stats"}',
    ]
    with ReproServer(figure3_trace(), config) as server:
        sock, decoder = _raw_session(
            server.port, b"".join(_text(r) for r in requests)
        )
        with sock:
            for want in (1, 2, 3):
                opcode, fin, payload = _next_frame(sock, decoder)
                reply = json.loads(payload)
                assert (opcode, fin, reply["id"], reply["ok"]) == (
                    OP_TEXT, True, want, True
                )


def test_a_head_split_inside_its_terminator_is_assembled():
    """The blank line that ends a request head may arrive over several
    reads."""
    head = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
    config = ServerConfig(settle_steps=0)
    with ReproServer(figure3_trace(), config) as server:
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=10) as sock:
            for part in (head[:-3], head[-3:-1], head[-1:]):
                sock.sendall(part)
                time.sleep(0.05)  # let the server read each part alone
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
    assert reply.startswith(b"HTTP/1.1 200 OK\r\n"), reply


def test_ping_is_answered_with_its_payload_and_close_is_echoed():
    config = ServerConfig(settle_steps=0)
    with ReproServer(figure3_trace(), config) as server:
        sock, decoder = _raw_session(server.port)
        with sock:
            sock.sendall(encode_frame(OP_PING, b"are you there", mask=True))
            assert _next_frame(sock, decoder) == (
                OP_PONG, True, b"are you there"
            )
            sock.sendall(
                encode_frame(OP_CLOSE, struct.pack(">H", 1000), mask=True)
            )
            assert _next_frame(sock, decoder) == (
                OP_CLOSE, True, struct.pack(">H", 1000)
            )
            assert sock.recv(16) == b""  # then the server hangs up
        _wait_balanced(server.port)


def test_leaving_the_with_block_sends_1001_and_closes_sessions():
    """Shutdown while a session is live and mid-``stats_stream``: the
    client gets a going-away close and the session is closed."""
    config = ServerConfig(settle_steps=0)
    with ReproServer(figure3_trace(), config) as server:
        sock, decoder = _raw_session(server.port)
        sock.sendall(
            _text('{"id": 1, "op": "stats_stream", "interval": 60, '
                  '"count": 5}')
        )
        opcode, _, payload = _next_frame(sock, decoder)
        assert json.loads(payload)["result"]["streaming"] is True
    with sock:
        assert _next_frame(sock, decoder) == (
            OP_CLOSE, True, struct.pack(">H", 1001)
        )
    stats = server.state.stats
    assert stats["sessions_opened"] == stats["sessions_closed"] == 1


def _raw_get(port: int, path: str) -> tuple[int, dict, bytes]:
    """``(status, lowercase headers, body)`` of one plain GET."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(
            f"GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n".encode()
        )
        raw = b""
        while data := sock.recv(65536):
            raw += data
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line, *fields = head.decode("latin-1").split("\r\n")
    headers = {}
    for field in fields:
        name, _, value = field.partition(":")
        headers[name.strip().lower()] = value.strip()
    return int(status_line.split(" ")[1]), headers, body


def test_render_draws_the_scrub_view_it_computed(monkeypatch):
    """A ``/render`` tile is the one view its scrub computed: one sync
    and one settle, also for a ``depth`` tile (its regrouping computes
    no view), and the bytes of that view rendered.  Malformed queries
    get typed 400s."""
    calls = []
    for method in ("sync", "settle"):
        real = getattr(DynamicLayout, method)

        def counting(self, *args, _real=real, _name=method, **kwargs):
            calls.append(_name)
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(DynamicLayout, method, counting)
    trace = figure3_trace()
    start, end = trace.span()
    query = f"start={start}&end={end}"
    with ReproServer(trace, ServerConfig(settle_steps=2)) as server:
        status, headers, body = _raw_get(server.port, f"/render?{query}")
        assert status == 200, body
        assert headers["content-type"] == "image/svg+xml"
        assert ET.fromstring(body).tag == "{http://www.w3.org/2000/svg}svg"
        assert calls == ["sync", "settle"]
        del calls[:]
        status, _, deep = _raw_get(server.port, f"/render?{query}&depth=1")
        assert status == 200
        assert calls == ["sync", "settle"]
        for path, code in (
            (f"/render?start=x&end={end}", "bad_slice"),
            (f"/render?{query}&depth=-1", "bad_depth"),
            (f"/render?end={end}", "bad_request"),
        ):
            status, headers, error = _raw_get(server.port, path)
            assert status == 400, path
            assert headers["content-type"] == "application/json"
            assert json.loads(error)["error"]["code"] == code, path
        tile = SessionState(
            "render", _ephemeral_session(server.state), settle_steps=2
        )
        view = tile.apply({"op": "scrub", "start": start, "end": end})
        deep_tile = SessionState(
            "render", _ephemeral_session(server.state), settle_steps=2
        )
        deep_tile.regroup_depth({"depth": 1})
        deep_view = deep_tile.apply({"op": "scrub", "start": start, "end": end})
    assert body == SvgRenderer().render(view).encode("utf-8")
    assert deep == SvgRenderer().render(deep_view).encode("utf-8")


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here"
)
def test_in_process_load_runs_on_one_cpu_and_restores_affinity(
    monkeypatch,
):
    """``run_load`` hosts the server thread on the caller's CPU for the
    run and hands the caller its affinity back afterwards."""
    from repro.server.load import run_load

    before = os.sched_getaffinity(0)
    seen = []
    original = ReproServer.serve_forever

    def spying(self):
        seen.append(os.sched_getaffinity(0))
        original(self)

    monkeypatch.setattr(ReproServer, "serve_forever", spying)
    report = run_load(
        trace=figure3_trace(), sessions=2, moves=4, settle_steps=0
    )
    assert report["requests"] == 8
    assert seen == [{min(before)}]
    assert os.sched_getaffinity(0) == before
