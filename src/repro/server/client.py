"""A minimal asyncio WebSocket / HTTP client for the analysis server.

Used by the load harness, the CLI ``loadtest`` and ``top`` subcommands,
the end-to-end benchmark and every server test.  :class:`WsClient`
speaks exactly the protocol of :mod:`repro.server.protocol`: send one
JSON request, await one JSON envelope.  :func:`http_get` fetches the
plain HTTP endpoints (``/healthz``, ``/info``, ``/stats``,
``/render``).

The server itself never imports this module or :mod:`asyncio`: it runs
a ``selectors`` loop (:mod:`repro.server.app`).  Both sides frame and
parse through the same codec, :mod:`repro.server.ws`;
:class:`WebSocketConnection` here is its asyncio stream adapter.
"""

from __future__ import annotations

import asyncio
import base64
import itertools
import json
import os
import struct

from repro.server.protocol import canonical_json
from repro.server.ws import (
    OP_CLOSE,
    OP_PING,
    OP_PONG,
    OP_TEXT,
    FrameDecoder,
    WebSocketError,
    accept_token,
    encode_frame,
)

__all__ = ["WebSocketConnection", "WsClient", "http_get"]

#: Bytes asked of the stream per read.
_READ_SIZE = 64 * 1024


class WebSocketConnection:
    """Message-level send/receive over an established client WebSocket.

    *reader* and *writer* are the asyncio stream pair after the HTTP
    upgrade.  Outgoing frames are masked (RFC 6455 §5.1).
    """

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.closed = False
        self._decoder = FrameDecoder()

    async def send_text(self, text: str) -> None:
        """Send one text message."""
        await self._send(OP_TEXT, text.encode("utf-8"))

    async def _send(self, opcode: int, payload: bytes) -> None:
        self.writer.write(encode_frame(opcode, payload, mask=True))
        await self.writer.drain()

    async def recv_text(self) -> str | None:
        """The next text message, or ``None`` once the peer closed.

        Pings are answered and pongs swallowed transparently;
        continuation frames are reassembled.
        """
        while True:
            message = self._decoder.next_message()
            if message is None:
                try:
                    data = await self.reader.read(_READ_SIZE)
                except ConnectionError as err:
                    raise WebSocketError(
                        f"connection closed mid-frame: {err}"
                    ) from None
                if not data:
                    raise WebSocketError("connection closed mid-frame")
                self._decoder.feed(data)
                continue
            opcode, payload = message
            if opcode == OP_PING:
                await self._send(OP_PONG, payload)
            elif opcode == OP_CLOSE:
                if not self.closed:
                    self.closed = True
                    try:
                        await self._send(OP_CLOSE, payload[:2])
                    except (ConnectionError, WebSocketError):
                        pass
                return None
            elif opcode != OP_PONG:
                return payload

    async def close(self, code: int = 1000) -> None:
        """Send a close frame (idempotent) and close the transport."""
        if not self.closed:
            self.closed = True
            try:
                await self._send(OP_CLOSE, struct.pack(">H", code))
            except (ConnectionError, WebSocketError):
                pass
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class WsClient:
    """One interactive session over a WebSocket connection.

    Build with :meth:`connect`; drive with :meth:`request`; finish with
    :meth:`close`.  Not task-safe: one coroutine per client, which is
    exactly how the load harness uses it (N clients = N coroutines).
    """

    def __init__(self, ws: WebSocketConnection) -> None:
        self.ws = ws
        self._ids = itertools.count(1)

    @classmethod
    async def connect(
        cls, host: str, port: int, path: str = "/ws"
    ) -> "WsClient":
        """Open a connection and perform the RFC 6455 upgrade."""
        reader, writer = await asyncio.open_connection(host, port)
        key = base64.b64encode(os.urandom(16)).decode("ascii")
        writer.write(
            (
                f"GET {path} HTTP/1.1\r\n"
                f"Host: {host}:{port}\r\n"
                f"Upgrade: websocket\r\n"
                f"Connection: Upgrade\r\n"
                f"Sec-WebSocket-Key: {key}\r\n"
                f"Sec-WebSocket-Version: 13\r\n\r\n"
            ).encode("latin-1")
        )
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        status_line = head.split(b"\r\n", 1)[0].decode("latin-1")
        if " 101 " not in f"{status_line} ":
            writer.close()
            raise WebSocketError(f"upgrade refused: {status_line}")
        expected = accept_token(key)
        accept = ""
        for line in head.decode("latin-1").split("\r\n")[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "sec-websocket-accept":
                accept = value.strip()
        if accept != expected:
            writer.close()
            raise WebSocketError("bad Sec-WebSocket-Accept token")
        return cls(WebSocketConnection(reader, writer))

    async def request(self, op: str, **params) -> dict:
        """Send one request and await its reply envelope (as a dict)."""
        msg = {"id": next(self._ids), "op": op, **params}
        return await self.send_raw(canonical_json(msg))

    async def send_raw(self, text: str) -> dict:
        """Send a raw frame (possibly malformed on purpose) and await
        the reply envelope — the malformed-request battery's entry
        point."""
        await self.ws.send_text(text)
        reply = await self.ws.recv_text()
        if reply is None:
            raise WebSocketError("server closed before replying")
        return json.loads(reply)

    async def recv_json(self) -> dict | None:
        """The next frame as a dict — replies *and* server-initiated
        push frames (``{"push": ...}``) — or ``None`` once closed."""
        text = await self.ws.recv_text()
        return None if text is None else json.loads(text)

    async def stream_stats(
        self, interval: float = 0.05, count: int = 1, prefix: str = ""
    ) -> list[dict]:
        """Subscribe via ``stats_stream`` and collect its push frames.

        Sends the subscription, checks the acceptance envelope, then
        awaits exactly the promised number of pushes (fewer if the
        server goes away).  Raises :class:`WebSocketError` when the
        subscription is refused — callers exercising the exposition
        path (``repro serve --selfcheck``) want that loud.
        """
        envelope = await self.request(
            "stats_stream", interval=interval, count=count, prefix=prefix
        )
        if not envelope.get("ok"):
            raise WebSocketError(
                f"stats_stream refused: {envelope.get('error')}"
            )
        pushes: list[dict] = []
        for _ in range(envelope["result"]["count"]):
            frame = await self.recv_json()
            if frame is None:
                break
            pushes.append(frame)
        return pushes

    async def close(self) -> None:
        """Close the WebSocket and the transport."""
        await self.ws.close()


async def http_get(
    host: str, port: int, path: str
) -> tuple[int, bytes]:
    """``(status, body)`` of one plain HTTP GET against the server."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(
        (
            f"GET {path} HTTP/1.1\r\nHost: {host}:{port}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, body
