"""The asyncio HTTP + WebSocket analysis server.

:class:`ReproServer` binds one TCP socket and speaks a tiny HTTP/1.1
subset on it:

* ``GET /healthz`` — liveness + readiness probe (sessions, cache
  occupancy, uptime);
* ``GET /info`` — trace vitals (entities, kinds, metrics, span);
* ``GET /stats`` — server / shared-cache / shared-structure counters;
* ``GET /metrics`` — the whole metrics registry in Prometheus text
  exposition format (:mod:`repro.obs.expo`); disable with
  ``ServerConfig(metrics=False)``;
* ``GET /render?start=..&end=..[&depth=..]`` — a one-shot SVG tile of
  the requested slice, rendered by an ephemeral session;
* ``GET /ws`` with an ``Upgrade: websocket`` header — the interactive
  session protocol of :mod:`repro.server.protocol`, including the
  server-initiated ``stats_stream`` push frames.

Every request — HTTP and WebSocket alike — is accounted end-to-end
through :class:`~repro.server.telemetry.ServerTelemetry`: per-op
latency histograms, byte totals, the JSONL access log, and the
:class:`~repro.server.telemetry.ServerRecorder` self-trace.

Everything runs on one event loop; the per-request work (aggregation,
layout, render) is synchronous CPU-bound Python, so requests from
concurrent sessions interleave at message granularity.  That is the
semantics the cross-session differential test relies on: each request
is applied atomically to its session.
"""

from __future__ import annotations

import asyncio
import json
import math
import urllib.parse

from repro.errors import ReproError
from repro.obs.registry import registry
from repro.obs.spans import span
from repro.server.protocol import (
    ProtocolError,
    canonical_json,
    error_envelope,
    push_envelope,
)
from repro.server.state import ServerConfig, SessionState, SharedServerState
from repro.server.telemetry import RequestRecord
from repro.server.ws import WebSocketConnection, WebSocketError, accept_token

__all__ = ["ReproServer"]

_MAX_HEAD = 64 * 1024

#: Telemetry op names of the HTTP routes (unknown paths collapse to
#: ``http.other`` so client-chosen strings never inflate label
#: cardinality).
_HTTP_OPS = {
    "/healthz": "http.healthz",
    "/info": "http.info",
    "/stats": "http.stats",
    "/metrics": "http.metrics",
    "/render": "http.render",
}


class ReproServer:
    """One trace, many sessions, one asyncio server.

    Parameters
    ----------
    trace:
        The loaded trace (resident or a memory-mapped ``StoredTrace``).
    config:
        Host/port/limits; ``None`` uses :class:`ServerConfig` defaults
        (loopback, ephemeral port).
    """

    def __init__(self, trace, config: ServerConfig | None = None) -> None:
        self.config = config or ServerConfig()
        self.state = SharedServerState(trace, self.config)
        self._server: asyncio.AbstractServer | None = None
        #: live WebSocket sessions: connection -> the task serving it
        self._live: dict[WebSocketConnection, asyncio.Task] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the socket and start accepting connections."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )

    @property
    def port(self) -> int:
        """The bound TCP port (resolved when config asked for port 0)."""
        if self._server is None:
            raise ReproError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        """The server's HTTP base URL."""
        return f"http://{self.config.host}:{self.port}"

    async def serve_forever(self) -> None:
        """Block serving requests until cancelled."""
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def aclose(self) -> None:
        """Stop accepting, end live sessions, close the socket, flush
        the access log.

        Every live WebSocket session gets a close frame (1001, going
        away), and its handler finishes — closing the session — before
        this returns, so a stopping event loop never has to cancel a
        handler blocked on a read.
        """
        if self._server is not None:
            self._server.close()
        while self._live:  # a handshake may finish while we await
            live = list(self._live.items())
            for ws, _ in live:
                await ws.close(1001)
            await asyncio.gather(
                *(task for _, task in live), return_exceptions=True
            )
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        self.state.telemetry.close()

    async def __aenter__(self) -> "ReproServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.aclose()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError,
                ConnectionError):
            writer.close()
            return
        try:
            method, target, headers = _parse_head(head)
        except ValueError:
            await _respond(writer, 400, {"error": "malformed request"})
            writer.close()
            return
        path = urllib.parse.urlsplit(target).path
        if (
            path == "/ws"
            and headers.get("upgrade", "").lower() == "websocket"
        ):
            await self._handle_ws(reader, writer, headers)
            return
        try:
            await self._handle_http(writer, method, target, len(head))
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_http(
        self, writer, method: str, target: str, bytes_in: int = 0
    ) -> None:
        telemetry = self.state.telemetry
        began = telemetry.now()
        self.state.stats["http_requests"] += 1
        parts = urllib.parse.urlsplit(target)
        query = dict(urllib.parse.parse_qsl(parts.query))
        op = _HTTP_OPS.get(parts.path, "http.other")
        ok, code = True, ""
        with span("server.request", op=op):
            if method != "GET":
                ok, code = False, "bad_request"
                self.state.record_error(code)
                bytes_out = await _respond(
                    writer, 405, {"error": "only GET is supported"}
                )
            elif parts.path == "/healthz":
                bytes_out = await _respond(
                    writer, 200, self.state.health_payload()
                )
            elif parts.path == "/info":
                bytes_out = await _respond(writer, 200, self.state.info())
            elif parts.path == "/stats":
                bytes_out = await _respond(
                    writer, 200, self.state.stats_payload()
                )
            elif parts.path == "/metrics" and self.config.metrics:
                from repro.obs.expo import PROM_CONTENT_TYPE, render_prometheus

                bytes_out = await _respond_raw(
                    writer,
                    200,
                    PROM_CONTENT_TYPE,
                    render_prometheus().encode("utf-8"),
                )
            elif parts.path == "/metrics":
                ok, code = False, "bad_request"
                self.state.record_error(code)
                bytes_out = await _respond(
                    writer, 404, {"error": "metrics exposition is disabled"}
                )
            elif parts.path == "/render":
                bytes_out, ok, code = await self._handle_render(writer, query)
            else:
                ok, code = False, "bad_request"
                self.state.record_error(code)
                bytes_out = await _respond(
                    writer, 404, {"error": f"no route {parts.path!r}"}
                )
        telemetry.observe(
            RequestRecord(
                session="http",
                op=op,
                began_s=began,
                wall_s=telemetry.now() - began,
                bytes_in=bytes_in,
                bytes_out=bytes_out,
                tier="none",
                ok=ok,
                code=code,
            )
        )

    async def _handle_render(self, writer, query: dict) -> tuple[int, bool, str]:
        """One-shot SVG tile: an ephemeral session, never registered.

        Returns ``(bytes_out, ok, error_code)`` for the caller's
        request accounting.
        """
        try:
            msg = {"op": "scrub"}
            for field in ("start", "end"):
                if field not in query:
                    raise ProtocolError(
                        "bad_request", f"missing query parameter {field!r}"
                    )
                try:
                    msg[field] = float(query[field])
                except ValueError:
                    raise ProtocolError(
                        "bad_slice", f"{field!r} is not a number"
                    ) from None
            session = SessionState(
                "render",
                _ephemeral_session(self.state),
                settle_steps=self.config.settle_steps,
            )
            if "depth" in query:
                try:
                    depth = int(query["depth"])
                except ValueError:
                    raise ProtocolError(
                        "bad_depth", "'depth' is not an integer"
                    ) from None
                session.apply({"op": "depth", "depth": depth})
            session.apply(msg)
            from repro.core.render.svg import SvgRenderer

            view = session.session.view(settle_steps=self.config.settle_steps)
            markup = SvgRenderer().render(view)
        except ProtocolError as err:
            self.state.record_error(err.code)
            bytes_out = await _respond(
                writer, 400, {"error": {"code": err.code, "message": err.message}}
            )
            return bytes_out, False, err.code
        except ReproError as err:
            self.state.record_error("server_error")
            bytes_out = await _respond(
                writer, 500,
                {"error": {"code": "server_error", "message": str(err)}},
            )
            return bytes_out, False, "server_error"
        bytes_out = await _respond_raw(
            writer, 200, "image/svg+xml", markup.encode("utf-8")
        )
        return bytes_out, True, ""

    async def _handle_ws(self, reader, writer, headers: dict) -> None:
        key = headers.get("sec-websocket-key")
        if not key:
            await _respond(writer, 400, {"error": "missing Sec-WebSocket-Key"})
            writer.close()
            return
        try:
            session = self.state.create_session()
        except ProtocolError as err:
            await _respond(
                writer, 503, {"error": {"code": err.code, "message": err.message}}
            )
            writer.close()
            return
        writer.write(
            b"HTTP/1.1 101 Switching Protocols\r\n"
            b"Upgrade: websocket\r\n"
            b"Connection: Upgrade\r\n"
            b"Sec-WebSocket-Accept: " + accept_token(key).encode("ascii")
            + b"\r\n\r\n"
        )
        await writer.drain()
        ws = WebSocketConnection(reader, writer, is_server=True)
        self._live[ws] = asyncio.current_task()
        telemetry = self.state.telemetry
        try:
            while True:
                try:
                    text = await ws.recv_text()
                except WebSocketError:
                    break
                if text is None:
                    break
                began = telemetry.now()
                with span("server.request", session=session.session_id):
                    reply, done, meta = self._serve_frame(session, text)
                await ws.send_text(reply)
                telemetry.observe(
                    RequestRecord(
                        session=session.session_id,
                        op=meta["op"],
                        began_s=began,
                        wall_s=telemetry.now() - began,
                        bytes_in=len(text.encode("utf-8")),
                        bytes_out=len(reply.encode("utf-8")),
                        tier=meta["tier"],
                        ok=meta["ok"],
                        code=meta["code"],
                    )
                )
                if "stream" in meta:
                    await self._stream_stats(ws, meta["stream"])
                if done:
                    break
        finally:
            self.state.close_session(session.session_id)
            del self._live[ws]
            await ws.close()

    async def _stream_stats(self, ws: WebSocketConnection, params: dict) -> None:
        """Send the push frames an accepted ``stats_stream`` subscribed to.

        *params* is the validated subscription the op handler returned
        (``interval_s`` / ``count`` / ``prefix``).  Each push is a
        :func:`~repro.server.protocol.push_envelope` of kind
        ``"stats"`` carrying the registry snapshot (non-finite values
        filtered — canonical JSON rejects NaN) and the server uptime.
        A vanished client simply ends the stream.
        """
        for seq in range(params["count"]):
            await asyncio.sleep(params["interval_s"])
            snapshot = {
                key: value
                for key, value in registry.snapshot(params["prefix"]).items()
                if math.isfinite(value)
            }
            frame = push_envelope(
                "stats",
                seq,
                {
                    "uptime_s": round(self.state.telemetry.now(), 6),
                    "stats": snapshot,
                },
            )
            try:
                await ws.send_text(canonical_json(frame))
            except (ConnectionError, WebSocketError, OSError):
                break

    def _serve_frame(
        self, session: SessionState, text: str
    ) -> tuple[str, bool, dict]:
        """One request frame in, one canonical reply frame out.

        Returns ``(reply_text, session_is_done, meta)`` — *meta* is the
        accounting dict of
        :meth:`~repro.server.state.SharedServerState.handle_frame`,
        extended with a ``"stream"`` key holding the subscription
        parameters when the frame was an accepted ``stats_stream``.
        Never raises for request-level failures — malformed frames
        become typed error envelopes and the session stays usable.
        """
        envelope, meta = self.state.handle_frame(session, text)
        done = meta["ok"] and meta["op"] == "bye"
        try:
            reply = canonical_json(envelope)
        except ValueError as err:
            # A non-finite float escaped into a payload: report instead
            # of shipping NaN bytes.
            self.state.record_error("server_error")
            meta = dict(meta, ok=False, code="server_error")
            reply = canonical_json(
                error_envelope(
                    envelope.get("id"), "server_error",
                    f"unserializable payload: {err}",
                )
            )
        if meta["ok"] and meta["op"] == "stats_stream":
            meta = dict(meta, stream=envelope["result"])
        return reply, done, meta


def _ephemeral_session(state: SharedServerState):
    """An unregistered shared-data session for one-shot HTTP renders."""
    from repro.core.session import AnalysisSession

    return AnalysisSession(
        state.trace,
        seed=state.config.seed,
        shared=state.shared,
        result_cache=state.cache,
        session_id="render",
    )


def _parse_head(head: bytes) -> tuple[str, str, dict]:
    """``(method, target, lowercase-header dict)`` of one request head."""
    if len(head) > _MAX_HEAD:
        raise ValueError("request head too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3:
        raise ValueError(f"malformed request line {lines[0]!r}")
    method, target, _version = parts
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ValueError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    return method, target, headers


async def _respond(writer, status: int, payload: dict) -> int:
    """Send one JSON HTTP response; returns the body size in bytes."""
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    return await _respond_raw(writer, status, "application/json", body)


_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 500: "Internal Server Error",
    503: "Service Unavailable",
}


async def _respond_raw(
    writer, status: int, content_type: str, body: bytes
) -> int:
    """Send one complete HTTP/1.1 response; returns the body size."""
    reason = _REASONS.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    writer.write(head.encode("latin-1") + body)
    try:
        await writer.drain()
    except (ConnectionError, OSError):
        pass
    return len(body)
