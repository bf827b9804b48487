"""The HTTP + WebSocket analysis server: one ``selectors`` loop.

:class:`ReproServer` binds one TCP socket and speaks a tiny HTTP/1.1
subset on it:

* ``GET /healthz`` — liveness + readiness probe (sessions, cache
  occupancy, uptime);
* ``GET /info`` — trace vitals (entities, kinds, metrics, span);
* ``GET /stats`` — server / shared-cache / shared-structure counters;
* ``GET /metrics`` — the whole metrics registry in Prometheus text
  exposition format (:mod:`repro.obs.expo`);
* ``GET /render?start=..&end=..[&depth=..]`` — a one-shot SVG tile of
  the requested slice, rendered by an ephemeral session;
* ``GET /ws`` with an ``Upgrade: websocket`` header — the interactive
  session protocol of :mod:`repro.server.protocol`, including the
  server-initiated ``stats_stream`` push frames.

Every request — HTTP and WebSocket alike — is accounted end-to-end
through :class:`~repro.server.telemetry.ServerTelemetry`: per-op
latency histograms, byte totals, the JSONL access log, and the
:class:`~repro.server.telemetry.ServerRecorder` self-trace.

Everything runs on one thread, in one :mod:`selectors` loop over
non-blocking sockets; the per-request work (aggregation, layout,
render) is synchronous CPU-bound Python, so requests from concurrent
sessions interleave at message granularity.  That is the semantics the
cross-session differential test relies on: each request is applied
atomically to its session.  The loop needs nothing but :mod:`socket`
and :mod:`selectors`.  :mod:`asyncio` would also import ``ssl``
(mapping ``libssl`` and ``libcrypto``) and ``concurrent.futures``,
about 7 MB of resident memory a plain-HTTP server never uses.

``repro serve`` runs the loop on its main thread
(:meth:`ReproServer.serve_forever`; SIGTERM calls
:meth:`ReproServer.shutdown`).  In-process hosts — the load harness,
``repro serve --selfcheck``, tests — run the same loop on one
background thread with ``with ReproServer(trace) as server:``.
"""

from __future__ import annotations

import heapq
import json
import math
import selectors
import socket
import struct
import time
import urllib.parse

from repro.errors import ReproError
from repro.obs.registry import registry
from repro.obs.spans import span
from repro.server.protocol import (
    ProtocolError,
    canonical_json,
    push_envelope,
)
from repro.server.state import (
    SESSION_SEED,
    ServerConfig,
    SessionState,
    SharedServerState,
)
from repro.server.telemetry import RequestRecord
from repro.server.ws import (
    OP_CLOSE,
    OP_PING,
    OP_PONG,
    OP_TEXT,
    FrameDecoder,
    WebSocketError,
    accept_token,
    frame_header,
)

__all__ = ["ReproServer"]

_MAX_HEAD = 64 * 1024

#: Bytes asked of a socket per read.
_READ_SIZE = 64 * 1024

#: Pending connections the listening socket queues.
_BACKLOG = 100

#: How long shutdown waits for close frames and queued replies to
#: drain before it closes the sockets regardless.
_SHUTDOWN_FLUSH_S = 2.0

#: Close-frame payloads: a normal close (1000) and a server shutdown
#: (1001, going away).
_CLOSE_NORMAL = struct.pack(">H", 1000)
_CLOSE_GOING_AWAY = struct.pack(">H", 1001)

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

#: Content type of the JSON responses.
_JSON = "application/json"

#: Selector data of the listening socket and of the wake-up socket.
_LISTENER, _WAKE = "listener", "wake"


class _Connection:
    """One client socket and where it stands in its request cycle.

    A connection starts reading an HTTP request head into *inbox*.  A
    plain HTTP request gets one response and the connection closes; a
    WebSocket upgrade attaches a *session* and a frame *decoder*.
    """

    __slots__ = (
        "sock", "inbox", "outbox", "events", "decoder", "session",
        "stream", "closing", "closed",
    )

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        #: request-head bytes received so far (until the head is parsed)
        self.inbox = bytearray()
        #: bytes sent but not yet taken by the kernel
        self.outbox = bytearray()
        #: the selector events currently watched (0 = unregistered)
        self.events = 0
        self.decoder: FrameDecoder | None = None
        self.session: SessionState | None = None
        #: ``[params, next seq]`` of a running ``stats_stream``
        self.stream: list | None = None
        #: no more requests; close once *outbox* has drained
        self.closing = False
        self.closed = False


class ReproServer:
    """One trace, many sessions, one ``selectors`` loop.

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
        self._listener: socket.socket | None = None
        self._selector: selectors.BaseSelector | None = None
        self._wake: tuple[socket.socket, socket.socket] | None = None
        self._conns: set[_Connection] = set()
        #: ``(due, tiebreak, connection)`` of pending stats pushes
        self._pushes: list[tuple[float, int, _Connection]] = []
        self._push_seq = 0
        self._stopping = False
        self._thread = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bind and listen (idempotent); connections queue until the
        loop runs."""
        if self._listener is not None:
            return
        # Only an IPv6 literal has a colon.  (``socket.getaddrinfo`` on
        # a str host would load the idna codec and ``unicodedata``.)
        family = socket.AF_INET6 if ":" in self.config.host else socket.AF_INET
        self._listener = socket.create_server(
            (self.config.host, self.config.port),
            family=family,
            backlog=_BACKLOG,
        )
        self._listener.setblocking(False)
        self._wake = socket.socketpair()
        for sock in self._wake:
            sock.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(
            self._listener, selectors.EVENT_READ, _LISTENER
        )
        self._selector.register(self._wake[0], selectors.EVENT_READ, _WAKE)

    @property
    def port(self) -> int:
        """The bound TCP port (resolved when config asked for port 0)."""
        if self._listener is None:
            raise ReproError("server is not started")
        return self._listener.getsockname()[1]

    @property
    def url(self) -> str:
        """The server's HTTP base URL."""
        return f"http://{self.config.host}:{self.port}"

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown`.

        However the loop ends — shutdown or an exception such as
        ``KeyboardInterrupt`` — every live WebSocket session gets a
        close frame (1001, going away) and is closed, the sockets are
        closed and the access log is flushed before this returns.
        """
        self.start()
        try:
            while not self._stopping:
                for key, events in self._selector.select(self._run_pushes()):
                    if key.data is _LISTENER:
                        self._accept()
                    elif key.data is not _WAKE:  # a wake-up only ends the loop
                        self._guarded(self._on_ready, key.data, events)
        finally:
            self._close_all()

    def shutdown(self) -> None:
        """Ask the loop to stop and return at once.

        Safe to call from another thread or from a signal handler: it
        sets a flag and writes one byte to the loop's wake-up socket.
        """
        self._stopping = True
        if self._wake is not None:
            try:
                self._wake[1].send(b"\0")
            except OSError:  # buffer full (a wake-up is pending) or closed
                pass

    def __enter__(self) -> "ReproServer":
        """Start the loop on a background thread (in-process hosting)."""
        import threading

        self.start()
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-server", daemon=True
        )
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        """Shut the loop down and wait for its thread to finish."""
        self.shutdown()
        self._thread.join()
        self._thread = None

    def _close_all(self) -> None:
        """Stop accepting, end every connection, release the sockets."""
        selector = self._selector
        selector.unregister(self._listener)
        self._listener.close()
        selector.unregister(self._wake[0])
        self._pushes.clear()
        for conn in list(self._conns):
            if conn.decoder is None and not conn.closing:
                self._close(conn)  # still reading its request head
            elif not conn.closing:
                self._finish(conn, _CLOSE_GOING_AWAY)
        deadline = time.monotonic() + _SHUTDOWN_FLUSH_S
        while self._conns:
            left = deadline - time.monotonic()
            if left <= 0:
                break
            for key, events in selector.select(left):
                self._guarded(self._on_ready, key.data, events)
        for conn in list(self._conns):
            self._close(conn)
        selector.close()
        for sock in self._wake:
            sock.close()
        self.state.telemetry.close()

    # ------------------------------------------------------------------
    # The loop's event handlers
    # ------------------------------------------------------------------
    def _guarded(self, handler, conn: _Connection, *args) -> None:
        """Run *handler* for *conn*; a failure ends only that connection.

        The loop serves every session, so an unexpected exception in one
        connection's handling is reported with its traceback and closes
        that connection (and its session), never the server.
        """
        try:
            handler(conn, *args)
        except Exception:
            import traceback

            traceback.print_exc()
            self._close(conn)

    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:  # none pending (or out of descriptors)
                return
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Connection(sock)
            self._conns.add(conn)
            self._watch(conn)

    def _on_ready(self, conn: _Connection, events: int) -> None:
        if conn.closed:
            return
        if conn.outbox and events & selectors.EVENT_WRITE:
            self._flush(conn)
        elif events & selectors.EVENT_READ:
            self._receive(conn)

    def _run_pushes(self) -> float | None:
        """Send the stats pushes that are due; the select timeout until
        the next one (``None``: no push pending)."""
        pushes = self._pushes
        if not pushes:
            return None
        now = time.monotonic()
        due = []
        while pushes and pushes[0][0] <= now:
            due.append(heapq.heappop(pushes)[2])
        for conn in due:
            self._guarded(self._push_stats, conn)
        if not pushes:
            return None
        return max(0.0, pushes[0][0] - time.monotonic())

    def _watch(self, conn: _Connection) -> None:
        """Point the selector at what *conn* waits for now.

        Queued output is drained before anything else is read, and a
        connection that is streaming pushes or closing reads nothing,
        so one session's requests are served strictly in order.
        """
        if conn.closed:
            return
        if conn.outbox:
            events = selectors.EVENT_WRITE
        elif conn.stream is None and not conn.closing:
            events = selectors.EVENT_READ
        else:
            events = 0
        if events == conn.events:
            return
        if conn.events == 0:
            self._selector.register(conn.sock, events, conn)
        elif events == 0:
            self._selector.unregister(conn.sock)
        else:
            self._selector.modify(conn.sock, events, conn)
        conn.events = events

    def _receive(self, conn: _Connection) -> None:
        try:
            data = conn.sock.recv(_READ_SIZE)
        except BlockingIOError:
            return
        except OSError:  # reset by the peer
            self._close(conn)
            return
        if not data:  # the peer closed its side
            if conn.decoder is None:
                self._close(conn)
            else:
                self._finish(conn, _CLOSE_NORMAL)
            return
        if conn.decoder is None:
            self._read_head(conn, data)
        else:
            conn.decoder.feed(data)
            self._serve_buffered(conn)

    def _send(self, conn: _Connection, *parts: bytes) -> None:
        """Send *parts* back to back, as far as the kernel takes them
        now, in one ``sendmsg`` that does not join them; queue the rest."""
        if conn.closed:
            return
        sent = 0
        if not conn.outbox:
            try:
                sent = conn.sock.sendmsg(parts)
            except BlockingIOError:
                pass
            except OSError:
                self._close(conn)
                return
        for part in parts:
            if sent >= len(part):
                sent -= len(part)
            else:
                conn.outbox += memoryview(part)[sent:]
                sent = 0
        if conn.outbox:
            self._watch(conn)

    def _send_frame(
        self, conn: _Connection, opcode: int, payload: bytes
    ) -> None:
        """Send one unmasked frame: its header, then *payload* as is."""
        self._send(conn, frame_header(opcode, len(payload)), payload)

    def _flush(self, conn: _Connection) -> None:
        try:
            sent = conn.sock.send(conn.outbox)
        except BlockingIOError:
            return
        except OSError:
            self._close(conn)
            return
        del conn.outbox[:sent]
        if conn.outbox:
            return
        if conn.closing:
            self._close(conn)
        else:  # a WebSocket whose reply has gone out: serve on
            self._serve_buffered(conn)

    def _finish(
        self, conn: _Connection, close_payload: bytes | None = None
    ) -> None:
        """End *conn*: close its session now and its socket once the
        queued bytes are out.

        *close_payload* (a WebSocket close frame's status code) is sent
        as the connection's last frame.
        """
        if conn.closing or conn.closed:
            return
        if close_payload is not None:
            self._send_frame(conn, OP_CLOSE, close_payload)
        conn.closing = True
        conn.stream = None
        self._end_session(conn)
        if conn.outbox:
            self._watch(conn)
        else:
            self._close(conn)

    def _close(self, conn: _Connection) -> None:
        """Release *conn* at once; every exit path of a connection ends
        here or in :meth:`_finish`, so its session is always closed."""
        if conn.closed:
            return
        conn.closed = True
        self._end_session(conn)
        if conn.events:
            self._selector.unregister(conn.sock)
            conn.events = 0
        conn.sock.close()
        self._conns.discard(conn)

    def _end_session(self, conn: _Connection) -> None:
        if conn.session is not None:
            self.state.close_session(conn.session.session_id)
            conn.session = None

    # ------------------------------------------------------------------
    # HTTP
    # ------------------------------------------------------------------
    def _read_head(self, conn: _Connection, data: bytes) -> None:
        inbox = conn.inbox
        start = max(0, len(inbox) - 3)
        inbox += data
        end = inbox.find(b"\r\n\r\n", start)
        if end < 0:
            if len(inbox) > _MAX_HEAD:
                self._close(conn)
            return
        head, rest = bytes(inbox[: end + 4]), bytes(inbox[end + 4:])
        try:
            method, target, headers = _parse_head(head)
        except ValueError:
            body = _json({"error": "malformed request"})
            self._respond(conn, 400, _JSON, body)
            return
        path = urllib.parse.urlsplit(target).path
        if (
            path == "/ws"
            and headers.get("upgrade", "").lower() == "websocket"
        ):
            self._upgrade(conn, headers, rest)
        else:
            self._handle_http(conn, method, target, len(head))

    def _handle_http(
        self, conn: _Connection, method: str, target: str, bytes_in: int = 0
    ) -> None:
        """Answer one plain HTTP request, accounted before it is sent."""
        telemetry = self.state.telemetry
        began = telemetry.now()
        self.state.stats["http_requests"] += 1
        parts = urllib.parse.urlsplit(target)
        op = _HTTP_OPS.get(parts.path, "http.other")
        with span("server.request", op=op):
            status, content_type, body, code = self._route(method, parts)
        if code:
            self.state.record_error(code)
        telemetry.observe(
            RequestRecord(
                session="http",
                op=op,
                began_s=began,
                wall_s=telemetry.now() - began,
                bytes_in=bytes_in,
                bytes_out=len(body),
                tier="none",
                ok=not code,
                code=code,
            )
        )
        self._respond(conn, status, content_type, body)

    def _route(
        self, method: str, parts: urllib.parse.SplitResult
    ) -> tuple[int, str, bytes, str]:
        """``(status, content type, body, error code)`` of one HTTP
        request; the error code is ``""`` on success."""
        path = parts.path
        if method != "GET":
            body = _json({"error": "only GET is supported"})
            return 405, _JSON, body, "bad_request"
        if path == "/healthz":
            return 200, _JSON, _json(self.state.health_payload()), ""
        if path == "/info":
            return 200, _JSON, _json(self.state.info()), ""
        if path == "/stats":
            return 200, _JSON, _json(self.state.stats_payload()), ""
        if path == "/metrics":
            from repro.obs.expo import PROM_CONTENT_TYPE, render_prometheus

            return (
                200, PROM_CONTENT_TYPE, render_prometheus().encode("utf-8"), ""
            )
        if path == "/render":
            return self._render(dict(urllib.parse.parse_qsl(parts.query)))
        body = _json({"error": f"no route {path!r}"})
        return 404, _JSON, body, "bad_request"

    def _render(self, query: dict) -> tuple[int, str, bytes, str]:
        """One-shot SVG tile: an ephemeral session, never registered."""
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
                session.regroup_depth({"depth": depth})
            view = session.apply(msg)
            from repro.core.render.svg import SvgRenderer

            markup = SvgRenderer().render(view)
        except ProtocolError as err:
            body = _json({"error": {"code": err.code, "message": err.message}})
            return 400, _JSON, body, err.code
        except ReproError as err:
            body = _json(
                {"error": {"code": "server_error", "message": str(err)}}
            )
            return 500, _JSON, body, "server_error"
        return 200, "image/svg+xml", markup.encode("utf-8"), ""

    def _respond(
        self, conn: _Connection, status: int, content_type: str, body: bytes
    ) -> None:
        """Send one complete HTTP/1.1 response and end the connection."""
        reason = _REASONS.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        self._send(conn, head.encode("latin-1"), body)
        self._finish(conn)

    # ------------------------------------------------------------------
    # WebSocket sessions
    # ------------------------------------------------------------------
    def _upgrade(self, conn: _Connection, headers: dict, rest: bytes) -> None:
        key = headers.get("sec-websocket-key")
        if not key:
            self._respond(
                conn, 400, _JSON, _json({"error": "missing Sec-WebSocket-Key"})
            )
            return
        try:
            conn.session = self.state.create_session()
        except ProtocolError as err:
            self._respond(
                conn, 503, _JSON,
                _json({"error": {"code": err.code, "message": err.message}}),
            )
            return
        conn.decoder = FrameDecoder()
        conn.decoder.feed(rest)
        self._send(
            conn,
            b"HTTP/1.1 101 Switching Protocols\r\n"
            b"Upgrade: websocket\r\n"
            b"Connection: Upgrade\r\n"
            b"Sec-WebSocket-Accept: " + accept_token(key).encode("ascii")
            + b"\r\n\r\n",
        )
        self._serve_buffered(conn)

    def _serve_buffered(self, conn: _Connection) -> None:
        """Answer the complete messages buffered on *conn*, in order,
        until it runs dry, pauses (queued output, a stats stream) or
        closes."""
        while not (conn.closed or conn.closing or conn.outbox or conn.stream):
            try:
                message = conn.decoder.next_message()
            except WebSocketError as err:
                self._finish(conn, struct.pack(">H", err.close_code))
                return
            if message is None:
                break
            opcode, payload = message
            if opcode == OP_TEXT:
                self._serve_request(conn, payload)
            elif opcode == OP_PING:
                self._send_frame(conn, OP_PONG, payload)
            elif opcode == OP_CLOSE:
                self._finish(conn, payload[:2])
        self._watch(conn)

    def _serve_request(self, conn: _Connection, text: str) -> None:
        telemetry = self.state.telemetry
        session = conn.session
        began = telemetry.now()
        with span("server.request", session=session.session_id):
            reply, done, meta = self._serve_frame(session, text)
        # Encode once and let the text go, so that framing and sending
        # hold the reply only once.
        body = reply.encode("utf-8")
        del reply
        telemetry.observe(
            RequestRecord(
                session=session.session_id,
                op=meta["op"],
                began_s=began,
                wall_s=telemetry.now() - began,
                bytes_in=len(text.encode("utf-8")),
                bytes_out=len(body),
                tier=meta["tier"],
                ok=meta["ok"],
                code=meta["code"],
            )
        )
        # Account the request, and end a finished session, before the
        # client can see the reply.
        if done:
            self._end_session(conn)
        self._send_frame(conn, OP_TEXT, body)
        if done:
            self._finish(conn, _CLOSE_NORMAL)
        elif "stream" in meta and not conn.closed:
            conn.stream = [meta["stream"], 0]
            self._schedule_push(conn)

    def _schedule_push(self, conn: _Connection) -> None:
        self._push_seq += 1
        due = time.monotonic() + conn.stream[0]["interval_s"]
        heapq.heappush(self._pushes, (due, self._push_seq, conn))

    def _push_stats(self, conn: _Connection) -> None:
        """Send the next push frame of *conn*'s ``stats_stream``.

        The stream's parameters are the validated subscription the op
        handler returned (``interval_s`` / ``count`` / ``prefix``).
        Each push is a :func:`~repro.server.protocol.push_envelope` of
        kind ``"stats"`` carrying the registry snapshot (non-finite
        values filtered — canonical JSON rejects NaN) and the server
        uptime.  A vanished client simply ends the stream; the last
        push resumes serving the session's requests.
        """
        if conn.closed or conn.stream is None:
            return
        params, seq = conn.stream
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
        self._send_frame(conn, OP_TEXT, canonical_json(frame).encode("utf-8"))
        if conn.closed:
            return
        if seq + 1 < params["count"]:
            conn.stream[1] = seq + 1
            self._schedule_push(conn)
        else:
            conn.stream = None
            self._serve_buffered(conn)

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
        reply, meta = self.state.handle_frame(session, text)
        done = meta["ok"] and meta["op"] == "bye"
        if meta["ok"] and meta["op"] == "stats_stream":
            meta = dict(meta, stream=json.loads(reply)["result"])
        return reply, done, meta


def _ephemeral_session(state: SharedServerState):
    """An unregistered shared-data session for one-shot HTTP renders."""
    from repro.core.session import AnalysisSession

    return AnalysisSession(
        state.trace,
        seed=SESSION_SEED,
        shared=state.shared,
        result_cache=state.cache,
        session_id="render",
    )


def _parse_head(head: bytes) -> tuple[str, str, dict]:
    """``(method, target, lowercase-header dict)`` of one request head.

    Raises :class:`ValueError` for anything that is not one.
    """
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


def _json(payload: dict) -> bytes:
    """The body of a JSON HTTP response."""
    return json.dumps(payload, sort_keys=True).encode("utf-8")


_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 500: "Internal Server Error",
    503: "Service Unavailable",
}
