"""Shared-vs-per-session state split of the analysis server.

Exactly one :class:`SharedServerState` exists per server process.  It
owns everything **immutable or cross-session**: the loaded trace, the
:class:`~repro.core.aggengine.SharedTraceData` (hierarchy, signal
banks, unit structures, layout seeds — built once), the
:class:`~repro.server.cache.SharedResultCache` of combined unit values,
and the session registry.

Each connected analyst gets one :class:`SessionState`: a thin wrapper
over a full single-user :class:`~repro.core.session.AnalysisSession`
(time cursors, grouping, dynamic layout positions) plus the op
dispatch table that turns decoded protocol messages into views.

:meth:`SessionState.local` builds the **differential oracle**: the same
wrapper over a fresh, completely isolated ``AnalysisSession`` (no
shared structures, no result cache).  The cross-session differential
test replays a storm through both and compares canonical bytes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.core.aggengine import SharedTraceData
from repro.core.session import AnalysisSession
from repro.errors import AggregationError, HierarchyError, ReproError
from repro.obs.registry import registry
from repro.server.cache import SharedResultCache
from repro.server.protocol import (
    ERROR_CODES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_request,
    error_envelope,
    ok_envelope,
    require_finite,
    require_int,
    require_path,
    view_payload,
)
from repro.server.telemetry import ServerTelemetry

__all__ = ["ServerConfig", "SessionState", "SharedServerState"]


@dataclass(frozen=True)
class ServerConfig:
    """Tunables of one server process (CLI flags of ``repro serve``)."""

    #: Interface to bind.
    host: str = "127.0.0.1"
    #: TCP port; 0 picks a free one (reported by :attr:`ReproServer.port`).
    port: int = 0
    #: Concurrent session ceiling; past it new sessions get
    #: ``session_limit`` errors.
    max_sessions: int = 64
    #: Layout relaxation steps per returned view.  Small values keep
    #: scrub latency interactive; the storm tests use 1.
    settle_steps: int = 2
    #: Layout determinism seed given to every session (and to the
    #: differential oracle).
    seed: int = 0
    #: Capacity of the shared result cache, in metric results held
    #: (a view of four metrics takes four).
    cache_entries: int = 4096
    #: Path of the JSONL access log (one object per request); ``None``
    #: disables it.  CLI flag ``--access-log``.
    access_log: str | None = None


class SessionState:
    """One analyst's connection: a session plus the op dispatch.

    Parameters
    ----------
    session_id:
        Stable identity, also the result-cache attribution token.
    session:
        The wrapped :class:`~repro.core.session.AnalysisSession`.
    settle_steps:
        Layout steps run for every view-producing op.
    """

    def __init__(
        self,
        session_id: str,
        session: AnalysisSession,
        settle_steps: int = 2,
    ) -> None:
        self.session_id = session_id
        self.session = session
        self.settle_steps = settle_steps
        self.moves = 0
        self._renderer = None  # built by the first ``svg`` op

    @classmethod
    def local(
        cls,
        trace,
        seed: int = 0,
        settle_steps: int = 2,
        session_id: str = "local",
    ) -> "SessionState":
        """A fresh, fully isolated session over *trace*.

        The differential oracle: same dispatch code, same seed, but a
        private :class:`~repro.core.aggengine.SharedTraceData` and no
        result cache — nothing can leak in from other sessions.
        """
        return cls(
            session_id,
            AnalysisSession(trace, seed=seed),
            settle_steps=settle_steps,
        )

    # ------------------------------------------------------------------
    # Op dispatch
    # ------------------------------------------------------------------
    def apply(self, msg: dict) -> dict:
        """Execute one decoded request, returning the result payload.

        Raises :class:`~repro.server.protocol.ProtocolError` on any
        malformed or unserviceable request; the caller wraps either
        outcome in the reply envelope.  Session state only changes when
        the op succeeds, so a session stays usable after an error.
        """
        op = msg.get("op")
        if not isinstance(op, str):
            raise ProtocolError("bad_request", "request has no 'op' string")
        handler = self._OPS.get(op)
        if handler is None:
            raise ProtocolError("unknown_op", f"unknown op {op!r}")
        result = handler(self, msg)
        self.moves += 1
        return result

    def _view_result(self, metrics=None) -> dict:
        view = self.session.view(
            settle_steps=self.settle_steps, metrics=metrics
        )
        return view_payload(view)

    def _op_hello(self, msg: dict) -> dict:
        """Session handshake: identity plus the trace's vital signs."""
        start, end = self.session.trace.span()
        return {
            "session": self.session_id,
            "protocol": PROTOCOL_VERSION,
            "entities": len(self.session.hierarchy),
            "metrics": sorted(self.session.metric_names()),
            "span": [start, end],
            "max_depth": self.session.hierarchy.max_depth(),
        }

    def _op_scrub(self, msg: dict) -> dict:
        """Move the time slice; returns the resulting view payload."""
        start = require_finite(msg, "start", code="bad_slice")
        end = require_finite(msg, "end", code="bad_slice")
        if end < start:
            raise ProtocolError(
                "bad_slice", f"slice end {end} precedes start {start}"
            )
        previous = self.session.time_slice
        self.session.set_time_slice(start, end)
        try:
            return self._view_result()
        except AggregationError as err:
            # The integrals overflowed: keep the slice the session had.
            self.session.set_time_slice(previous.start, previous.end)
            raise ProtocolError("bad_slice", str(err)) from None

    def _op_group(self, msg: dict) -> dict:
        """Collapse the group at ``path``; returns the view payload."""
        path = require_path(msg)
        try:
            self.session.aggregate(path)
        except HierarchyError as err:
            raise ProtocolError("unknown_group", str(err)) from None
        return self._view_result()

    def _op_ungroup(self, msg: dict) -> dict:
        """Expand the group at ``path``; returns the view payload."""
        path = require_path(msg)
        try:
            self.session.disaggregate(path)
        except HierarchyError as err:
            raise ProtocolError("unknown_group", str(err)) from None
        return self._view_result()

    def _op_depth(self, msg: dict) -> dict:
        """Show exactly hierarchy level ``depth`` (0 = full detail)."""
        depth = require_int(msg, "depth", minimum=0, code="bad_depth")
        if depth == 0:
            self.session.disaggregate_all()
        else:
            self.session.aggregate_depth(depth)
        return self._view_result()

    def _op_expand_all(self, msg: dict) -> dict:
        """Back to the fully detailed view."""
        self.session.disaggregate_all()
        return self._view_result()

    def _op_view(self, msg: dict) -> dict:
        """The current view, optionally restricted to some ``metrics``."""
        metrics = msg.get("metrics")
        if metrics is not None:
            if not isinstance(metrics, list) or not all(
                isinstance(m, str) for m in metrics
            ):
                raise ProtocolError(
                    "bad_request", "field 'metrics' must be a list of strings"
                )
            known = set(self.session.metric_names())
            for metric in metrics:
                if metric not in known:
                    raise ProtocolError(
                        "unknown_metric", f"unknown metric {metric!r}"
                    )
        return self._view_result(metrics=metrics)

    def _op_svg(self, msg: dict) -> dict:
        """The current view rendered as an SVG document string."""
        view = self.session.view(settle_steps=self.settle_steps)
        if self._renderer is None:
            from repro.core.render.svg import SvgRenderer

            self._renderer = SvgRenderer()
        markup = self._renderer.render(view)
        return {"svg": markup, "nodes": len(view)}

    def _op_stats(self, msg: dict) -> dict:
        """Per-session counters (moves, aggregation-engine stats and the
        layout's repulsion counts, which repeat for a given seed)."""
        return {
            "session": self.session_id,
            "moves": self.moves,
            "agg": dict(self.session.aggregation_stats),
            "layout": dict(self.session.dynamic.stats),
        }

    def _op_stats_stream(self, msg: dict) -> dict:
        """Subscribe to server-initiated registry-snapshot pushes.

        Validates and echoes the subscription (``interval`` seconds
        between pushes, ``count`` pushes, optional snapshot name
        ``prefix``); the transport layer
        (:meth:`repro.server.app.ReproServer._stream_stats`) sends the
        actual push frames after this reply.  The op is deliberately
        side-effect-free on session state so the differential oracle
        replays it byte-identically.
        """
        interval = (
            require_finite(msg, "interval") if "interval" in msg else 1.0
        )
        if interval < 0:
            raise ProtocolError(
                "bad_request", "field 'interval' must be >= 0"
            )
        if interval > 3600:
            raise ProtocolError(
                "bad_request", "field 'interval' must be <= 3600 seconds"
            )
        count = (
            require_int(msg, "count", minimum=1) if "count" in msg else 1
        )
        if count > 10000:
            raise ProtocolError(
                "bad_request", "field 'count' must be <= 10000"
            )
        prefix = msg.get("prefix", "")
        if not isinstance(prefix, str):
            raise ProtocolError(
                "bad_request", "field 'prefix' must be a string"
            )
        return {
            "streaming": True,
            "interval_s": interval,
            "count": count,
            "prefix": prefix,
        }

    def _op_bye(self, msg: dict) -> dict:
        """Orderly goodbye; the server closes the socket after replying."""
        return {"closed": True}

    _OPS = {
        "hello": _op_hello,
        "scrub": _op_scrub,
        "group": _op_group,
        "ungroup": _op_ungroup,
        "depth": _op_depth,
        "expand_all": _op_expand_all,
        "view": _op_view,
        "svg": _op_svg,
        "stats": _op_stats,
        "stats_stream": _op_stats_stream,
        "bye": _op_bye,
    }


class SharedServerState:
    """Everything one server process shares across its sessions."""

    def __init__(self, trace, config: ServerConfig | None = None) -> None:
        self.trace = trace
        self.config = config or ServerConfig()
        self.shared = SharedTraceData(trace)
        self.cache = SharedResultCache(self.config.cache_entries)
        self.sessions: dict[str, SessionState] = {}
        self._ids = itertools.count(1)
        #: lifecycle counters, a :class:`repro.obs.StatGroup`
        #: registered under the ``server`` namespace.  Every typed
        #: protocol error code is pre-seeded at zero so the
        #: ``errors.<code>`` key set always equals ``ERROR_CODES``
        #: (parity pinned by ``tests/test_server_telemetry.py``).
        initial: dict[str, int] = {
            "sessions_opened": 0,
            "sessions_closed": 0,
            "sessions_rejected": 0,
            "requests": 0,
            "errors": 0,
            "http_requests": 0,
            "bytes_in": 0,
            "bytes_out": 0,
        }
        for code in ERROR_CODES:
            initial[f"errors.{code}"] = 0
        self.stats: dict[str, int] = registry.group("server", initial)
        #: The per-request accounting funnel (histograms, access log,
        #: self-trace recorder) — see :mod:`repro.server.telemetry`.
        self.telemetry = ServerTelemetry(
            self.stats, access_log=self.config.access_log
        )
        # Pay the hierarchy build at startup, not on first connect.
        self.shared.hierarchy
        #: entities per kind, for ``/info``
        self._kinds = trace.table.kind_counts()

    def create_session(self) -> SessionState:
        """Open a new session attached to the shared structures.

        Raises ``session_limit`` once :attr:`ServerConfig.max_sessions`
        sessions are live.
        """
        if len(self.sessions) >= self.config.max_sessions:
            self.stats["sessions_rejected"] += 1
            self.record_error("session_limit")
            raise ProtocolError(
                "session_limit",
                f"server is at its limit of "
                f"{self.config.max_sessions} concurrent sessions",
            )
        session_id = f"s{next(self._ids)}"
        state = SessionState(
            session_id,
            AnalysisSession(
                self.trace,
                seed=self.config.seed,
                shared=self.shared,
                result_cache=self.cache,
                session_id=session_id,
            ),
            settle_steps=self.config.settle_steps,
        )
        self.sessions[session_id] = state
        self.stats["sessions_opened"] += 1
        return state

    def close_session(self, session_id: str) -> None:
        """Drop a session from the registry (idempotent)."""
        state = self.sessions.pop(session_id, None)
        if state is not None:
            state.session.close()
            self.stats["sessions_closed"] += 1

    def record_error(self, code: str) -> None:
        """Count one produced error envelope, total and per typed code.

        The *single* error-accounting site: every path that builds an
        error envelope — frame decode, op dispatch, session admission,
        HTTP endpoints — funnels through here, so the total ``errors``
        counter and the per-code ``errors.<code>`` breakdown cannot
        drift apart.
        """
        if code not in ERROR_CODES:
            code = "server_error"
        self.stats["errors"] += 1
        self.stats[f"errors.{code}"] += 1

    def dispatch(self, state: SessionState, msg: dict) -> dict:
        """Apply *msg* to *state*, producing a reply envelope dict.

        Protocol errors become typed error envelopes; any other
        :class:`~repro.errors.ReproError` becomes ``server_error``.
        Never raises for request-level failures.
        """
        request_id = msg.get("id")
        op = msg.get("op")
        self.stats["requests"] += 1
        try:
            result = state.apply(msg)
        except ProtocolError as err:
            self.record_error(err.code)
            return error_envelope(request_id, err.code, err.message)
        except ReproError as err:
            self.record_error("server_error")
            return error_envelope(request_id, "server_error", str(err))
        return ok_envelope(request_id, op, result)

    def handle_frame(self, state: SessionState, text: str) -> tuple[dict, dict]:
        """Decode and dispatch one raw frame: envelope plus metadata.

        Returns ``(envelope, meta)`` where *meta* carries what the
        telemetry layer needs to account the request without re-parsing
        the reply: ``op`` (``"invalid"`` for undecodable frames),
        ``ok``, the error ``code`` (or ``""``), and the cache ``tier``
        that served it — one of
        :data:`~repro.server.telemetry.CACHE_TIERS`, as the result
        cache answered the session's lookups during the dispatch
        (``none`` when it made none).  Never raises for request-level
        failures.
        """
        meta = {"op": "invalid", "ok": False, "code": "", "tier": "none"}
        try:
            msg = decode_request(text)
        except ProtocolError as err:
            self.stats["requests"] += 1
            self.record_error(err.code)
            meta["code"] = err.code
            return error_envelope(None, err.code, err.message), meta
        op = msg.get("op")
        if isinstance(op, str) and op in SessionState._OPS:
            meta["op"] = op
        envelope = self.dispatch(state, msg)
        meta["ok"] = bool(envelope.get("ok"))
        if not meta["ok"]:
            meta["code"] = envelope.get("error", {}).get("code", "")
        meta["tier"] = self.cache.take_tier(state.session_id) or "none"
        return envelope, meta

    def info(self) -> dict:
        """The ``/info`` endpoint payload: trace and server vitals."""
        start, end = self.trace.span()
        return {
            "protocol": PROTOCOL_VERSION,
            "entities": len(self.shared.hierarchy),
            "kinds": dict(self._kinds),
            "metrics": sorted(self.trace.metric_names()),
            "span": [start, end],
            "sessions": len(self.sessions),
            "max_sessions": self.config.max_sessions,
        }

    def stats_payload(self) -> dict:
        """The ``/stats`` endpoint payload: server + cache counters."""
        return {
            "server": dict(self.stats),
            "cache": self.cache.snapshot(),
            "shared": dict(self.shared.stats),
        }

    def health_payload(self) -> dict:
        """The ``/healthz`` readiness payload.

        Besides the liveness bit, reports what a load balancer or
        operator needs to judge readiness: live session count against
        the ceiling, shared-cache occupancy, uptime and requests
        served.
        """
        return {
            "ok": True,
            "sessions": len(self.sessions),
            "max_sessions": self.config.max_sessions,
            "cache_entries": self.cache.snapshot().get("size", 0),
            "uptime_s": round(self.telemetry.now(), 3),
            "requests": self.stats["requests"],
        }
