"""Multi-session analysis server (ROADMAP item 1).

A long-lived service that loads a trace **once** into the shared
immutable structures of
:class:`~repro.core.aggengine.SharedTraceData` and serves many
concurrent analysis sessions over HTTP + WebSocket: slice scrubs,
group/ungroup, layout frames and rendered SVG tiles.  Aggregation work
is shared across sessions through a process-wide
:class:`~repro.server.cache.SharedResultCache`, so N analysts scrubbing
the same region hit each other's work.

Layers (one module each):

* :mod:`repro.server.protocol` — canonical-JSON wire envelopes, typed
  :class:`~repro.server.protocol.ProtocolError` codes, view payloads;
* :mod:`repro.server.cache` — the shared LRU result cache with
  hit/miss/eviction/cross-hit counters in the obs registry;
* :mod:`repro.server.state` — shared-vs-per-session state split and
  the op dispatch (:class:`~repro.server.state.SessionState.apply`);
* :mod:`repro.server.ws` — stdlib RFC 6455 WebSocket codec (no I/O);
* :mod:`repro.server.telemetry` — per-request accounting: latency
  histograms, the JSONL access log, and the
  :class:`~repro.server.telemetry.ServerRecorder` self-trace;
* :mod:`repro.server.app` — the HTTP/WS server, one ``selectors`` loop
  (including ``GET /metrics`` Prometheus exposition and
  ``stats_stream`` pushes);
* :mod:`repro.server.client` — a minimal asyncio WebSocket client;
* :mod:`repro.server.load` — deterministic scrub storms, the
  concurrent load harness and the differential oracle replay.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".app": ("ReproServer",),
    ".cache": ("SharedResultCache",),
    ".client": ("WsClient", "http_get"),
    ".load": (
        "format_report", "make_storm", "replay_storm_local", "run_load",
    ),
    ".protocol": (
        "PROTOCOL_VERSION", "ProtocolError", "canonical_json", "push_envelope",
        "view_payload",
    ),
    ".state": ("ServerConfig", "SessionState", "SharedServerState"),
    ".telemetry": ("RequestRecord", "ServerRecorder", "ServerTelemetry"),
})

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ReproServer",
    "RequestRecord",
    "ServerConfig",
    "ServerRecorder",
    "ServerTelemetry",
    "SessionState",
    "SharedResultCache",
    "SharedServerState",
    "WsClient",
    "canonical_json",
    "format_report",
    "http_get",
    "make_storm",
    "push_envelope",
    "replay_storm_local",
    "run_load",
    "view_payload",
]
