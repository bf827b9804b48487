"""Request-level observability of the analysis server.

Every request the server handles — WebSocket protocol frames and plain
HTTP endpoints alike — flows through one :class:`ServerTelemetry`
funnel as a :class:`RequestRecord`: session id, op, bytes in/out, the
cache tier that served it, wall time and outcome.  From that single
stream the module derives every view the observability tentpole needs:

* **per-op latency histograms** — one
  :class:`~repro.obs.registry.Histogram` per op under the registry name
  :data:`REQUEST_HISTOGRAM` (label ``op=...``), the source of
  ``/metrics`` bucket series, the ``repro loadtest`` per-op breakdown
  and the ``repro top`` table;
* a **structured access log** — one JSON object per request, written
  through :class:`~repro.obs.export.JsonlWriter` (the same
  one-line-flushed discipline as the span JSONL sink), tailable while
  the server runs;
* the **self-trace** — when a :class:`ServerRecorder` is attached as
  :attr:`ServerTelemetry.recorder` (``repro serve --self-trace``), it
  keeps the latest requests and freezes them into a repro-format trace
  (one entity per session, one per cache tier, request spans as
  states, cache hits as events) so ``repro render`` can draw the
  server's own topology: the tool watching itself serve.

The always-on accounting costs about a microsecond per request —
gated under the 5% bound in ``benchmarks/test_obs_overhead.py`` —
while the span integration (``server.request`` spans feeding
``repro profile``-style traces) stays behind the usual ``REPRO_OBS``
switch.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import IO, Mapping, MutableMapping

from repro.obs.registry import Histogram, latency_summary, registry
from repro.trace.trace import CAPACITY, Trace, USAGE

__all__ = [
    "ACCESS_LOG_VERSION",
    "CACHE_TIERS",
    "REQUEST_HISTOGRAM",
    "RequestRecord",
    "ServerRecorder",
    "ServerTelemetry",
    "format_breakdown",
]

#: Bumped on any incompatible change to the access-log line schema.
ACCESS_LOG_VERSION = 1

#: Where a request's answer came from, most to least shared, as the
#: result cache answered the request's lookups
#: (:meth:`~repro.server.cache.SharedResultCache.take_tier`):
#: ``shared`` — an entry another session computed; ``local`` — an
#: entry the session computed itself; ``fresh`` — a miss, recomputed
#: from the slice means; ``none`` — the op looked nothing up (hello,
#: stats, bye, errors).
CACHE_TIERS = ("shared", "local", "fresh", "none")

#: Registry name of the per-op request-latency histograms (one
#: instance per ``op=...`` label).
REQUEST_HISTOGRAM = "server.request_seconds"


@dataclass(frozen=True)
class RequestRecord:
    """One served request, fully attributed.

    ``began_s`` is seconds since the telemetry epoch (server start), so
    records order naturally and the self-trace needs no clock fixups.
    ``tier`` is one of :data:`CACHE_TIERS`; ``code`` is the protocol
    error code for failed requests and ``""`` on success.
    """

    session: str
    op: str
    began_s: float
    wall_s: float
    bytes_in: int
    bytes_out: int
    tier: str
    ok: bool
    code: str = ""


class ServerTelemetry:
    """The single funnel every served request is accounted through.

    Parameters
    ----------
    stats:
        The server's ``"server"`` :class:`~repro.obs.StatGroup`; gains
        the ``bytes_in`` / ``bytes_out`` totals as requests arrive (the
        per-op request histogram counts the requests of each op).
    access_log:
        Optional path (or open text stream) for the JSONL access log;
        ``None`` disables it.
    """

    def __init__(
        self,
        stats: MutableMapping[str, float],
        access_log: "str | Path | IO[str] | None" = None,
    ) -> None:
        self.t0 = perf_counter()
        self.stats = stats
        #: The self-trace recorder; ``None`` (nothing kept) unless a
        #: caller that builds a self-trace attaches one, as ``repro
        #: serve --self-trace`` does.
        self.recorder: ServerRecorder | None = None
        self._log = None
        if access_log is not None:
            from repro.obs.export import JsonlWriter

            self._log = JsonlWriter(access_log)
        self._histograms: dict[str, Histogram] = {}

    def now(self) -> float:
        """Seconds since the telemetry epoch (server start)."""
        return perf_counter() - self.t0

    def _histogram(self, op: str) -> Histogram:
        found = self._histograms.get(op)
        if found is None:
            found = registry.histogram(REQUEST_HISTOGRAM, op=op)
            self._histograms[op] = found
        return found

    def observe(self, record: RequestRecord) -> None:
        """Account one completed request everywhere at once.

        Feeds the per-op histogram, the byte totals of the ``"server"``
        stat group, the access log (when enabled) and the self-trace
        recorder (when attached).  Small and allocation-light by design:
        this runs on every request, always.
        """
        self._histogram(record.op).observe(record.wall_s)
        stats = self.stats
        stats["bytes_in"] = stats.get("bytes_in", 0) + record.bytes_in
        stats["bytes_out"] = stats.get("bytes_out", 0) + record.bytes_out
        if self.recorder is not None:
            self.recorder.record(record)
        if self._log is not None:
            from repro.obs.export import jsonable_attrs

            self._log.write(
                jsonable_attrs(
                    {
                        "v": ACCESS_LOG_VERSION,
                        "ts_s": round(record.began_s, 9),
                        "session": record.session,
                        "op": record.op,
                        "wall_s": round(record.wall_s, 9),
                        "bytes_in": record.bytes_in,
                        "bytes_out": record.bytes_out,
                        "tier": record.tier,
                        "ok": record.ok,
                        "code": record.code,
                    }
                )
            )

    def close(self) -> None:
        """Close the access log (idempotent; no-op when disabled)."""
        if self._log is not None:
            self._log.close()
            self._log = None


def _breakdown_between(before: dict, after: dict) -> dict:
    """The per-op latency summary of the interval between two scrapes.

    *before* and *after* are :func:`~repro.server.client.scrape_breakdown`
    results; returns ``{op: {count, mean_s, p50_s, p95_s, p99_s}}``
    (:func:`~repro.obs.registry.latency_summary`) for every op with at
    least one request in between.
    """
    out: dict[str, dict[str, float]] = {}
    for op, (bounds, state) in sorted(after.items()):
        since = before.get(op)
        row = latency_summary(bounds, state, since[1] if since else None)
        if row["count"] > 0:
            out[op] = row
    return out


def format_breakdown(breakdown: Mapping[str, Mapping[str, float]]) -> str:
    """The per-op breakdown as an aligned text table.

    One row per op sorted by total time share, milliseconds throughout —
    the block :func:`~repro.server.load.format_report` ends with, as
    ``repro loadtest`` prints it.
    """
    if not breakdown:
        return "  (no requests observed)"
    rows = sorted(
        breakdown.items(),
        key=lambda item: -(item[1]["mean_s"] * item[1]["count"]),
    )
    width = max(len(op) for op, _ in rows)
    width = max(width, len("op"))
    lines = [
        f"  {'op':<{width}} {'count':>7} {'mean ms':>9} "
        f"{'p50 ms':>9} {'p95 ms':>9} {'p99 ms':>9}"
    ]
    for op, row in rows:
        lines.append(
            f"  {op:<{width}} {int(row['count']):>7} "
            f"{row['mean_s'] * 1e3:>9.3f} {row['p50_s'] * 1e3:>9.3f} "
            f"{row['p95_s'] * 1e3:>9.3f} {row['p99_s'] * 1e3:>9.3f}"
        )
    return "\n".join(lines)


class ServerRecorder:
    """The latest request records, frozen into a self-trace.

    The serving analogue of :meth:`repro.obs.profiler.Profiler.build_trace`:
    where the profiler draws the *pipeline's* stages, the recorder
    draws the *server's* topology — sessions and cache tiers as
    entities, request spans as states, cache hits as point events — in
    the repro trace format, so the server can be rendered by the very
    visualization it serves.
    """

    def __init__(self, max_records: int = 20000) -> None:
        self.records: deque[RequestRecord] = deque(maxlen=max_records)
        self.max_records = max_records
        self.dropped = 0

    def record(self, record: RequestRecord) -> None:
        """Keep *record*; when full, drop the oldest and count it."""
        if len(self.records) == self.max_records:
            self.dropped += 1
        self.records.append(record)

    def build_trace(self, max_points: int = 4000) -> Trace:
        """Freeze the recorded interval into a repro-format self-trace.

        * one entity of kind ``"session"`` per session id under
          ``server/sessions/<id>`` — ``usage`` counts its in-flight
          requests (0/1 for the serialized event loop), ``capacity`` 1,
          plus ``requests`` / ``busy_s`` / ``bytes_in`` / ``bytes_out``
          constants;
        * one entity of kind ``"tier"`` per cache tier under
          ``server/cache/<tier>`` — ``usage`` is the cumulative request
          count served by that tier, ``capacity`` the total request
          count, so the default fill mapping shows each tier's share;
        * request spans double as ``"state"`` point events (the op name
          as the state), so ``repro timeline`` draws the serving Gantt;
        * each cache hit lands as a ``"hit"`` point event on its tier
          entity (capped by *max_points*, drops recorded in meta);
        * sessions connect to the tiers they were served from.
        """
        from repro.trace.builder import TraceBuilder

        builder = TraceBuilder()
        builder.set_meta("generator", "repro.server.telemetry")
        builder.declare_metric(CAPACITY, "req", "concurrency/request budget")
        builder.declare_metric(USAGE, "req", "in-flight or served requests")
        builder.declare_metric("requests", "req", "requests accounted")
        builder.declare_metric("busy_s", "s", "seconds spent serving")
        builder.declare_metric("bytes_in", "B", "request payload bytes")
        builder.declare_metric("bytes_out", "B", "reply payload bytes")
        records = sorted(self.records, key=lambda r: (r.began_s, r.session))
        sessions: dict[str, list[RequestRecord]] = {}
        tiers: dict[str, list[RequestRecord]] = {}
        end_time = 0.0
        for record in records:
            sessions.setdefault(record.session, []).append(record)
            tiers.setdefault(record.tier, []).append(record)
            end_time = max(end_time, record.began_s + record.wall_s)
        points = 0
        dropped = 0
        for session in sorted(sessions):
            rows = sessions[session]
            builder.declare_entity(
                session, "session", ("server", "sessions", session)
            )
            builder.set_constant(session, CAPACITY, 1.0)
            builder.set_constant(session, "requests", float(len(rows)))
            builder.set_constant(
                session, "busy_s", sum(r.wall_s for r in rows)
            )
            builder.set_constant(
                session, "bytes_in", float(sum(r.bytes_in for r in rows))
            )
            builder.set_constant(
                session, "bytes_out", float(sum(r.bytes_out for r in rows))
            )
            builder.record_busy(
                session,
                USAGE,
                ((r.began_s, r.began_s + r.wall_s) for r in rows),
            )
            for row in rows:
                builder.point(
                    row.began_s, "state", session, "server", state=row.op
                )
                builder.point(
                    row.began_s + row.wall_s,
                    "state",
                    session,
                    "server",
                    state="idle",
                )
            builder.point(end_time, "state", session, "server", state="end")
        total = float(len(records)) or 1.0
        for tier in sorted(tiers):
            rows = tiers[tier]
            builder.declare_entity(tier, "tier", ("server", "cache", tier))
            builder.set_constant(tier, CAPACITY, total)
            builder.set_constant(tier, "requests", float(len(rows)))
            builder.set_constant(tier, "busy_s", sum(r.wall_s for r in rows))
            served = 0
            builder.record(tier, USAGE, 0.0, 0.0)
            for row in rows:
                served += 1
                builder.record(
                    tier,
                    USAGE,
                    max(row.began_s + row.wall_s, 0.0),
                    float(served),
                )
                if tier in ("shared", "local"):
                    if points >= max_points:
                        dropped += 1
                        continue
                    points += 1
                    builder.point(
                        row.began_s + row.wall_s,
                        "hit",
                        tier,
                        row.session,
                        op=row.op,
                        ms=round(row.wall_s * 1e3, 6),
                    )
        connected: set[tuple[str, str]] = set()
        for record in records:
            pair = (record.session, record.tier)
            if pair not in connected:
                connected.add(pair)
                builder.connect(record.session, record.tier, source="server")
        builder.set_meta("end_time", end_time if records else 1.0)
        builder.set_meta("requests", len(records))
        if self.dropped:
            builder.set_meta("dropped_records", self.dropped)
        if dropped:
            builder.set_meta("dropped_points", dropped)
        return builder.build()
