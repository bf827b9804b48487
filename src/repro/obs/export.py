"""Telemetry export: spans and snapshots in interoperable formats.

The :mod:`repro.obs` layer records everything in-process — span
intervals in a :class:`~repro.obs.profiler.Profiler`, aggregates in the
:data:`~repro.obs.registry.registry`.  This module gets that data *out*
in three shapes, from most to least structured:

* **Chrome trace-event JSON** (:func:`write_chrome_trace`) — the
  ``{"traceEvents": [...]}`` format understood by Perfetto and
  ``chrome://tracing``: one ``ph: "X"`` *complete* event per span with
  microsecond ``ts``/``dur``, the span family as the category, and the
  span attributes as ``args``.  Load the file in a trace viewer and the
  pipeline's own timeline appears next to everyone else's.
* **Streaming span JSONL** (:class:`JsonlSpanSink`) — one JSON object
  per line, flushed as each span closes, so the file is tailable while
  the process still runs (the crash-forensics property the in-memory
  profiler cannot offer).  :func:`read_jsonl_spans` round-trips it.
* **Flat snapshot text** (:func:`format_snapshot`,
  :func:`write_snapshot`) — ``registry.snapshot()`` as sorted
  ``name value`` lines, the lowest-tech diffable dump.

All three are wired into the CLI: ``repro profile run.trace
--chrome out.json --jsonl out.jsonl --snapshot out.txt``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from time import perf_counter
from typing import IO, Iterable, Mapping

__all__ = [
    "CHROME_PID",
    "CAUSAL_PID",
    "jsonable_attrs",
    "chrome_trace_events",
    "write_chrome_trace",
    "causal_chrome_events",
    "write_causal_chrome_trace",
    "JsonlWriter",
    "JsonlSpanSink",
    "read_jsonl_spans",
    "format_snapshot",
    "write_snapshot",
]

#: The synthetic process id used for every event: the pipeline is one
#: single-threaded process, so one (pid, tid) lane per span family
#: keeps the trace-viewer rows readable.
CHROME_PID = 1

#: The synthetic process id for *simulated* (causal) spans, so a causal
#: trace and the pipeline's own profile can share one viewer file
#: without lane collisions.
CAUSAL_PID = 2


def _family(name: str) -> str:
    """The span family — the name up to the first dot."""
    return name.split(".", 1)[0]


def jsonable_attrs(attrs: Mapping) -> dict:
    """Span attributes coerced to JSON-serializable values.

    This is the *single* serialization rule for span attributes —
    :func:`chrome_trace_events` and :class:`JsonlSpanSink` both call it,
    so ``span(..., nodes=7, ratio=0.5, ok=True)`` round-trips to the
    same JSON values in every exporter (the two used to be free to
    drift).  str/int/float/bool/None pass through natively; non-finite
    floats (``nan``/``inf``, invalid in strict JSON and rejected by
    trace viewers) and everything else stringify via ``repr``.
    """
    out = {}
    for key, value in attrs.items():
        if isinstance(value, float) and not math.isfinite(value):
            out[str(key)] = repr(value)
        elif isinstance(value, (str, int, float, bool)) or value is None:
            out[str(key)] = value
        else:
            out[str(key)] = repr(value)
    return out


class _ChromeEvents:
    """A Chrome trace-event list for one synthetic process.

    Opens with the ``process_name`` metadata event; :meth:`lane` hands
    out one ``tid`` per lane name, announcing each with a
    ``thread_name`` metadata event on first use; :meth:`complete`
    appends a ``ph: "X"`` event (``ts``/``dur`` in microseconds).
    """

    def __init__(self, pid: int, process_name: str) -> None:
        self.pid = pid
        self.lanes: dict[str, int] = {}
        self.events: list[dict] = []
        self._metadata("process_name", 0, process_name)

    def _metadata(self, kind: str, tid: int, name: str) -> None:
        self.events.append(
            {"name": kind, "ph": "M", "pid": self.pid, "tid": tid,
             "args": {"name": name}}
        )

    def lane(self, name: str) -> int:
        """The ``tid`` of lane *name*, named by metadata on first use."""
        tid = self.lanes.get(name)
        if tid is None:
            tid = self.lanes[name] = len(self.lanes) + 1
            self._metadata("thread_name", tid, name)
        return tid

    def complete(
        self, name: str, cat: str, lane: str, ts_s: float, dur_s: float,
        attrs: Mapping,
    ) -> None:
        """Append one complete event on *lane* (times in seconds)."""
        tid = self.lane(lane)
        self.events.append(
            {
                "name": name,
                "cat": cat,
                "ph": "X",
                "ts": ts_s * 1e6,
                "dur": max(dur_s, 0.0) * 1e6,
                "pid": self.pid,
                "tid": tid,
                "args": jsonable_attrs(attrs),
            }
        )


def _write_chrome(path: str | Path, events: list[dict], other: dict) -> Path:
    """Write *events* as the JSON-object flavor of the format."""
    path = Path(path)
    payload = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return path


def chrome_trace_events(profiler) -> list[dict]:
    """*profiler*'s spans as a Chrome trace-event list.

    Each completed span becomes one ``ph: "X"`` (complete) event with
    ``ts`` and ``dur`` in microseconds relative to the profiler's
    creation instant, ``cat`` set to the span family, and the span's
    attributes under ``args``.  Families map to thread lanes (one
    ``tid`` per family, named by metadata events), so Perfetto draws
    ``agg.*``, ``layout.*``, ``render.*`` ... as parallel tracks.
    """
    t0 = profiler.t0
    out = _ChromeEvents(CHROME_PID, "repro pipeline")
    spans: list[tuple[float, str, float, dict]] = []
    for name, intervals in profiler.intervals.items():
        for began, ended, attrs in intervals:
            spans.append((began, name, ended, attrs))
    spans.sort(key=lambda item: item[0])
    for began, name, ended, attrs in spans:
        family = _family(name)
        out.complete(
            name, family, family, max(began - t0, 0.0), ended - began, attrs
        )
    return out.events


def write_chrome_trace(profiler, path: str | Path) -> Path:
    """Write *profiler*'s spans as a Chrome trace-event JSON file.

    The file is the JSON-object flavor of the format (``traceEvents``
    plus ``displayTimeUnit``/``otherData``), loadable in Perfetto or
    ``chrome://tracing`` as-is.  Returns the written path.
    """
    return _write_chrome(
        path,
        chrome_trace_events(profiler),
        {"generator": "repro.obs.export", "wall_s": profiler.wall_s()},
    )


def causal_chrome_events(causal) -> list[dict]:
    """A :class:`~repro.obs.causal.CausalTrace` as Chrome trace events.

    Simulated processes map to thread lanes under :data:`CAUSAL_PID`
    (``ts`` is simulated seconds scaled to microseconds); every span —
    process roots, explicit phases and request spans alike — becomes a
    ``ph: "X"`` complete event, which nest naturally per lane.  Every
    cross-span :class:`~repro.simulation.tracing.CausalEdge` becomes a
    matched **flow-event pair**: ``ph: "s"`` on the sender's lane at
    ``sent_at`` and ``ph: "f"`` (``bp: "e"``: bind to the enclosing
    slice) on the receiver's lane, sharing an ``id`` — Perfetto draws
    these as arrows from send to recv, the message causality made
    visible.  The ``"f"`` event binds at
    ``max(delivered_at, recv_span.start)`` so it always lands inside
    the receiving slice.
    """
    out = _ChromeEvents(CAUSAL_PID, "simulated platform (causal)")
    for process in causal.processes():
        out.lane(process)
    for span in sorted(causal.spans, key=lambda s: (s.start, s.span_id)):
        out.complete(
            span.name, span.kind, span.process, span.start, span.duration,
            dict(span.attrs, span_id=span.span_id, host=span.host),
        )
    events = out.events
    for index, edge in enumerate(causal.edges):
        flow = {
            "name": edge.mailbox or "message",
            "cat": "causal",
            "id": index,
            "pid": CAUSAL_PID,
            "args": jsonable_attrs(
                {
                    "size": edge.size,
                    "latency": edge.latency,
                    "category": edge.category,
                }
            ),
        }
        recv = causal.span(edge.dst_span)
        events.append(
            dict(
                flow,
                ph="s",
                ts=edge.sent_at * 1e6,
                tid=out.lanes[edge.src_process],
            )
        )
        events.append(
            dict(
                flow,
                ph="f",
                bp="e",
                ts=max(edge.delivered_at, recv.start) * 1e6,
                tid=out.lanes[edge.dst_process],
            )
        )
    return events


def write_causal_chrome_trace(causal, path: str | Path) -> Path:
    """Write a causal trace as a Chrome/Perfetto JSON file.

    The :func:`causal_chrome_events` list wrapped in the JSON-object
    flavor of the format, with the simulated ``end_time`` recorded
    under ``otherData``.  Returns the written path.
    """
    return _write_chrome(
        path,
        causal_chrome_events(causal),
        {"generator": "repro.obs.causal", "end_time": causal.end_time},
    )


class JsonlWriter:
    """One-JSON-object-per-line streaming writer, flushed per record.

    The shared discipline behind every live log the library writes:
    sorted keys, one object per line, ``flush()`` after each write so
    the file is tailable while the process runs and survives a crash up
    to the last completed record.  :class:`JsonlSpanSink` (span
    exports) and the server's access log
    (:class:`repro.server.telemetry.ServerTelemetry`) are both built on
    it, so "JSONL" means exactly one thing across the codebase.

    *target* may be a path (the writer opens and owns the file) or an
    open text stream (borrowed, left open on :meth:`close`).
    """

    __slots__ = ("path", "_file", "_owns", "count")

    def __init__(self, target: str | Path | IO[str]) -> None:
        self.count = 0
        if hasattr(target, "write"):
            self.path = None
            self._file = target
            self._owns = False
        else:
            self.path = Path(target)
            self._file = self.path.open("w", encoding="utf-8")
            self._owns = True

    def write(self, obj: Mapping) -> None:
        """Append *obj* as one sorted-keys JSON line and flush."""
        self._file.write(json.dumps(obj, sort_keys=True) + "\n")
        self._file.flush()
        self.count += 1

    def close(self) -> None:
        """Close the underlying file if this writer opened it."""
        if self._owns:
            self._file.close()

    def __enter__(self) -> "JsonlWriter":
        """Context-manager entry: returns self."""
        return self

    def __exit__(self, *exc_info) -> bool:
        """Context-manager exit: closes the file, never swallows."""
        self.close()
        return False


class JsonlSpanSink(JsonlWriter):
    """A streaming span sink: one JSON object per line, flushed live.

    Implements the same ``record(name, began, ended, attrs)`` interface
    the :class:`~repro.obs.profiler.Profiler` consumes, so it can be
    attached directly (``attach_profiler(sink)``) or ride along a
    profiler (``Profiler(sink=sink)``).  Every record is written and
    flushed immediately — the file is usable while the process runs,
    and survives a crash up to the last completed span.

    Line schema (also what :func:`read_jsonl_spans` returns)::

        {"name": "layout.build", "ts_s": 0.00123, "dur_s": 0.0004,
         "attrs": {...}}

    ``ts_s`` is seconds since the sink was created (or since the
    explicit *t0* perf-counter origin, so it can share a profiler's
    clock).  Use as a context manager to close the file deterministically.
    """

    __slots__ = ("t0",)

    def __init__(self, target: str | Path | IO[str], t0: float | None = None) -> None:
        super().__init__(target)
        self.t0 = perf_counter() if t0 is None else t0

    def record(
        self, name: str, began: float, ended: float, attrs: dict | None = None
    ) -> None:
        """Append one completed span as a JSON line and flush."""
        self.write(
            {
                "name": name,
                "ts_s": max(began - self.t0, 0.0),
                "dur_s": max(ended - began, 0.0),
                "attrs": jsonable_attrs(attrs or {}),
            }
        )


def read_jsonl_spans(source: str | Path | Iterable[str]) -> list[dict]:
    """Parse a span JSONL file (or iterable of lines) back to dicts.

    Blank lines are skipped; each remaining line must be one JSON
    object with at least ``name``/``ts_s``/``dur_s`` — the exact shape
    :class:`JsonlSpanSink` writes.
    """
    if isinstance(source, (str, Path)):
        lines = Path(source).read_text(encoding="utf-8").splitlines()
    else:
        lines = list(source)
    out = []
    for line in lines:
        line = line.strip()
        if line:
            out.append(json.loads(line))
    return out


def format_snapshot(snapshot: Mapping[str, float], prefix: str = "") -> str:
    """A registry snapshot as sorted, aligned ``name value`` lines.

    *snapshot* is the dict :meth:`~repro.obs.MetricsRegistry.snapshot`
    returns; *prefix* filters by name prefix.  Values print with ``%g``
    so counters stay integral and timers keep their precision.
    """
    items = sorted(
        (k, v) for k, v in snapshot.items() if k.startswith(prefix)
    )
    if not items:
        return ""
    width = max(len(name) for name, _ in items)
    return "\n".join(f"{name:<{width}} {value:g}" for name, value in items)


def write_snapshot(
    snapshot: Mapping[str, float], path: str | Path, prefix: str = ""
) -> Path:
    """Write :func:`format_snapshot` of *snapshot* to *path*."""
    path = Path(path)
    path.write_text(format_snapshot(snapshot, prefix) + "\n", encoding="utf-8")
    return path
