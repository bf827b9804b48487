"""The self-tracing profiler: the tool's pipeline as a repro trace.

Following the aggregate-trace-visualization idea — the right substrate
for debugging a trace tool is a trace *of the tool* — a
:class:`Profiler` collects the raw intervals of every enabled
:func:`~repro.obs.spans.span` and freezes them into a perfectly
ordinary :class:`~repro.trace.trace.Trace`:

* one entity of kind ``"stage"`` per span name, placed in the hierarchy
  ``self/<family>/<stage>`` (family = the name up to the first dot), so
  spatial aggregation collapses e.g. all ``agg.*`` stages into one unit;
* a ``usage`` step signal per stage — the number of currently open
  spans (0 or 1 for the single-threaded pipeline, more under
  reentrancy) — and a ``capacity`` constant of 1.0, so the default
  visual mapping shows each stage as a shape filled by its busy
  fraction over the analyst's time slice: Equation 1 applied to the
  tool itself;
* one :class:`~repro.trace.events.PointEvent` per completed span
  (kind ``"span"``, payload ``ms=<duration>`` plus the span's attrs);
* topology edges chaining the stages in canonical pipeline order.

The resulting *self-trace* round-trips through
:func:`~repro.trace.writer.write_trace` / ``read_trace`` and loads into
an :class:`~repro.core.session.AnalysisSession` like any other trace —
``repro profile run.trace`` followed by ``repro render self.trace`` is
the dogfood loop.
"""

from __future__ import annotations

from time import perf_counter

from repro.obs.spans import attach_profiler, detach_profiler, disable, enable, enabled
from repro.trace.builder import TraceBuilder
from repro.trace.trace import CAPACITY, Trace, USAGE

__all__ = ["PIPELINE_STAGES", "Profiler", "StageStat"]

#: Canonical stage names in data-flow order; used to order the table
#: and to chain the self-trace's topology edges.  Spans may use any
#: other name too — unknown stages simply sort after the known ones.
PIPELINE_STAGES = (
    "trace.read",
    "sim.step",
    "agg.slice",
    "agg.spatial",
    "layout.build",
    "layout.traverse",
    "render.svg",
)


class StageStat:
    """Aggregate numbers of one stage, for the per-stage table."""

    __slots__ = ("name", "calls", "total_s", "min_s", "max_s")

    def __init__(self, name: str, intervals: list) -> None:
        durations = [ended - began for began, ended, _ in intervals]
        self.name = name
        self.calls = len(durations)
        self.total_s = sum(durations)
        self.min_s = min(durations) if durations else 0.0
        self.max_s = max(durations) if durations else 0.0

    @property
    def mean_s(self) -> float:
        """Average span duration of the stage."""
        return self.total_s / self.calls if self.calls else 0.0


def _stage_order(name: str) -> tuple:
    try:
        return (PIPELINE_STAGES.index(name), name)
    except ValueError:
        return (len(PIPELINE_STAGES), name)


class Profiler:
    """Collects span intervals and freezes them into a self-trace.

    Use as a context manager for the common case::

        with Profiler() as profiler:
            ... drive the session ...
        trace = profiler.build_trace()

    Entering enables observability and attaches the profiler; exiting
    restores the previous enabled state and detaches.  ``max_points``
    caps the number of per-span :class:`PointEvent` records embedded in
    the self-trace (the ``usage`` signals are never truncated); the
    number of spans dropped by the cap is recorded in the trace meta as
    ``dropped_points``.  ``sink`` is an optional streaming tee — any
    object with the same ``record(name, began, ended, attrs)`` method
    (e.g. :class:`repro.obs.export.JsonlSpanSink`) that receives every
    span as it completes, while the profiler keeps accumulating.
    """

    def __init__(self, max_points: int = 20000, sink=None) -> None:
        self.t0 = perf_counter()
        self.max_points = max_points
        self.sink = sink
        #: span name -> list of (began, ended, attrs), absolute seconds
        self.intervals: dict[str, list] = {}
        self._was_enabled: bool | None = None

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def record(
        self, name: str, began: float, ended: float, attrs: dict | None = None
    ) -> None:
        """Store one completed span (called by the span machinery)."""
        bucket = self.intervals.get(name)
        if bucket is None:
            bucket = self.intervals[name] = []
        bucket.append((began, ended, attrs or {}))
        if self.sink is not None:
            self.sink.record(name, began, ended, attrs)

    def install(self) -> "Profiler":
        """Enable observability and route spans here; returns self."""
        self._was_enabled = enabled()
        enable()
        attach_profiler(self)
        return self

    def uninstall(self) -> None:
        """Detach and restore the pre-:meth:`install` enabled state."""
        detach_profiler(self)
        if self._was_enabled is False:
            disable()
        self._was_enabled = None

    def __enter__(self) -> "Profiler":
        """Context-manager form of :meth:`install`."""
        return self.install()

    def __exit__(self, *exc_info) -> bool:
        """Context-manager form of :meth:`uninstall`."""
        self.uninstall()
        return False

    def wall_s(self) -> float:
        """Seconds elapsed since the profiler was created."""
        return perf_counter() - self.t0

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def stage_rows(self) -> list[StageStat]:
        """Per-stage aggregates in canonical pipeline order."""
        return [
            StageStat(name, self.intervals[name])
            for name in sorted(self.intervals, key=_stage_order)
        ]

    def format_table(self) -> str:
        """The human-readable per-stage table ``repro profile`` prints."""
        wall = max(self.wall_s(), 1e-12)
        lines = [
            f"{'stage':<18} {'calls':>6} {'total ms':>10} {'mean ms':>9} "
            f"{'max ms':>9} {'share':>6}"
        ]
        for row in self.stage_rows():
            lines.append(
                f"{row.name:<18} {row.calls:>6} {row.total_s * 1e3:>10.2f} "
                f"{row.mean_s * 1e3:>9.3f} {row.max_s * 1e3:>9.3f} "
                f"{row.total_s / wall:>6.1%}"
            )
        lines.append(f"{'wall':<18} {'':>6} {wall * 1e3:>10.2f}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Self-trace
    # ------------------------------------------------------------------
    def build_trace(self) -> Trace:
        """Freeze the collected spans into a repro-format self-trace."""
        builder = TraceBuilder()
        builder.set_meta("generator", "repro.obs.profiler")
        builder.declare_metric(CAPACITY, "spans", "stage concurrency budget")
        builder.declare_metric(USAGE, "spans", "open spans of the stage")
        builder.declare_metric("calls", "spans", "completed spans of the stage")
        builder.declare_metric("busy_s", "s", "total seconds inside the stage")
        stages = sorted(self.intervals, key=_stage_order)
        end_time = self.wall_s()
        points = 0
        dropped = 0
        for stage in stages:
            family = stage.split(".", 1)[0]
            builder.declare_entity(stage, "stage", ("self", family, stage))
            builder.set_constant(stage, CAPACITY, 1.0)
            intervals = self.intervals[stage]
            builder.set_constant(stage, "calls", float(len(intervals)))
            builder.set_constant(
                stage, "busy_s", sum(e - b for b, e, _ in intervals)
            )
            builder.record_busy(
                stage,
                USAGE,
                ((b - self.t0, e - self.t0) for b, e, _ in intervals),
            )
            for began, ended, attrs in intervals:
                end_time = max(end_time, ended - self.t0)
                if points >= self.max_points:
                    dropped += 1
                    continue
                points += 1
                builder.point(
                    max(began - self.t0, 0.0),
                    "span",
                    stage,
                    ms=round((ended - began) * 1e3, 6),
                    **attrs,
                )
        present = [s for s in PIPELINE_STAGES if s in self.intervals]
        for a, b in zip(present, present[1:]):
            builder.connect(a, b, source="obs")
        for extra in (s for s in stages if s not in PIPELINE_STAGES):
            if present:
                builder.connect(present[0], extra, source="obs")
        builder.set_meta("end_time", end_time)
        if dropped:
            builder.set_meta("dropped_points", dropped)
        return builder.build()
