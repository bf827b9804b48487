"""Incremental trace construction.

:class:`TraceBuilder` is the write-side companion of :class:`Trace`: the
simulator's monitors (and the synthetic generators) declare entities and
push timestamped samples; :meth:`TraceBuilder.build` freezes everything
into an immutable :class:`Trace`.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.errors import TraceError
from repro.trace.events import PointEvent, VariableEvent
from repro.trace.signal import SignalBuilder, constant
from repro.trace.trace import Entity, MetricInfo, Trace, TraceEdge

__all__ = ["TraceBuilder"]


class TraceBuilder:
    """Accumulates entities, metric samples, edges and events."""

    def __init__(self) -> None:
        self._kinds: dict[str, str] = {}
        self._paths: dict[str, tuple[str, ...]] = {}
        self._signals: dict[tuple[str, str], SignalBuilder] = {}
        self._constants: dict[tuple[str, str], float] = {}
        self._edges: list[TraceEdge] = []
        self._events: list[PointEvent] = []
        self._metrics_info: dict[str, MetricInfo] = {}
        self._meta: dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------
    def declare_entity(
        self, name: str, kind: str, path: Iterable[str] = ()
    ) -> None:
        """Register an entity before samples may be recorded for it.

        The name and kind are checked here, as :class:`Entity` checks
        them, so a bad declaration fails where it is made rather than
        at :meth:`build`.
        """
        if not name:
            raise TraceError("entity name must be non-empty")
        if not kind:
            raise TraceError(f"entity {name!r} must have a kind")
        if name in self._kinds:
            if self._kinds[name] != kind:
                raise TraceError(
                    f"entity {name!r} redeclared with kind {kind!r}, "
                    f"was {self._kinds[name]!r}"
                )
            return
        self._kinds[name] = kind
        path = tuple(path)
        self._paths[name] = path if path else (name,)

    def declare_metric(
        self, name: str, unit: str = "", description: str = ""
    ) -> None:
        """Attach unit/description metadata to a metric name."""
        self._metrics_info[name] = MetricInfo(name, unit, description)

    def set_meta(self, key: str, value: Any) -> None:
        """Record free-form trace-level metadata (e.g. ``end_time``)."""
        self._meta[key] = value

    # ------------------------------------------------------------------
    # Data recording
    # ------------------------------------------------------------------
    def set_constant(self, entity: str, metric: str, value: float) -> None:
        """Record a time-invariant metric (e.g. a nominal capacity)."""
        self._require(entity)
        self._constants[(entity, metric)] = float(value)

    def record(self, entity: str, metric: str, time: float, value: float) -> None:
        """Record that *metric* of *entity* takes *value* from *time* on."""
        self._require(entity)
        key = (entity, metric)
        builder = self._signals.get(key)
        if builder is None:
            builder = self._signals[key] = SignalBuilder()
        builder.set(time, value)

    def record_series(
        self,
        entity: str,
        metric: str,
        times: Iterable[float],
        values: Iterable[float],
    ) -> None:
        """Bulk-record a step series: *metric* takes ``values[i]`` from
        ``times[i]`` on.

        Equivalent to one :meth:`record` call per pair; the derived
        metric emitters (e.g.
        :meth:`repro.obs.latency.LatencyAttribution.to_trace`) use it
        to push whole binned rate curves at once.
        """
        times = list(times)
        values = list(values)
        if len(times) != len(values):
            raise TraceError(
                f"record_series times ({len(times)}) and values "
                f"({len(values)}) differ in length"
            )
        self._require(entity)
        key = (entity, metric)
        builder = self._signals.get(key)
        if builder is None:
            builder = self._signals[key] = SignalBuilder()
        for time, value in zip(times, values):
            builder.set(time, value)

    def record_busy(
        self,
        entity: str,
        metric: str,
        intervals: Iterable[tuple[float, float]],
    ) -> None:
        """Record *metric* of *entity* as the number of open *intervals*.

        The busy-signal replay of every self-trace: the signal starts
        at 0 and steps +1 at each interval's begin and -1 at its end,
        in time order (an end sorts before a begin at the same instant,
        and same-time steps collapse to their net value).  Steps before
        time 0 land on it.  With no intervals the signal is constant 0.
        """
        steps: list[tuple[float, int]] = []
        for began, ended in intervals:
            steps.append((began, 1))
            steps.append((ended, -1))
        steps.sort()
        depth = 0
        self.record(entity, metric, 0.0, 0.0)
        for time, step in steps:
            depth += step
            self.record(entity, metric, max(time, 0.0), float(depth))

    def record_event(self, event: VariableEvent) -> None:
        """Record a :class:`VariableEvent` (same as :meth:`record`)."""
        self.record(event.entity, event.metric, event.time, event.value)

    def record_point(self, event: PointEvent) -> None:
        """Record an instantaneous event."""
        self._events.append(event)

    def point(
        self,
        time: float,
        kind: str,
        source: str,
        target: str = "",
        **payload: Any,
    ) -> None:
        """Convenience wrapper building and recording a :class:`PointEvent`."""
        self._events.append(PointEvent(time, kind, source, target, payload))

    def connect(
        self, a: str, b: str, via: str = "", source: str = "topology"
    ) -> None:
        """Declare a topology edge between entities *a* and *b*."""
        self._edges.append(TraceEdge(a, b, via=via, source=source))

    def _require(self, entity: str) -> None:
        if entity not in self._kinds:
            raise TraceError(
                f"entity {entity!r} must be declared before recording data"
            )

    # ------------------------------------------------------------------
    # Freeze
    # ------------------------------------------------------------------
    def build(self) -> Trace:
        """Freeze the accumulated data into a :class:`Trace`."""
        metrics: dict[str, dict[str, Any]] = {name: {} for name in self._kinds}
        for (entity, metric), value in self._constants.items():
            metrics[entity][metric] = constant(value)
        for (entity, metric), builder in self._signals.items():
            metrics[entity][metric] = builder.build()
        entities = [
            Entity(name, kind, self._paths[name], metrics[name])
            for name, kind in self._kinds.items()
        ]
        return Trace(
            entities=entities,
            edges=self._edges,
            events=self._events,
            metrics_info=self._metrics_info.values(),
            meta=self._meta,
        )
