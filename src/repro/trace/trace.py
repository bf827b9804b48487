"""The trace container: monitored entities, their metrics and topology.

A :class:`Trace` is the input of the visualization pipeline.  It holds:

* **entities** — every monitored element (hosts, links, processes...),
  each with a *kind*, a position in the platform hierarchy (its *path*,
  e.g. ``("grid", "site", "cluster", "host-3")``) and a set of metric
  signals (``capacity``, ``usage``, per-application usage...);
* **edges** — the relationships used to connect entities in the
  topology-based view.  As Section 3.1.1 explains, connectivity may come
  from the physical topology, from observed communications, or be
  supplied by the analyst; all three produce :class:`TraceEdge` records;
* **point events** — raw instantaneous events kept for inspection and
  for deriving communication-pattern edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping

import numpy as np

from repro.errors import TraceError
from repro.trace.events import PointEvent
from repro.trace.signal import Signal, constant

if TYPE_CHECKING:
    from repro.trace.columnar import TraceColumns
    from repro.trace.entities import EntityTable
    from repro.trace.signalbank import SignalBank

__all__ = ["Entity", "TraceEdge", "MetricInfo", "Trace"]

#: Conventional metric names used across the library.  A trace may define
#: arbitrary additional metrics; these two drive the default visual
#: mapping (size := capacity, fill := usage — Fig. 1).
CAPACITY = "capacity"
USAGE = "usage"


@dataclass(frozen=True)
class MetricInfo:
    """Metadata about a metric: unit and a human-readable description."""

    name: str
    unit: str = ""
    description: str = ""


@dataclass
class Entity:
    """A monitored entity and its recorded metric signals.

    Parameters
    ----------
    name:
        Unique identifier within the trace.
    kind:
        Category of the entity ("host", "link", "process"...).  The
        visual mapping assigns one geometrical shape and one size scale
        per kind (Sections 3.1 and 4.1).
    path:
        Position in the platform hierarchy, from the root down to (and
        including) the entity's own name.  Used for spatial aggregation.
    metrics:
        Mapping from metric name to its :class:`Signal`.
    """

    name: str
    kind: str
    path: tuple[str, ...] = ()
    metrics: dict[str, Signal] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise TraceError("entity name must be non-empty")
        if not self.kind:
            raise TraceError(f"entity {self.name!r} must have a kind")
        if self.path and self.path[-1] != self.name:
            raise TraceError(
                f"entity {self.name!r}: path must end with the entity name, "
                f"got {self.path!r}"
            )
        if not self.path:
            self.path = (self.name,)

    def signal(self, metric: str) -> Signal:
        """The signal of *metric*, raising :class:`TraceError` if absent."""
        try:
            return self.metrics[metric]
        except KeyError:
            raise TraceError(
                f"entity {self.name!r} has no metric {metric!r}; "
                f"available: {sorted(self.metrics)}"
            ) from None

    def signal_or(self, metric: str, default: float = 0.0) -> Signal:
        """The signal of *metric*, or a constant *default* signal."""
        return self.metrics.get(metric) or constant(default)

    @property
    def group_path(self) -> tuple[str, ...]:
        """The path of the entity's innermost group (path minus itself)."""
        return self.path[:-1]


@dataclass(frozen=True)
class TraceEdge:
    """A relationship between two entities in the topology view.

    ``via`` optionally names a *link entity* that materializes the edge
    (so the edge can carry the link's metrics); ``source`` describes the
    provenance of the connectivity information: ``"topology"``,
    ``"communication"`` or ``"analyst"`` (Section 3.1.1).
    """

    a: str
    b: str
    via: str = ""
    source: str = "topology"

    def endpoints(self) -> tuple[str, str]:
        """The two connected entity names."""
        return (self.a, self.b)

    def key(self) -> tuple[str, str]:
        """Canonical undirected key (sorted endpoints)."""
        return (self.a, self.b) if self.a <= self.b else (self.b, self.a)


class Trace:
    """An immutable-ish container of monitored entities and relationships."""

    #: the entity table, built on first use of :attr:`table`
    _table: EntityTable | None = None

    def __init__(
        self,
        entities: Iterable[Entity] = (),
        edges: Iterable[TraceEdge] = (),
        events: Iterable[PointEvent] = (),
        metrics_info: Iterable[MetricInfo] = (),
        meta: Mapping[str, Any] | None = None,
    ) -> None:
        self._entities: dict[str, Entity] = {}
        for entity in entities:
            if entity.name in self._entities:
                raise TraceError(f"duplicate entity {entity.name!r}")
            self._entities[entity.name] = entity
        self._edges: list[TraceEdge] = []
        for edge in edges:
            self._check_edge(edge)
            self._edges.append(edge)
        self._events = sorted(events)
        self._metrics_info = {m.name: m for m in metrics_info}
        self.meta: dict[str, Any] = dict(meta or {})

    @classmethod
    def from_columns(cls, columns: TraceColumns) -> "Trace":
        """The trace held by *columns*, the store layout the text parser
        produces (:func:`repro.trace.reader.parse_columns`).

        Each stored row becomes a :class:`Signal` over slices of its
        metric's columns, or a :func:`constant` when it has no
        breakpoints; an entity's metrics come in name order, as a
        stored trace lists them.
        """
        metrics: dict[str, dict[str, Signal]] = {
            name: {} for name, _, _ in columns.entities
        }
        for metric, col in columns.metrics:
            bounds = col.offsets.tolist()
            for row, (name, initial) in enumerate(
                zip(col.rows, col.initials.tolist())
            ):
                lo, hi = bounds[row], bounds[row + 1]
                metrics[name][metric] = (
                    Signal._from_columns(
                        col.times[lo:hi],
                        col.values[lo:hi],
                        col.prefix[lo:hi],
                        initial,
                    )
                    if hi > lo
                    else constant(initial)
                )
        return cls(
            entities=[
                Entity(name, kind, path, metrics[name])
                for name, kind, path in columns.entities
            ],
            edges=[TraceEdge(*edge) for edge in columns.edges],
            events=[PointEvent(*event) for event in columns.events],
            metrics_info=[MetricInfo(*info) for info in columns.metrics_info],
            meta=columns.meta,
        )

    def _check_edge(self, edge: TraceEdge) -> None:
        for end in edge.endpoints():
            if end not in self:
                raise TraceError(f"edge endpoint {end!r} is not an entity")
        if edge.via and edge.via not in self:
            raise TraceError(f"edge 'via' entity {edge.via!r} is not an entity")

    # ------------------------------------------------------------------
    # Entities
    # ------------------------------------------------------------------
    @property
    def table(self) -> EntityTable:
        """The trace's one :class:`~repro.trace.entities.EntityTable`:
        entity names, kinds, groups and per-metric bank rows by index.

        Built from the entities on first use (a stored trace takes its
        store's); the hierarchy, the shared unit structures, the layout
        seeds and the layout memory all read this one table.
        """
        if self._table is None:
            from repro.trace.entities import EntityTable

            self._table = EntityTable.from_entities(self._entities.values())
        return self._table

    def __contains__(self, name: str) -> bool:
        return name in self._entities

    def __len__(self) -> int:
        return len(self._entities)

    def __iter__(self) -> Iterator[Entity]:
        return iter(self._entities.values())

    def entity(self, name: str) -> Entity:
        """The entity called *name*, raising :class:`TraceError` if absent."""
        try:
            return self._entities[name]
        except KeyError:
            raise TraceError(f"unknown entity {name!r}") from None

    def entities(self, kind: str | None = None) -> list[Entity]:
        """All entities, optionally restricted to one *kind*."""
        if kind is None:
            return list(self._entities.values())
        return [e for e in self._entities.values() if e.kind == kind]

    def kinds(self) -> list[str]:
        """The sorted set of entity kinds present in the trace."""
        return sorted({e.kind for e in self._entities.values()})

    # ------------------------------------------------------------------
    # Edges and events
    # ------------------------------------------------------------------
    @property
    def edges(self) -> tuple[TraceEdge, ...]:
        """Declared connections between entities."""
        return tuple(self._edges)

    def edges_of(self, name: str) -> list[TraceEdge]:
        """Edges incident to entity *name* (as endpoint, not as ``via``)."""
        return [e for e in self.edges if name in e.endpoints()]

    def edge_segments(self) -> np.ndarray:
        """Every edge segment as an ``(m, 2)`` int32 array of entity
        indices into :attr:`table`: ``a - via - b`` gives ``(a, via)``
        and ``(via, b)``, an edge without a link ``(a, b)``."""
        index = self.table.index
        return _segments([
            (index[e.a], index[e.b], index[e.via] if e.via else -1)
            for e in self._edges
        ])

    @property
    def events(self) -> tuple[PointEvent, ...]:
        """All point events, in recording order."""
        return tuple(self._events)

    def events_of_kind(self, kind: str) -> list[PointEvent]:
        """Point events of one *kind* (\"message\", \"state\", ...)."""
        return [ev for ev in self._events if ev.kind == kind]

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def metric_info(self, name: str) -> MetricInfo:
        """Metadata for metric *name* (a bare default if undeclared)."""
        return self._metrics_info.get(name, MetricInfo(name))

    def metric_names(self) -> list[str]:
        """Every metric name appearing on at least one entity."""
        return sorted(self.table.rows)

    def signal_bank(self, metric: str) -> SignalBank:
        """The :class:`~repro.trace.signalbank.SignalBank` of *metric*,
        row ``r`` holding entity ``table.rows[metric][r]``; empty for a
        metric no entity carries.  The aggregation engine's bank hook."""
        from repro.trace.signalbank import SignalBank

        names = self.table.names
        return SignalBank([
            self.entity(names[i]).metrics[metric]
            for i in self.table.rows.get(metric, ())
        ])

    @property
    def metrics_info(self) -> tuple[MetricInfo, ...]:
        """Declared metric metadata (name, unit, description)."""
        return tuple(self._metrics_info.values())

    # ------------------------------------------------------------------
    # Time span
    # ------------------------------------------------------------------
    def span(self) -> tuple[float, float]:
        """``(start, end)`` covering every breakpoint and event.

        Raises :class:`TraceError` when the trace holds no timestamped
        data at all (nothing to aggregate over).
        """
        lo = float("inf")
        hi = float("-inf")
        for entity in self:
            for sig in entity.metrics.values():
                if len(sig):
                    first, last = sig.span()
                    lo = min(lo, first)
                    hi = max(hi, last)
        for ev in self._events:
            lo = min(lo, ev.time)
            hi = max(hi, ev.time)
        if "end_time" in self.meta:
            hi = max(hi, float(self.meta["end_time"]))
            if lo == float("inf"):
                # A constants-only trace still has a declared extent.
                lo = 0.0
        if lo == float("inf"):
            raise TraceError("trace holds no timestamped data")
        return lo, max(hi, lo)

    def __repr__(self) -> str:
        return (
            f"Trace({len(self)} entities, {len(self.edges)} edges, "
            f"{len(self._events)} events)"
        )


def _segments(ends) -> np.ndarray:
    """The segments of ``(a, b, via)`` entity-index edge rows (``via``
    -1 for an edge without a link), as :meth:`Trace.edge_segments`
    lists them."""
    a, b, via = np.asarray(ends, dtype=np.int32).reshape(-1, 3).T
    linked = via >= 0
    return np.column_stack((
        np.concatenate((a[~linked], a[linked], via[linked])),
        np.concatenate((b[~linked], via[linked], b[linked])),
    ))
