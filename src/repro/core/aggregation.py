"""Spatial aggregation: from a trace and a grouping to display units.

This implements the spatial half of Equation 1.  Given the analyst's
:class:`~repro.core.hierarchy.GroupingState` and a
:class:`~repro.core.timeslice.TimeSlice`, every entity is first reduced
to its slice value (temporal aggregation), then entities sharing a
collapsed group are combined — per *kind*, so a collapsed cluster
becomes one "all its hosts" unit and one "all its links" unit, exactly
the square + diamond pair of Fig. 3.

Edges follow: a trace edge ``a —(via link)— b`` contributes graph edges
``unit(a) — unit(via)`` and ``unit(via) — unit(b)``; edges collapsing
onto a single unit disappear (they are *inside* the aggregate), and
parallel edges merge with a multiplicity count.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from repro.core.hierarchy import GroupingState, Path
from repro.core.timeslice import TimeSlice
from repro.errors import AggregationError
from repro.trace.trace import Entity, Trace

if TYPE_CHECKING:
    from repro.trace.entities import EntityTable

__all__ = ["AggregatedUnit", "AggregatedEdge", "AggregatedView", "aggregate_view"]


class AggregatedUnit:
    """One display unit: a single entity or a (group, kind) aggregate.

    ``members`` names the unit's entities in trace order and ``weight``
    counts them.  A unit built by
    :class:`~repro.core.aggengine.AggregationEngine` holds no names: it
    reads them from its unit structure's member rows the first time
    ``members`` is read (:meth:`deferred`), and ``weight`` is the row
    count.  Units compare equal field by field.
    """

    __slots__ = (
        "key", "label", "kind", "group", "values", "weight",
        "_members", "_source", "_index",
    )

    def __init__(
        self,
        key: str,
        label: str,
        kind: str,
        members: Sequence[str],
        group: Path | None,  # None for a plain (uncollapsed) entity
        values: dict[str, float] | None = None,
    ) -> None:
        self.key = key
        self.label = label
        self.kind = kind
        self.group = group
        self.values = {} if values is None else values
        self._members = tuple(members)
        #: member count — the aggregated node's charge weight (Sec. 4.2)
        self.weight = len(self._members)
        self._source = None
        self._index = -1

    @classmethod
    def deferred(
        cls,
        source,
        index: int,
        weight: int,
        key: str,
        label: str,
        kind: str,
        group: Path | None,
        values: dict[str, float],
    ) -> "AggregatedUnit":
        """A unit of *weight* members whose names
        ``source.member_names(index)`` gives when ``members`` is first
        read."""
        unit = cls.__new__(cls)
        unit.key = key
        unit.label = label
        unit.kind = kind
        unit.group = group
        unit.values = values
        unit.weight = weight
        unit._members = None
        unit._source = source
        unit._index = index
        return unit

    @property
    def members(self) -> tuple[str, ...]:
        """The member entity names, in trace order."""
        members = self._members
        if members is None:
            members = self._members = self._source.member_names(self._index)
        return members

    @property
    def is_aggregate(self) -> bool:
        """Whether this unit folds several entities into one."""
        return self.group is not None

    def value(self, metric: str, default: float = 0.0) -> float:
        """The aggregated value of *metric* (or *default* when absent)."""
        return self.values.get(metric, default)

    def _fields(self) -> tuple:
        return (
            self.key, self.label, self.kind, self.members, self.group,
            self.values,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AggregatedUnit):
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # type: ignore[assignment]  # values is a dict

    def __repr__(self) -> str:
        return (
            f"AggregatedUnit(key={self.key!r}, kind={self.kind!r}, "
            f"weight={self.weight}, group={self.group!r})"
        )


#: Slotted dataclasses where the interpreter has them (Python 3.10+): a
#: view holds one edge object per unit pair, and a slotted edge takes
#: half the memory of one with an attribute dict.
_SLOTTED = {"slots": True} if sys.version_info >= (3, 10) else {}


@dataclass(frozen=True, **_SLOTTED)
class AggregatedEdge:
    """An undirected edge between two units, merging parallel trace
    edges; ``multiplicity`` counts them.  The one edge class: a
    :class:`~repro.core.visgraph.VisGraph` holds its view's edges."""

    a: str
    b: str
    multiplicity: int = 1

    def key(self) -> tuple[str, str]:
        """Canonical undirected key (sorted endpoints)."""
        return (self.a, self.b) if self.a <= self.b else (self.b, self.a)


@dataclass
class AggregatedView:
    """The unstyled aggregated graph for one time slice.

    ``entities`` is the trace's
    :class:`~repro.trace.entities.EntityTable`, and ``member_rows`` /
    ``member_offsets`` hold the units' members as its entity indices:
    unit ``i`` (in ``units`` order) owns the entities
    ``member_rows[member_offsets[i]:member_offsets[i + 1]]``, in member
    order (the layout syncs, seeds and remembers positions by them).
    ``stats`` carries a snapshot of the producing
    :class:`~repro.core.aggengine.AggregationEngine` counters (slice and
    result-cache hits, cursor-advanced vs re-bisected slice moves); the
    scalar oracle path leaves it empty.
    """

    units: dict[str, AggregatedUnit]
    edges: list[AggregatedEdge]
    tslice: TimeSlice
    entities: EntityTable
    member_rows: np.ndarray
    member_offsets: np.ndarray
    stats: dict = field(default_factory=dict)

    def unit(self, key: str) -> AggregatedUnit:
        """The unit with *key*, raising when unknown."""
        try:
            return self.units[key]
        except KeyError:
            raise AggregationError(f"unknown unit {key!r}") from None

    def units_of_kind(self, kind: str) -> list[AggregatedUnit]:
        """Every unit of one entity *kind*."""
        return [u for u in self.units.values() if u.kind == kind]

    def neighbours(self, key: str) -> list[str]:
        """Keys of the units connected to *key* by an edge."""
        out = []
        for edge in self.edges:
            if edge.a == key:
                out.append(edge.b)
            elif edge.b == key:
                out.append(edge.a)
        return out

    def __len__(self) -> int:
        return len(self.units)


def unit_key(group: Path | None, kind: str, entity: str = "") -> str:
    """The canonical key of a display unit.

    Plain entities keep their own name; aggregates combine the group
    path and the kind (``nancy/griffon::host``).
    """
    if group is None:
        return entity
    return "/".join(group) + "::" + kind


def aggregate_view(
    trace: Trace,
    grouping: GroupingState,
    tslice: TimeSlice,
    metrics: Sequence[str] | None = None,
    space_op: Callable[[Sequence[float]], float] = sum,
) -> AggregatedView:
    """Build the aggregated view of *trace* for the current scales.

    This is the straightforward per-entity, from-scratch reference
    implementation — the **scalar oracle** of the differential-testing
    net, which tests call directly.  Every session aggregates with
    :class:`~repro.core.aggengine.AggregationEngine`, which must match
    this function to roundoff on any input
    (``tests/test_aggregation_differential.py``), and give the same
    ``member_rows`` and ``member_offsets``, which this function maps
    from member names through ``trace.table.index``.

    Parameters
    ----------
    metrics:
        Metric names to aggregate (default: every metric in the trace).
    space_op:
        Spatial combination of member slice-values; the paper sums
        capacities and usages so an aggregate represents its total
        power/traffic (Fig. 3) — the default.  Pass e.g. a mean for
        intensive quantities.
    """
    metric_names = list(metrics) if metrics is not None else trace.metric_names()
    members: dict[str, list[Entity]] = {}
    meta: dict[str, tuple[Path | None, str]] = {}
    entity_unit: dict[str, str] = {}
    for entity in trace:
        group = grouping.unit_of(entity.name)
        key = unit_key(group, entity.kind, entity.name)
        members.setdefault(key, []).append(entity)
        meta[key] = (group, entity.kind)
        entity_unit[entity.name] = key

    index = trace.table.index
    units: dict[str, AggregatedUnit] = {}
    rows: list[int] = []
    offsets = [0]
    for key, entities in members.items():
        group, kind = meta[key]
        values: dict[str, float] = {}
        for metric in metric_names:
            sampled = [
                tslice.value_of(entity.metrics[metric])
                for entity in entities
                if metric in entity.metrics
            ]
            if sampled:
                values[metric] = space_op(sampled)
        label = "/".join(group) if group is not None else entities[0].name
        units[key] = AggregatedUnit(
            key=key,
            label=label,
            kind=kind,
            members=tuple(entity.name for entity in entities),
            group=group,
            values=values,
        )
        rows.extend(index[entity.name] for entity in entities)
        offsets.append(len(rows))

    edge_multiplicity: dict[tuple[str, str], int] = {}
    for edge in trace.edges:
        if edge.via:
            pairs: Iterable[tuple[str, str]] = (
                (edge.a, edge.via),
                (edge.via, edge.b),
            )
        else:
            pairs = ((edge.a, edge.b),)
        for x, y in pairs:
            ux, uy = entity_unit[x], entity_unit[y]
            if ux == uy:
                continue  # internal to an aggregate
            pair = (ux, uy) if ux <= uy else (uy, ux)
            edge_multiplicity[pair] = edge_multiplicity.get(pair, 0) + 1

    edges = [
        AggregatedEdge(a, b, count)
        for (a, b), count in sorted(edge_multiplicity.items())
    ]
    return AggregatedView(
        units=units,
        edges=edges,
        tslice=tslice,
        entities=trace.table,
        member_rows=np.asarray(rows, dtype=np.int32),
        member_offsets=np.asarray(offsets, dtype=np.int32),
    )
