"""The visualization graph: styled nodes and edges, ready to lay out.

A :class:`VisGraph` is the product of the whole pipeline of Section 3:
trace → temporal aggregation (time slice) → spatial aggregation
(grouping) → metric-to-shape mapping → per-kind pixel scaling.  Node
positions are *not* stored here; they belong to the dynamic layout
engine, which persists across view changes so transitions stay smooth.

A graph reads member names only on demand: each :class:`VisNode`
takes them from its :class:`~repro.core.aggregation.AggregatedUnit`,
and the graph carries its view's member rows, which the layout syncs
and seeds from.  Its edges are the view's
:class:`~repro.core.aggregation.AggregatedEdge` objects, passed
through.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.core.aggregation import AggregatedEdge, AggregatedUnit, AggregatedView
from repro.core.mapping import VisualMapping
from repro.core.scaling import ScaleSet
from repro.errors import MappingError

if TYPE_CHECKING:
    import numpy as np

    from repro.trace.entities import EntityTable

__all__ = ["VisNode", "VisGraph", "build_visgraph"]


class VisNode:
    """One drawable node.

    ``size_value`` is in metric units (post-aggregation), ``size_px`` in
    pixels (post-scaling); ``fill_fraction`` is the proportional filling
    in ``[0, 1]`` or None when the unit has no utilization metric;
    ``weight`` is the number of trace entities the node stands for (its
    layout charge multiplier, Section 4.2), taken from *unit*, the
    :class:`~repro.core.aggregation.AggregatedUnit` the node draws;
    ``members`` reads their names from it.  Nodes compare equal field
    by field.
    """

    __slots__ = (
        "key", "label", "kind", "shape", "size_value", "size_px",
        "fill_fraction", "color", "values", "fill_parts", "weight",
        "_unit",
    )

    def __init__(
        self,
        key: str,
        label: str,
        kind: str,
        shape: str,
        size_value: float,
        size_px: float,
        fill_fraction: float | None,
        color: str,
        unit: AggregatedUnit,
        values: dict[str, float],
        fill_parts: tuple[tuple[str, float], ...] = (),
    ) -> None:
        self.key = key
        self.label = label
        self.kind = kind
        self.shape = shape
        self.size_value = size_value
        self.size_px = size_px
        self.fill_fraction = fill_fraction
        self.color = color
        self.values = values
        #: optional composite fill: (metric, fraction) segments, stacked
        self.fill_parts = fill_parts
        self.weight = unit.weight
        self._unit = unit

    @property
    def members(self) -> tuple[str, ...]:
        """The names of the trace entities folded into this node."""
        return self._unit.members

    @property
    def is_aggregate(self) -> bool:
        """Whether the node stands for more than one entity."""
        return self.weight > 1

    def _fields(self) -> tuple:
        return (
            self.key, self.label, self.kind, self.shape, self.size_value,
            self.size_px, self.fill_fraction, self.color, self.members,
            self.values, self.fill_parts,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VisNode):
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # type: ignore[assignment]  # values is a dict

    def __repr__(self) -> str:
        return (
            f"VisNode(key={self.key!r}, kind={self.kind!r}, "
            f"shape={self.shape!r}, weight={self.weight})"
        )


class VisGraph:
    """A set of styled nodes plus the edges connecting them.

    ``entities`` is the :class:`~repro.trace.entities.EntityTable` the
    node members are entities of, and ``member_rows`` /
    ``member_offsets`` hold them as its indices: node ``j`` (in node
    order) stands for the entities
    ``member_rows[member_offsets[j]:member_offsets[j + 1]]``.  The
    dynamic layout syncs and seeds from those rows and keeps its
    per-entity position memory by the table's indices.  A graph that
    hands over another graph's ``member_rows`` and ``member_offsets``
    arrays (the same objects) has that graph's nodes, weights and
    edges: the aggregation engine hands them over only for the same
    grouping, and the layout then takes the structure as unchanged.
    """

    def __init__(
        self,
        nodes: list[VisNode],
        edges: list[AggregatedEdge],
        entities: EntityTable,
        member_rows: np.ndarray,
        member_offsets: np.ndarray,
    ) -> None:
        if (
            entities is None or member_rows is None or member_offsets is None
            or len(member_offsets) != len(nodes) + 1
            or member_offsets[0] != 0
            or member_offsets[-1] != len(member_rows)
        ):
            raise MappingError(
                "member rows need an entity table and offsets from 0 to "
                "their count, one per node plus one"
            )
        self.entities = entities
        self.member_rows = member_rows
        self.member_offsets = member_offsets
        self._nodes: dict[str, VisNode] = {}
        for node in nodes:
            if node.key in self._nodes:
                raise MappingError(f"duplicate node key {node.key!r}")
            self._nodes[node.key] = node
        for edge in edges:
            for end in (edge.a, edge.b):
                if end not in self._nodes:
                    raise MappingError(f"edge endpoint {end!r} is not a node")
        self._edges = list(edges)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, key: str) -> bool:
        return key in self._nodes

    def __iter__(self) -> Iterator[VisNode]:
        return iter(self._nodes.values())

    def nodes(self) -> list[VisNode]:
        """All nodes, in insertion order."""
        return list(self._nodes.values())

    def node(self, key: str) -> VisNode:
        """The node with *key*, raising when unknown."""
        try:
            return self._nodes[key]
        except KeyError:
            raise MappingError(f"unknown node {key!r}") from None

    @property
    def edges(self) -> tuple[AggregatedEdge, ...]:
        """The deduplicated edges between visual nodes."""
        return tuple(self._edges)

    def nodes_of_kind(self, kind: str) -> list[VisNode]:
        """Every node of one entity *kind*."""
        return [n for n in self._nodes.values() if n.kind == kind]

    def neighbours(self, key: str) -> list[str]:
        """Keys of the nodes connected to *key*."""
        out = []
        for edge in self._edges:
            if edge.a == key:
                out.append(edge.b)
            elif edge.b == key:
                out.append(edge.a)
        return out

    def degree(self, key: str) -> int:
        """Number of edges touching *key*."""
        return len(self.neighbours(key))


def build_visgraph(
    view: AggregatedView,
    mapping: VisualMapping,
    scales: ScaleSet,
) -> VisGraph:
    """Style an aggregated view into a drawable graph.

    Calibrates *scales* on the view (the automatic per-kind scaling of
    Section 4.1) and resolves every unit through *mapping*.  The nodes
    read their members from the view's units, and the graph takes the
    view's edges and member rows as they are.
    """
    styles = {key: mapping.style(unit) for key, unit in view.units.items()}
    by_kind: dict[str, list] = {}
    for key, unit in view.units.items():
        by_kind.setdefault(unit.kind, []).append(styles[key])
    scales.calibrate(by_kind)

    nodes = []
    for key, unit in view.units.items():
        style = styles[key]
        nodes.append(
            VisNode(
                key=key,
                label=unit.label,
                kind=unit.kind,
                shape=style.shape,
                size_value=style.size_value,
                size_px=scales.pixel_size(unit.kind, style.size_value),
                fill_fraction=style.fill_fraction,
                color=style.color,
                unit=unit,
                values=dict(unit.values),
                fill_parts=style.fill_parts,
            )
        )
    return VisGraph(
        nodes,
        view.edges,
        entities=view.entities,
        member_rows=view.member_rows,
        member_offsets=view.member_offsets,
    )
