"""The visualization graph: styled nodes and edges, ready to lay out.

A :class:`VisGraph` is the product of the whole pipeline of Section 3:
trace → temporal aggregation (time slice) → spatial aggregation
(grouping) → metric-to-shape mapping → per-kind pixel scaling.  Node
positions are *not* stored here; they belong to the dynamic layout
engine, which persists across view changes so transitions stay smooth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.core.aggregation import AggregatedEdge, AggregatedUnit, AggregatedView
from repro.core.mapping import VisualMapping
from repro.core.scaling import ScaleSet
from repro.errors import MappingError

if TYPE_CHECKING:
    from repro.trace.entities import EntityTable

__all__ = ["VisNode", "VisEdge", "VisGraph", "build_visgraph"]


@dataclass(frozen=True)
class VisNode:
    """One drawable node.

    ``size_value`` is in metric units (post-aggregation), ``size_px`` in
    pixels (post-scaling); ``fill_fraction`` is the proportional filling
    in ``[0, 1]`` or None when the unit has no utilization metric;
    ``weight`` is the number of trace entities the node stands for (its
    layout charge multiplier, Section 4.2).
    """

    key: str
    label: str
    kind: str
    shape: str
    size_value: float
    size_px: float
    fill_fraction: float | None
    color: str
    members: tuple[str, ...]
    values: dict[str, float]
    #: optional composite fill: (metric, fraction) segments, stacked
    fill_parts: tuple[tuple[str, float], ...] = ()

    @property
    def weight(self) -> int:
        """Number of concrete entities folded into this node."""
        return len(self.members)

    @property
    def is_aggregate(self) -> bool:
        """Whether the node stands for more than one entity."""
        return len(self.members) > 1


@dataclass(frozen=True)
class VisEdge:
    """One drawable edge; ``multiplicity`` counts merged trace edges."""

    a: str
    b: str
    multiplicity: int = 1


class VisGraph:
    """A set of styled nodes plus the edges connecting them.

    ``entities`` is the :class:`~repro.trace.entities.EntityTable` the
    node members name entities of, when the graph was built from a
    trace's view (:func:`build_visgraph`); the dynamic layout keeps its
    per-entity position memory by that table's indices.
    """

    def __init__(
        self,
        nodes: list[VisNode],
        edges: list[VisEdge],
        entities: EntityTable | None = None,
    ) -> None:
        self.entities = entities
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
    def edges(self) -> tuple[VisEdge, ...]:
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
    Section 4.1) and resolves every unit through *mapping*.
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
                members=unit.members,
                values=dict(unit.values),
                fill_parts=style.fill_parts,
            )
        )
    edges = [
        VisEdge(edge.a, edge.b, edge.multiplicity) for edge in view.edges
    ]
    return VisGraph(nodes, edges, entities=view.entities)
