"""A positioned snapshot of the topology-based visualization.

:class:`TopologyView` is what a renderer (or an assertion in a test)
consumes: the styled graph of one time slice and one grouping state,
plus the node positions the dynamic layout currently holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.core.aggregation import AggregatedEdge, AggregatedView
from repro.core.timeslice import TimeSlice
from repro.core.visgraph import VisGraph, VisNode
from repro.errors import LayoutError

__all__ = ["TopologyView"]


@dataclass
class TopologyView:
    """One rendered-ready frame: graph + positions + the slice it shows."""

    graph: VisGraph
    positions: dict[str, tuple[float, float]]
    tslice: TimeSlice
    aggregated: AggregatedView

    def __post_init__(self) -> None:
        missing = [n.key for n in self.graph if n.key not in self.positions]
        if missing:
            raise LayoutError(f"nodes without a position: {missing[:5]}")

    def nodes(self) -> list[VisNode]:
        """All drawable nodes."""
        return self.graph.nodes()

    def node(self, key: str) -> VisNode:
        """The node with *key*."""
        return self.graph.node(key)

    @property
    def edges(self) -> tuple[AggregatedEdge, ...]:
        """The styled edges of the underlying visual graph."""
        return self.graph.edges

    @property
    def agg_stats(self) -> dict:
        """Aggregation-engine counter snapshot taken when this frame's
        :class:`AggregatedView` was produced (cache hits, delta vs full
        integrations).  Empty when the frame came from the scalar
        oracle path."""
        return self.aggregated.stats

    def position(self, key: str) -> tuple[float, float]:
        """The layout position of node *key*."""
        try:
            return self.positions[key]
        except KeyError:
            raise LayoutError(f"unknown node {key!r}") from None

    def __len__(self) -> int:
        return len(self.graph)

    def __iter__(self) -> Iterator[VisNode]:
        return iter(self.graph)

    def bounds(self, margin: float = 10.0) -> tuple[float, float, float, float]:
        """``(min_x, min_y, max_x, max_y)`` covering every node + sizes."""
        if not self.positions:
            return (0.0, 0.0, 1.0, 1.0)
        xs, ys, pads = [], [], []
        for node in self.graph:
            x, y = self.positions[node.key]
            xs.append(x)
            ys.append(y)
            pads.append(node.size_px / 2.0)
        pad = max(pads) + margin
        return (min(xs) - pad, min(ys) - pad, max(xs) + pad, max(ys) + pad)

    def total(self, metric: str, kind: str | None = None) -> float:
        """Sum of a metric over the view's nodes (optionally one kind).

        Aggregation-invariant quantities (total capacity, total usage)
        are the quickest sanity check that collapsing groups preserved
        the data — used heavily by tests and benches.
        """
        return sum(
            node.values.get(metric, 0.0)
            for node in self.graph
            if kind is None or node.kind == kind
        )

    def metric_range(
        self, metric: str, kind: str | None = None
    ) -> tuple[float, float]:
        """``(min, max)`` of *metric* over the view's nodes.

        The range a color ramp should span when painting the view by a
        derived metric (e.g. ``caused_latency``); restricting *kind*
        keeps hosts and links on separate scales.  Raises
        :class:`LayoutError` when no node carries the metric.
        """
        values = [
            node.values[metric]
            for node in self.graph
            if metric in node.values and (kind is None or node.kind == kind)
        ]
        if not values:
            raise LayoutError(
                f"no node of kind {kind!r} carries metric {metric!r}"
                if kind is not None
                else f"no node carries metric {metric!r}"
            )
        return (min(values), max(values))

    def top_nodes(
        self, metric: str, n: int = 5, kind: str | None = None
    ) -> list[VisNode]:
        """The *n* nodes with the largest *metric* value, descending.

        Ties break on the node key so the ranking is deterministic —
        the view-level analogue of
        :meth:`repro.obs.latency.LatencyAttribution.top_processes`.
        """
        if n < 0:
            raise LayoutError(f"top_nodes n must be >= 0, got {n}")
        ranked = sorted(
            (
                node
                for node in self.graph
                if kind is None or node.kind == kind
            ),
            key=lambda node: (-node.values.get(metric, 0.0), node.key),
        )
        return ranked[:n]
