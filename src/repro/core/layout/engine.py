"""The dynamic layout engine: smooth transitions across view changes.

"Dynamic node aggregation requires to recompute the graph layout, which
may confuse the analyst if there is too much changes between the two
layouts" (Section 1).  :class:`DynamicLayout` keeps one force simulation
alive across every view change and seeds new nodes from remembered
positions:

* an **aggregated** node appears at the *centroid of its members'* last
  positions — collapsing a cluster shrinks it in place;
* a **disaggregated** member reappears near its former group's position;
* everything else keeps its position and just keeps relaxing.

This is what makes "the layout smooth when aggregating, preventing the
analyst to get confused when changing scale" (Fig. 8's caption).

Positions are remembered per trace entity, by its row in the trace's
entity table.  Every graph carries its nodes' members as rows of that
table, so a sync never maps a member name; the same row arrays as at
the last sync mean the same structure, which a scrub then keeps
untouched.
"""

from __future__ import annotations

import math
import random
from typing import Callable

import numpy as np

from repro.core.layout.barneshut import BarnesHutLayout
from repro.core.layout.base import ForceLayout
from repro.core.layout.forces import LayoutParams
from repro.core.visgraph import VisGraph
from repro.errors import LayoutError

__all__ = ["DynamicLayout", "make_layout", "ALGORITHMS"]

ALGORITHMS = ("barneshut", "naive")


def make_layout(
    algorithm: str = "barneshut",
    params: LayoutParams | None = None,
    seed: int = 0,
    workers: int = 1,
) -> ForceLayout:
    """Instantiate a force layout by name.

    ``algorithm`` is ``"barneshut"`` (the production layout) or
    ``"naive"`` (the exact O(n^2) oracle tests and benchmarks compare
    against).  ``workers`` is the Barnes-Hut process count: 1 (the
    default) runs in this process, a power of two above 1 cuts the
    repulsion into that many worker shards
    (:class:`~repro.core.layout.sharded.ShardedBarnesHutLayout`, the
    same positions bit for bit).  Any other count raises a typed
    :class:`~repro.errors.LayoutError`; the naive oracle always runs
    in this process.
    """
    if params is not None:
        # LayoutParams validates at construction, but a tampered or
        # subclassed instance could still smuggle NaN/inf into the
        # force model, where it silently poisons every position.
        for name in ("charge", "theta", "damping"):
            value = getattr(params, name)
            if not math.isfinite(value):
                raise LayoutError(
                    f"LayoutParams.{name} must be finite, got {value!r}"
                )
    # The default count needs no check, and checking it would load the
    # sharded kernel into processes that never fork a worker.
    if type(workers) is not int or workers != 1:
        from repro.core.layout.sharded import validate_workers

        validate_workers(workers)
    if algorithm == "barneshut":
        if workers == 1:
            return BarnesHutLayout(params, seed)
        from repro.core.layout.sharded import ShardedBarnesHutLayout

        return ShardedBarnesHutLayout(params, seed, workers=workers)
    if algorithm == "naive":
        from repro.core.layout.naive import NaiveLayout

        return NaiveLayout(params, seed)
    raise LayoutError(
        f"unknown layout algorithm {algorithm!r}; pick one of {ALGORITHMS}"
    )


class DynamicLayout:
    """Maintains a force layout synchronized with a changing VisGraph."""

    def __init__(
        self,
        params: LayoutParams | None = None,
        seed: int = 0,
        workers: int = 1,
    ) -> None:
        self.layout = make_layout("barneshut", params, seed, workers=workers)
        self._rng = random.Random(seed ^ 0x5EED)
        #: last known position of every *trace entity* (not unit), the
        #: memory that makes aggregation/disaggregation transitions
        #: smooth: row ``i`` is entity ``i`` of ``_table``, the synced
        #: graphs' entity table, and ``_known`` marks the rows that
        #: hold a position
        self._table = None
        self._xy = np.zeros((0, 2))
        self._known = np.zeros(0, dtype=bool)
        #: the last synced graph's own member rows and offsets (node
        #: ``j`` owns ``_member_rows[_bounds[j]:_bounds[j + 1]]``) and
        #: the layout body of each node (its members take the body's
        #: position when the node set next changes)
        self._bounds = np.zeros(1, dtype=np.int32)
        self._member_rows = np.zeros(0, dtype=np.int32)
        self._node_body = np.zeros(0, dtype=np.int32)

    # ------------------------------------------------------------------
    def sync(
        self,
        graph: VisGraph,
        seeds: Callable[[VisGraph, float], np.ndarray] | None = None,
    ) -> dict[str, tuple[float, float]]:
        """Reconcile the simulation with *graph*; return seed positions
        of the nodes that were created by this sync.

        A graph that hands over the last sync's member arrays
        (:attr:`VisGraph.member_rows` and ``member_offsets``) has the
        last sync's nodes, weights and edges: a scrub.  Such a sync only
        drops the layout's cached tree, as a weight update would, and
        touches no node or edge.  Any other graph restructures: every
        member of the last synced nodes remembers its node's position,
        stale nodes go, new nodes come, and the edge set is replaced.

        ``seeds(graph, spring_length)`` supplies fallback spots for
        brand-new nodes whose members were never seen before — the
        session passes the hierarchical radial seeding here ("the
        scalable Barnes-hut algorithm combined with the hierarchical
        information from the traces", Section 3.3): a ``(len(graph),
        2)`` array in graph node order, a NaN row for no seed.  It is
        called only when the sync adds a node.  Without a seed a new
        node starts at random.
        """
        if (
            graph.member_rows is self._member_rows
            and graph.member_offsets is self._bounds
        ):
            self.layout._on_bodies_changed()
            return {}
        self._remember_positions()
        # Forget the synced members until this sync completes: one that
        # raises part way must leave no stale body indices behind.
        self._member_rows = np.zeros(0, dtype=np.int32)
        self._use_table(graph.entities)
        layout = self.layout
        nodes = graph.nodes()
        target = {node.key for node in nodes}
        # Remove in layout index order: removal swaps the last body into
        # the freed slot, so the body order (and with it every float
        # sum over bodies) must not depend on set iteration order.
        layout.remove_nodes(
            [key for key in layout.names() if key not in target]
        )
        new: list[int] = []
        new_weights: list[float] = []
        for j, node in enumerate(nodes):
            weight = max(1.0, float(node.weight))
            if node.key in layout:
                layout.set_weight(node.key, weight)
            else:
                new.append(j)
                new_weights.append(weight)
        spots = (
            np.full((len(new), 2), np.nan)
            if seeds is None or not new
            else seeds(graph, layout.params.spring_length)[new]
        )
        rows, bounds = graph.member_rows, graph.member_offsets
        for i, j in enumerate(new):
            position = self._seed_position(rows[bounds[j]:bounds[j + 1]])
            if position is not None:
                spots[i] = position
        new_keys = [nodes[j].key for j in new]
        layout.add_nodes(new_keys, new_weights, spots)
        layout.set_edges((edge.a, edge.b) for edge in graph.edges)
        body = layout._index
        self._node_body = np.asarray(
            [body[node.key] for node in nodes], dtype=np.int32
        )
        self._member_rows, self._bounds = rows, bounds
        return {key: layout.position(key) for key in new_keys}

    def _use_table(self, table) -> None:
        """Keep the position memory over *table*, the synced graphs'
        entity table."""
        if table is not self._table:
            # A new entity numbering: positions under the old one are
            # not addressable any more.
            self._table = table
            self._xy = np.zeros((len(table), 2))
            self._known = np.zeros(len(table), dtype=bool)

    def _remember_positions(self) -> None:
        """Every member of every synced node takes the node's current
        position: one scatter per change of the node set."""
        rows = self._member_rows
        if len(rows):
            counts = np.diff(self._bounds)
            self._xy[rows] = np.repeat(
                self.layout._pos[self._node_body], counts, axis=0
            )
            self._known[rows] = True

    def _seed_position(
        self, rows: np.ndarray
    ) -> tuple[float, float] | None:
        """Spot of a new node with member *rows*: their remembered
        centroid."""
        known = rows[self._known[rows]]
        if len(known) == 0:
            return None  # let the layout pick a random spot
        if len(known) == 1:
            cx, cy = self._xy[known[0]].tolist()
        else:
            # Left-to-right sums over the members, in member order.
            cx = float(np.cumsum(self._xy[known, 0])[-1]) / len(known)
            cy = float(np.cumsum(self._xy[known, 1])[-1]) / len(known)
        # Tiny jitter so disaggregated siblings do not stack exactly.
        return (
            cx + self._rng.uniform(-1.0, 1.0),
            cy + self._rng.uniform(-1.0, 1.0),
        )

    # ------------------------------------------------------------------
    def settle(
        self, max_steps: int | None = None, tolerance: float = 0.5
    ) -> int:
        """Relax the simulation for at most *max_steps* steps (300 when
        ``None``), stopping early after a step in which every node moved
        less than *tolerance*; returns the steps executed."""
        return self.layout.run(
            300 if max_steps is None else max_steps, tolerance
        )

    def positions(self) -> dict[str, tuple[float, float]]:
        """Current position of every node."""
        return self.layout.positions()

    def position(self, key: str) -> tuple[float, float]:
        """Current position of one node."""
        return self.layout.position(key)

    def drag(self, key: str, position: tuple[float, float]) -> None:
        """Move a node by hand (Section 4.2's mouse interaction)."""
        self.layout.move(key, position)

    def pin(self, key: str, pinned: bool = True) -> None:
        """Freeze (or release) a node in place."""
        self.layout.pin(key, pinned)

    def set_params(self, params: LayoutParams) -> None:
        """Apply new charge/spring/damping values (the sliders)."""
        self.layout.params = params

    @property
    def params(self) -> LayoutParams:
        """The force parameters of the underlying layout."""
        return self.layout.params

    @property
    def stats(self) -> dict:
        """The underlying layout's repulsion counters (evaluations, tree
        builds, quadtree cells, exact pairs) — see
        :attr:`ForceLayout.stats`."""
        return self.layout.stats

    def close(self) -> None:
        """Release kernel resources (the sharded worker pool)."""
        self.layout.close()
