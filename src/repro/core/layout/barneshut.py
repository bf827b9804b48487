"""Barnes-Hut O(n log n) force-directed layout (Sections 3.3 and 4.2).

The paper's scalability answer: repulsion is approximated through a
quadtree, so the layout keeps converging interactively on graphs with
thousands of nodes.  With ``theta == 0`` the computation degenerates to
the exact pairwise one (useful to validate against
:class:`~repro.core.layout.naive.NaiveLayout`).

The layout's ``(n, 2)`` position ndarray feeds the flat
:class:`ArrayQuadTree` directly and forces are evaluated by a batched
frontier traversal over fixed blocks of bodies, so its memory stays
flat as the graph grows.  The tree is reused across relaxation steps
until some body drifts further than
:data:`~repro.core.layout.forces.REBUILD_DRIFT` of the root half-size
(leaf interactions always read current positions, so ``theta == 0``
stays exact even on a stale tree).  The sharded kernel
(:class:`~repro.core.layout.sharded.ShardedBarnesHutLayout`) is this
class with the traversal cut into per-process shards.

Every evaluation counts ``evals`` / ``builds`` / ``cells`` /
``p2p_pairs`` into :attr:`ForceLayout.stats`; the ``layout.build`` and
``layout.traverse`` spans time the two phases.
"""

from __future__ import annotations

import numpy as np

from repro.core.layout import forces as force_model
from repro.core.layout.base import ForceLayout
from repro.core.layout.forces import LayoutParams
from repro.core.layout.quadtree import ArrayQuadTree
from repro.obs.spans import span

__all__ = ["BarnesHutLayout"]


class BarnesHutLayout(ForceLayout):
    """Force layout with quadtree-approximated repulsion."""

    def __init__(
        self, params: LayoutParams | None = None, seed: int = 0
    ) -> None:
        self._tree: ArrayQuadTree | None = None
        #: positions and root half-size at the last tree build: the
        #: reference of the drift check
        self._tree_pos: np.ndarray | None = None
        self._tree_half = 0.0
        super().__init__(params, seed)

    def _on_bodies_changed(self) -> None:
        # Adding/removing a node or changing a weight invalidates the
        # cached tree (drift checks only cover position changes).
        self._tree = None
        self._tree_pos = None

    def _needs_rebuild(self) -> bool:
        if self._tree_pos is None or len(self._tree_pos) != len(self._names):
            return True
        limit = force_model.REBUILD_DRIFT * self._tree_half
        if limit <= 0.0:
            return True
        return bool(np.abs(self._pos - self._tree_pos).max() > limit)

    def _mark_built(self, half: float) -> None:
        """Make the current positions the drift check's reference."""
        self._tree_pos = self._pos.copy()
        self._tree_half = half

    def _repulsion_forces(self) -> np.ndarray:
        n = len(self._names)
        if n < 2:
            self._record_stats(built=False, cells=0, p2p_pairs=0)
            return np.zeros((n, 2), dtype=float)
        built = self._tree is None or self._needs_rebuild()
        if built:
            with span("layout.build"):
                self._tree = ArrayQuadTree(self._pos, self._weight)
                self._mark_built(float(self._tree.half[0]))
        return self._traverse(built)

    def _traverse(self, built: bool) -> np.ndarray:
        """Forces on every body from the current tree; counts the eval."""
        with span("layout.traverse"):
            forces, p2p = self._tree.forces(
                self._pos, self._weight, self.params.charge, self.params.theta
            )
        self._record_stats(
            built=built, cells=self._tree.n_cells, p2p_pairs=p2p
        )
        return forces
