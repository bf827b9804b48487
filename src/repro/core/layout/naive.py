"""Exact O(n^2) force-directed layout.

"The basic force-directed algorithm has severe performance problems on
scale — O(n^2)" (Section 3.3).  This is that baseline: every node pair
interacts.  It is the reference the Barnes-Hut layout is validated and
benchmarked against; pairwise forces are vectorized with numpy in row
blocks to bound memory.
"""

from __future__ import annotations

import numpy as np

from repro.core.layout.base import ForceLayout

__all__ = ["NaiveLayout"]

#: Rows per block when materializing pairwise differences.
_BLOCK = 256


class NaiveLayout(ForceLayout):
    """Force layout computing exact pairwise Coulomb repulsion."""

    def _repulsion_forces(self) -> np.ndarray:
        n = len(self._names)
        forces = np.zeros((n, 2), dtype=float)
        if n < 2:
            self._record_stats(built=False, cells=0, p2p_pairs=0)
            return forces
        charge = self.params.charge
        pos = self._pos
        weight = self._weight
        for start in range(0, n, _BLOCK):
            stop = min(start + _BLOCK, n)
            diff = pos[start:stop, None, :] - pos[None, :, :]  # (b, n, 2)
            dist2 = (diff ** 2).sum(axis=2)
            np.fill_diagonal(dist2[:, start:stop], np.inf)
            close = dist2 < 1e-12
            if close.any():
                # Co-located nodes: deterministic tiny separation kick.
                diff[close] = (0.31, 0.17)
                dist2[close] = 0.125
            magnitude = charge * weight[start:stop, None] * weight[None, :] / dist2
            dist = np.sqrt(dist2)
            forces[start:stop] = (diff * (magnitude / dist)[:, :, None]).sum(axis=1)
        self._record_stats(built=False, cells=0, p2p_pairs=n * (n - 1))
        return forces
