"""Memory bound of the Barnes-Hut force traversal.

:meth:`ArrayQuadTree.forces` walks the bodies in fixed blocks
(``BLOCK_BODIES``), so the memory it holds while running is bounded by
the block, not by the body count.  An all-at-once frontier holds every
accepted (body, cell) pair until the end, roughly 100 MB at 20 000
bodies.  Within a block, the leaf phase expands its leaf hits into body
pairs ``LEAF_CHUNK`` hits at a time, so it holds one chunk's pair
arrays rather than about ten arrays as long as every pair of the block.
"""

import tracemalloc

import numpy as np

from repro.core.layout import ArrayQuadTree

#: Allowed transient of one forces call; blocks of 256 bodies need
#: about 2 MB at 20 000 bodies (blocks of 1024 needed about 5 MB).
TRANSIENT_BOUND_MB = 4
#: Allowed transient of one forces call on 900 clustered bodies (three
#: blocks of 300): 0.60 MB with the chunked leaf phase, 0.91 MB when
#: the leaf phase expanded every pair of a block at once, with the
#: summed far-cell terms still held.
CLUSTERED_BOUND_MB = 0.75


def test_forces_transient_is_bounded_at_20k_bodies():
    n = 20_000
    rng = np.random.default_rng(5)
    half = 10.0 * np.sqrt(n)
    pts = rng.uniform(-half, half, size=(n, 2))
    masses = np.ones(n)
    tree = ArrayQuadTree(pts, masses)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        forces, pairs = tree.forces(pts, masses, 100.0, 0.7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert forces.shape == (n, 2) and pairs > 0
    assert (peak - before) / 2**20 < TRANSIENT_BOUND_MB


def test_forces_transient_is_bounded_on_a_clustered_layout():
    """Thirty clusters of thirty bodies, like a view of one expanded
    site: far cells and leaf pairs both matter."""
    rng = np.random.default_rng(0)
    centers = rng.uniform(-1500.0, 1500.0, size=(30, 1, 2))
    pts = (centers + rng.normal(0.0, 60.0, size=(30, 30, 2))).reshape(-1, 2)
    masses = np.ones(len(pts))
    tree = ArrayQuadTree(pts, masses)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        forces, pairs = tree.forces(pts, masses, 800.0, 0.7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert forces.shape == (900, 2) and pairs > 0 and tree.far_cells > 0
    assert (peak - before) / 2**20 < CLUSTERED_BOUND_MB
