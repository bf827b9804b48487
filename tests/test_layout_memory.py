"""Memory bound of the Barnes-Hut force traversal.

:meth:`ArrayQuadTree.forces` walks the bodies in fixed blocks
(``BLOCK_BODIES``), so the memory it holds while running is bounded by
the block, not by the body count.  An all-at-once frontier holds every
accepted (body, cell) pair until the end, roughly 100 MB at 20 000
bodies.  Within a block, each frontier round, and then the block's
leaf hits, are swept ``FRONTIER_CHUNK`` pairs at a time, and each chunk
adds its terms to per-body sums at once: the sweep holds the round's
pairs and one chunk's arrays, not arrays as long as the widest round
nor every term of the block.
"""

import tracemalloc

import numpy as np

from repro.core.layout import ArrayQuadTree

#: Allowed transient of one forces call; blocks of 256 bodies need
#: about 1.2 MB at 20 000 bodies (1.8 MB with whole frontier rounds and
#: every far-cell term of a block held; blocks of 1024 needed about
#: 5 MB).
TRANSIENT_BOUND_MB = 4
#: Allowed transient of one forces call on 900 clustered bodies (three
#: blocks of 300): 0.34 MB with chunked rounds and summed terms, 0.60 MB
#: with whole rounds and every far-cell term of a block held until its
#: sum, 0.91 MB when the leaf phase also expanded every pair of a block
#: at once.
CLUSTERED_BOUND_MB = 0.42


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
