"""Memory bound of the Barnes-Hut force traversal.

:meth:`ArrayQuadTree.forces` walks the bodies in fixed blocks
(``BLOCK_BODIES``), so the memory it holds while running is bounded by
the block, not by the body count.  An all-at-once frontier holds every
accepted (body, cell) pair until the end, roughly 100 MB at 20 000
bodies.
"""

import tracemalloc

import numpy as np

from repro.core.layout import ArrayQuadTree

#: Allowed transient of one forces call; blocks of 256 bodies need
#: about 2 MB at 20 000 bodies (blocks of 1024 needed about 5 MB).
TRANSIENT_BOUND_MB = 4


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
