"""Ablation — the Barnes-Hut opening angle theta.

DESIGN.md's layout section exposes ``theta`` as the accuracy/cost knob:
``theta = 0`` reproduces the exact O(n^2) forces, larger values
approximate more aggressively.  This bench quantifies the trade-off on
a clustered 1024-node graph: per-node interaction count (cost) and
relative force error versus exact (quality), both read off the
production traversal (:meth:`ArrayQuadTree.forces` over a sample of
bodies).
"""

import random

import numpy as np
import pytest

from repro.core import ArrayQuadTree

N = 1024
THETAS = (0.0, 0.3, 0.5, 0.7, 1.0, 1.5)


@pytest.fixture(scope="module")
def bodies():
    rng = random.Random(3)
    # Clustered points: what aggregated platform views look like.
    points = []
    for __ in range(32):
        cx, cy = rng.uniform(-500, 500), rng.uniform(-500, 500)
        for __ in range(N // 32):
            points.append((cx + rng.gauss(0, 20), cy + rng.gauss(0, 20)))
    pos = np.array(points)
    return ArrayQuadTree(pos), pos, np.ones(N)


def measurements(bodies, theta, sample):
    """Mean relative force error and interactions per sampled body."""
    tree, pos, masses = bodies
    exact, _ = tree.forces(pos, masses, 100.0, 0.0, bodies=sample)
    approx, p2p = tree.forces(pos, masses, 100.0, theta, bodies=sample)
    work = (tree.far_cells + p2p) / len(sample)
    norm = np.hypot(*exact[sample].T)
    error = np.hypot(*(approx[sample] - exact[sample]).T)
    return float((error[norm > 0] / norm[norm > 0]).mean()), work


def test_theta_tradeoff(bodies, report):
    sample = np.arange(0, N, 16)
    rows = ["theta   mean force error   interactions/node"]
    series = {}
    for theta in THETAS:
        error, work = measurements(bodies, theta, sample)
        series[theta] = (error, work)
        rows.append(f"{theta:5.1f}   {error:16.4%}   {work:17.1f}")
    report("ablation_theta", rows)
    # theta = 0 is exact: every body interacts with the n - 1 others.
    assert series[0.0][0] == pytest.approx(0.0, abs=1e-12)
    assert series[0.0][1] == N - 1
    # Cost decreases monotonically with theta...
    works = [series[t][1] for t in THETAS]
    assert works == sorted(works, reverse=True)
    # ...error grows with theta but stays small at the default 0.7.
    assert series[0.7][0] < 0.05
    assert series[1.5][0] > series[0.3][0]
    # The default setting is a real win: >5x fewer interactions.
    assert series[0.7][1] < series[0.0][1] / 5


def test_theta_forces_reach_only_the_sampled_bodies(bodies):
    """One force pass over a quarter of the bodies at the default
    theta: every sampled body gets a force, no other body does."""
    tree, pos, masses = bodies
    sample = np.arange(0, N, 4)
    forces = tree.forces(pos, masses, 100.0, 0.7, bodies=sample)[0]
    assert np.count_nonzero(forces.any(axis=1)) == N // 4
