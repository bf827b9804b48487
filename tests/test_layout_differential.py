"""Differential-testing net for the layout stack.

:class:`ArrayQuadTree` is the one Barnes-Hut tree.  It is validated
over a pool of seeded random graphs (varied sizes, masses, co-located
bodies):

* with ``theta == 0`` its forces must match the exact pairwise
  :class:`NaiveLayout` computation (different algorithm, same physics),
  for one evaluation and along short trajectories;
* for realistic ``theta`` its batched traversal must match
  :func:`reference_walk`, a per-body scalar stack walk over the same
  tree's arrays — same opening criterion, same co-location kick,
  different execution strategy — down to the exact pair and far-cell
  counts;
* rerunning the identical scenario must be *byte-identical*, so layout
  results are reproducible across runs;
* the **sharded** kernel (repulsion partitioned across worker
  processes) must be *bitwise* equal to the single-process array
  kernel, for any power-of-two worker count — each worker evaluates
  its contiguous body range against an identical tree replica, and
  per-body accumulation order does not depend on which other bodies
  are co-evaluated.

The reference walk reads the tree it checks, so the structural
invariants pin the tree itself: every body in exactly one leaf, the
quadrant rule on every path, child geometry, MAX_DEPTH leaves, and
each cell's mass and center of mass against the bodies beneath it.
"""

import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro.core.layout.forces as forces_module
import repro.core.layout.sharded as sharded_module
from repro.core.layout import (
    ArrayQuadTree,
    BarnesHutLayout,
    LayoutParams,
    ShardedBarnesHutLayout,
    make_layout,
    validate_workers,
)
from repro.core.layout.quadtree import BLOCK_BODIES, MAX_DEPTH, _block_size
from repro.errors import LayoutError

# (n, seed, co-located pairs): 20 scenarios spanning tiny graphs,
# mid-size graphs, and degenerate co-location-heavy ones.
CASES = [
    (2, 0, 0),
    (3, 1, 0),
    (4, 2, 1),
    (5, 3, 0),
    (8, 4, 2),
    (13, 5, 0),
    (21, 6, 3),
    (34, 7, 0),
    (55, 8, 5),
    (89, 9, 0),
    (144, 10, 6),
    (233, 11, 0),
    (40, 12, 20),
    (60, 13, 0),
    (100, 14, 0),
    (150, 15, 10),
    (200, 16, 0),
    (300, 17, 0),
    (32, 18, 16),
    (64, 19, 0),
]

CASE_IDS = [f"n{n}-s{seed}-c{coloc}" for n, seed, coloc in CASES]

# Scenarios larger than one force-evaluation block (BLOCK_BODIES).
# theta=0 visits every leaf for every body, so the exact case stays
# small (four blocks); the approximate nets use a larger one.
EXACT_BLOCK_CASE = (1100, 25, 60)
BLOCK_CASE = (2600, 26, 100)
BLOCK_IDS = [f"n{n}-s{seed}-c{coloc}" for n, seed, coloc in
             (EXACT_BLOCK_CASE, BLOCK_CASE)]


def random_bodies(case):
    """Deterministic positions and masses for one scenario.

    Bodies ``2k`` and ``2k + 1`` are co-located for ``k < coloc``;
    scenarios larger than one block also co-locate the two bodies on
    either side of the first block boundary.
    """
    n, seed, coloc = case
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-200.0, 200.0, size=(n, 2))
    masses = rng.uniform(0.5, 5.0, size=n)
    for k in range(coloc):
        pts[2 * k + 1] = pts[2 * k]
    edge = _block_size(n)
    if edge < n:
        pts[edge] = pts[edge - 1]
    return pts, masses


def seeded_layout(algorithm, case, theta, edges=False):
    n, seed, _ = case
    pts, masses = random_bodies(case)
    layout = make_layout(algorithm, LayoutParams(theta=theta), seed=seed)
    for i in range(n):
        layout.add_node(
            f"n{i}",
            weight=float(masses[i]),
            position=(float(pts[i, 0]), float(pts[i, 1])),
        )
    if edges:
        for i in range(n - 1):
            layout.add_edge(f"n{i}", f"n{i + 1}")
    return layout


def assert_forces_match(got, want):
    scale = max(float(np.abs(want).max()), 1.0)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * scale)


@pytest.mark.parametrize(
    "case", CASES + [EXACT_BLOCK_CASE], ids=CASE_IDS + BLOCK_IDS[:1]
)
def test_theta_zero_matches_naive_pairwise(case):
    """(a) With theta=0 the vectorized kernel is exactly pairwise."""
    bh = seeded_layout("barneshut", case, theta=0.0)
    naive = seeded_layout("naive", case, theta=0.0)
    assert_forces_match(bh._repulsion_forces(), naive._repulsion_forces())


def reference_walk(tree, pos, masses, charge, theta):
    """Barnes-Hut forces by a per-body stack walk over *tree*'s arrays.

    The scalar statement of the algorithm: a leaf interacts exactly
    with each resident (co-located pairs get the fixed kick), a cell
    whose opening size ``2 * half`` is under ``theta`` times its
    distance acts as one point mass, any other cell opens.  Returns
    ``(forces, p2p_pairs, far_cells)``.
    """
    forces = np.zeros((len(pos), 2))
    p2p = far = 0
    for i, (x, y) in enumerate(pos):
        stack = [0]
        while stack:
            c = stack.pop()
            if tree.is_leaf[c]:
                first = tree.leaf_start[c]
                others = tree.leaf_bodies[first:first + tree.leaf_count[c]]
                pairs = [(x - pos[j, 0], y - pos[j, 1], masses[j])
                         for j in others if j != i]
                p2p += len(pairs)
            else:
                dx, dy = x - tree.com_x[c], y - tree.com_y[c]
                d2 = dx * dx + dy * dy
                size = 2.0 * tree.half[c]
                if not (d2 > 1e-12 and size * size < theta * theta * d2):
                    stack.extend(k for k in tree.children[c] if k >= 0)
                    continue
                pairs = [(dx, dy, tree.mass[c])]
                far += 1
            for dx, dy, mass in pairs:
                d2 = dx * dx + dy * dy
                if d2 < 1e-12:
                    dx, dy, d2 = 0.31, 0.17, 0.125
                f = charge * masses[i] * mass / d2 / math.sqrt(d2)
                forces[i] += (f * dx, f * dy)
    return forces, p2p, far


@pytest.mark.parametrize("theta", [0.5, 0.9, 1.2])
@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_matches_legacy_scalar_walk(case, theta):
    """(b) Array kernel == the scalar reference walk for realistic theta."""
    arr = seeded_layout("barneshut", case, theta=theta)
    got = arr._repulsion_forces()
    want, p2p, far = reference_walk(
        arr._tree, arr._pos, arr._weight, arr.params.charge, theta
    )
    assert_forces_match(got, want)
    # Same walk, too: the pair and far-cell counts must agree exactly.
    assert arr.stats["p2p_pairs"] == p2p
    assert arr._tree.far_cells == far


@pytest.mark.parametrize("case", CASES[:8], ids=CASE_IDS[:8])
def test_short_trajectories_match_oracle(case):
    """Ten relaxation steps at theta=0 stay within roundoff of the
    exact pairwise layout, reused trees and co-located bodies included."""

    def run(algorithm):
        layout = seeded_layout(algorithm, case, theta=0.0, edges=True)
        for _ in range(10):
            layout.step()
        return layout._pos.copy()

    arr, oracle = run("barneshut"), run("naive")
    scale = max(float(np.abs(oracle).max()), 1.0)
    np.testing.assert_allclose(arr, oracle, rtol=1e-6, atol=1e-6 * scale)


@pytest.mark.parametrize("case", CASES[:6], ids=CASE_IDS[:6])
def test_byte_identical_across_runs(case):
    """(c) Same seed, same scenario -> bit-for-bit the same positions."""

    def run():
        layout = seeded_layout("barneshut", case, theta=0.7, edges=True)
        for _ in range(12):
            layout.step()
        return layout._pos.tobytes()

    assert run() == run()


# ----------------------------------------------------------------------
# Quadtree structural invariants
# ----------------------------------------------------------------------

INVARIANT_CASES = [(1, 20, 0), (2, 21, 1), (17, 22, 3), (64, 23, 0), (200, 24, 10)]
INVARIANT_IDS = [f"n{n}-s{s}-c{c}" for n, s, c in INVARIANT_CASES]


def cells_above(tree):
    """``(cell, child)`` links and each body's leaf-to-root cell path."""
    parent = np.full(tree.n_cells, -1)
    for cell, row in enumerate(tree.children):
        parent[row[row >= 0]] = cell
    paths = {}
    for leaf in np.flatnonzero(tree.is_leaf):
        first = tree.leaf_start[leaf]
        for body in tree.leaf_bodies[first:first + tree.leaf_count[leaf]]:
            path = [int(leaf)]
            while parent[path[-1]] >= 0:
                path.append(int(parent[path[-1]]))
            paths[int(body)] = path
    return parent, paths


class TestQuadTreeInvariants:
    @pytest.mark.parametrize("case", INVARIANT_CASES, ids=INVARIANT_IDS)
    def test_root_mass_equals_body_total(self, case):
        pts, masses = random_bodies(case)
        arr = ArrayQuadTree(pts, masses)
        total = float(masses.sum())
        assert arr.mass[0] == pytest.approx(total, rel=1e-12)

    @pytest.mark.parametrize("case", INVARIANT_CASES, ids=INVARIANT_IDS)
    def test_internal_com_is_children_weighted_com(self, case):
        pts, masses = random_bodies(case)
        arr = ArrayQuadTree(pts, masses)
        internal = np.flatnonzero(~arr.is_leaf)
        if internal.size:
            children = arr.children[internal]
            valid = children >= 0
            safe = np.where(valid, children, 0)
            child_mass = np.where(valid, arr.mass[safe], 0.0)
            mass_sum = child_mass.sum(axis=1)
            np.testing.assert_allclose(
                mass_sum, arr.mass[internal], rtol=1e-9
            )
            for com, axis in ((arr.com_x, 0), (arr.com_y, 1)):
                weighted = (child_mass * np.where(valid, com[safe], 0.0)).sum(
                    axis=1
                ) / mass_sum
                np.testing.assert_allclose(weighted, com[internal], rtol=1e-9)

    @pytest.mark.parametrize("case", INVARIANT_CASES, ids=INVARIANT_IDS)
    def test_every_body_in_exactly_one_leaf(self, case):
        pts, masses = random_bodies(case)
        tree = ArrayQuadTree(pts, masses)
        n = len(pts)
        assert sorted(tree.leaf_bodies.tolist()) == list(range(n))
        assert int(tree.leaf_count.sum()) == n
        assert np.array_equal(tree.is_leaf, tree.leaf_count > 0)
        assert (tree.children[tree.is_leaf] < 0).all()
        # Every cell is reachable and every non-leaf has a child.
        parent, paths = cells_above(tree)
        assert (parent[1:] >= 0).all() and parent[0] == -1
        assert ((tree.children >= 0).any(axis=1) | tree.is_leaf).all()
        assert all(path[-1] == 0 for path in paths.values())

    @pytest.mark.parametrize("case", INVARIANT_CASES, ids=INVARIANT_IDS)
    def test_quadrant_rule_on_every_path(self, case):
        pts, masses = random_bodies(case)
        tree = ArrayQuadTree(pts, masses)
        _, paths = cells_above(tree)
        for body, path in paths.items():
            x, y = pts[body]
            for child, cell in zip(path, path[1:]):
                quad = int(x >= tree.cx[cell]) | int(y >= tree.cy[cell]) << 1
                assert tree.children[cell, quad] == child, (body, cell)

    @pytest.mark.parametrize("case", INVARIANT_CASES, ids=INVARIANT_IDS)
    def test_child_geometry_halves_the_parent(self, case):
        pts, masses = random_bodies(case)
        tree = ArrayQuadTree(pts, masses)
        cells, quads = np.nonzero(tree.children >= 0)
        kids = tree.children[cells, quads]
        offset = tree.half[cells] / 2.0
        sign_x = np.where(quads & 1, 1.0, -1.0)
        sign_y = np.where(quads & 2, 1.0, -1.0)
        assert np.array_equal(tree.half[kids], offset)
        assert np.array_equal(tree.cx[kids], tree.cx[cells] + sign_x * offset)
        assert np.array_equal(tree.cy[kids], tree.cy[cells] + sign_y * offset)
        assert np.array_equal(tree.depth[kids], tree.depth[cells] + 1)
        # The root square covers every body.
        assert (np.abs(pts - (tree.cx[0], tree.cy[0])) <= tree.half[0]).all()

    @pytest.mark.parametrize("case", INVARIANT_CASES, ids=INVARIANT_IDS)
    def test_cells_sum_the_bodies_beneath_them(self, case):
        """Each cell's body count, mass and center of mass come from
        the bodies on paths through it; only MAX_DEPTH leaves share."""
        pts, masses = random_bodies(case)
        tree = ArrayQuadTree(pts, masses)
        count = np.zeros(tree.n_cells)
        mass = np.zeros(tree.n_cells)
        moment = np.zeros((tree.n_cells, 2))
        for body, path in cells_above(tree)[1].items():
            count[path] += 1
            mass[path] += masses[body]
            moment[path] += masses[body] * pts[body]
        np.testing.assert_allclose(tree.mass, mass, rtol=1e-12)
        np.testing.assert_allclose(tree.com_x, moment[:, 0] / mass, rtol=1e-9)
        np.testing.assert_allclose(tree.com_y, moment[:, 1] / mass, rtol=1e-9)
        assert (count[~tree.is_leaf] >= 2).all()
        shared = tree.is_leaf & (tree.leaf_count > 1)
        assert (tree.depth[shared] == MAX_DEPTH).all()

    def test_colocated_bodies_share_a_max_depth_leaf(self):
        pts = [(3.0, 4.0)] * 4
        arr = ArrayQuadTree(pts)
        deepest = int(arr.depth.max())
        assert deepest == MAX_DEPTH
        shared = np.flatnonzero(arr.leaf_count == 4)
        assert shared.size == 1
        assert arr.depth[shared[0]] == MAX_DEPTH

    def test_empty_and_single_body_trees_return_zero_force(self):
        empty = ArrayQuadTree(np.zeros((0, 2)))
        forces, pairs = empty.forces(np.zeros((0, 2)), np.zeros(0), 100.0, 0.7)
        assert forces.shape == (0, 2) and pairs == 0
        assert empty.n_cells == 0 and empty.far_cells == 0
        single = ArrayQuadTree([(1.0, 2.0)], [3.0])
        forces, pairs = single.forces(
            np.array([[1.0, 2.0]]), np.array([3.0]), 100.0, 0.7
        )
        assert forces.tolist() == [[0.0, 0.0]] and pairs == 0
        assert single.far_cells == 0

    def test_bad_shapes_rejected(self):
        with pytest.raises(Exception):
            ArrayQuadTree(np.zeros((3, 3)))
        with pytest.raises(Exception):
            ArrayQuadTree([(0.0, 0.0)], [1.0, 2.0])
        tree = ArrayQuadTree([(0.0, 0.0), (1.0, 1.0)])
        with pytest.raises(Exception):
            tree.forces(np.zeros((3, 2)), np.ones(3), 1.0, 0.5)


class TestTreeReuse:
    def test_tree_reused_until_drift_threshold(self, monkeypatch):
        # Weak charge: one step moves nodes far less than the drift
        # limit, so the second step must reuse the first step's tree.
        monkeypatch.setattr(forces_module, "REBUILD_DRIFT", 0.5)
        params = LayoutParams(charge=0.001)
        layout = make_layout("barneshut", params, seed=1)
        for i in range(30):
            layout.add_node(f"n{i}", position=(float(i % 6) * 10, float(i // 6) * 10))
        layout.step()
        assert layout.stats["builds"] == 1
        layout.step()
        # Tiny drift: the tree from step 1 is still in use.
        assert layout.stats["builds"] == 1

    def test_drift_zero_rebuilds_every_step(self, monkeypatch):
        monkeypatch.setattr(forces_module, "REBUILD_DRIFT", 0.0)
        layout = make_layout("barneshut", LayoutParams(), seed=1)
        for i in range(30):
            layout.add_node(f"n{i}", position=(float(i % 6) * 10, float(i // 6) * 10))
        layout.step()
        layout.step()
        assert layout.stats["builds"] == 2

    def test_structural_changes_invalidate_tree(self, monkeypatch):
        monkeypatch.setattr(forces_module, "REBUILD_DRIFT", 0.9)
        layout = make_layout("barneshut", LayoutParams(), seed=1)
        for i in range(10):
            layout.add_node(f"n{i}", position=(float(i) * 5, 0.0))
        layout.step()
        layout.set_weight("n0", 50.0)
        layout.step()
        # The weight change forced a rebuild despite zero drift.
        assert layout.stats["builds"] == 2

    def test_reused_tree_is_still_exact_at_theta_zero(self, monkeypatch):
        """theta=0 visits every leaf, so stale trees stay exact."""
        monkeypatch.setattr(forces_module, "REBUILD_DRIFT", 0.9)
        params = LayoutParams(theta=0.0)
        bh = make_layout("barneshut", params, seed=31)
        naive = make_layout("naive", params, seed=31)
        for layout in (bh, naive):
            for i in range(20):
                layout.add_node(f"n{i}")
            for i in range(19):
                layout.add_edge(f"n{i}", f"n{i + 1}")
        for _ in range(15):
            bh.step()
            naive.step()
        np.testing.assert_allclose(bh._pos, naive._pos, rtol=1e-9, atol=1e-6)


# ----------------------------------------------------------------------
# Sharded kernel: bitwise agreement with the single-process array path
# ----------------------------------------------------------------------

# The last case gives each of two workers a shard that straddles a
# block boundary, with blocks laid out differently than in the array
# kernel's single pass.
SHARD_CASES = [(64, 19, 0), (150, 15, 10), (300, 17, 0), BLOCK_CASE]
SHARD_IDS = [f"n{n}-s{s}-c{c}" for n, s, c in SHARD_CASES]


def sharded_layout(case, theta=0.7, workers=2, edges=False):
    """A ShardedBarnesHutLayout over one scenario, pool forced on."""
    n, seed, _ = case
    pts, masses = random_bodies(case)
    layout = ShardedBarnesHutLayout(
        LayoutParams(theta=theta),
        seed=seed,
        workers=workers,
        min_shard_bodies=8,  # force the pool even for test-sized graphs
    )
    layout.add_nodes(
        [f"n{i}" for i in range(n)],
        weights=masses,
        positions=pts,
    )
    if edges:
        for i in range(n - 1):
            layout.add_edge(f"n{i}", f"n{i + 1}")
    return layout


class TestQuadTreeSubsetForces:
    """forces(bodies=...) — the shard primitive — equals full rows."""

    @pytest.mark.parametrize(
        "case", CASES[8:14] + [BLOCK_CASE], ids=CASE_IDS[8:14] + BLOCK_IDS[1:]
    )
    def test_subset_rows_bitwise_equal_full_rows(self, case):
        pts, masses = random_bodies(case)
        n = len(pts)
        tree = ArrayQuadTree(pts, masses)
        full, full_pairs = tree.forces(pts, masses, 100.0, 0.7)
        mid = n // 2
        lo_f, lo_p = tree.forces(
            pts, masses, 100.0, 0.7, bodies=np.arange(0, mid)
        )
        hi_f, hi_p = tree.forces(
            pts, masses, 100.0, 0.7, bodies=np.arange(mid, n)
        )
        assert np.array_equal(lo_f[:mid], full[:mid])
        assert np.array_equal(hi_f[mid:], full[mid:])
        # Rows outside the subset stay exactly zero.
        assert not lo_f[mid:].any() and not hi_f[:mid].any()
        assert lo_p + hi_p == full_pairs

    def test_scattered_subsets_across_blocks_bitwise_equal_full_rows(self):
        """Unsorted and offset subsets regroup bodies into different
        blocks than the full pass; their rows must not change."""
        pts, masses = random_bodies(BLOCK_CASE)
        n = len(pts)
        tree = ArrayQuadTree(pts, masses)
        full, _ = tree.forces(pts, masses, 100.0, 0.7)
        rng = np.random.default_rng(7)
        subsets = [
            np.arange(BLOCK_BODIES // 2, BLOCK_BODIES + 300),
            rng.permutation(n)[: BLOCK_BODIES + 200],
            np.arange(n)[::-1],
        ]
        for subset in subsets:
            got, _ = tree.forces(pts, masses, 100.0, 0.7, bodies=subset)
            assert np.array_equal(got[subset], full[subset])
            rest = np.setdiff1d(np.arange(n), subset)
            assert not got[rest].any()

    def test_bad_subsets_rejected(self):
        pts, masses = random_bodies((8, 4, 2))
        tree = ArrayQuadTree(pts, masses)
        for bad in ([8], [-1], [[0, 1]]):
            with pytest.raises(Exception):
                tree.forces(pts, masses, 100.0, 0.7, bodies=np.array(bad))


class TestShardedKernel:
    @pytest.mark.parametrize("case", SHARD_CASES, ids=SHARD_IDS)
    def test_repulsion_bitwise_equals_array_kernel(self, case):
        arr = seeded_layout("barneshut", case, theta=0.7)
        sharded = sharded_layout(case)
        try:
            assert np.array_equal(
                sharded._repulsion_forces(), arr._repulsion_forces()
            )
            assert sharded._pool is not None  # it really went multiprocess
            assert sharded.stats["p2p_pairs"] == arr.stats["p2p_pairs"]
            assert sharded.stats["cells"] == arr.stats["cells"]
        finally:
            sharded.close()

    @pytest.mark.parametrize("case", SHARD_CASES[:2], ids=SHARD_IDS[:2])
    def test_trajectories_bitwise_equal_array_kernel(self, case):
        arr = seeded_layout("barneshut", case, theta=0.7, edges=True)
        sharded = sharded_layout(case, edges=True)
        try:
            for _ in range(8):
                arr.step()
                sharded.step()
            assert arr._pos.tobytes() == sharded._pos.tobytes()
        finally:
            sharded.close()

    def test_worker_count_does_not_change_results(self):
        case = SHARD_CASES[0]
        runs = []
        for workers in (1, 2, 4):
            layout = sharded_layout(case, workers=workers, edges=True)
            try:
                for _ in range(6):
                    layout.step()
                runs.append(layout._pos.tobytes())
            finally:
                layout.close()
        assert runs[0] == runs[1] == runs[2]

    def test_small_graphs_fall_back_to_in_process(self):
        layout = ShardedBarnesHutLayout(LayoutParams(), seed=1, workers=2)
        for i in range(16):  # far below min_shard_bodies
            layout.add_node(f"n{i}")
        try:
            layout.step()
            assert layout._pool is None
            assert layout.shard_stats["inproc_evals"] >= 1
        finally:
            layout.close()

    def test_close_is_idempotent_and_releases_workers(self):
        layout = sharded_layout(SHARD_CASES[0])
        layout.step()
        pool = layout._pool
        assert pool is not None
        procs = list(pool._procs)
        assert procs and all(p.is_alive() for p in procs)
        layout.close()
        layout.close()
        assert layout._pool is None
        assert all(not p.is_alive() for p in procs)


def test_dead_shard_worker_falls_back_in_process():
    """A killed worker breaks its pipe; the next superstep turns that
    into a LayoutError, closes the pool and evaluates in-process from
    then on, over the tree the replicas held: positions and counts stay
    the array kernel's bit for bit."""
    case = (400, 23, 0)
    arr = seeded_layout("barneshut", case, theta=0.7, edges=True)
    sharded = sharded_layout(case, edges=True)
    try:
        # Step until the next evaluation reuses the replicas' tree, so
        # the fallback has to rebuild that tree, not a fresh one.
        for _ in range(40):
            arr.step()
            sharded.step()
            if not sharded._needs_rebuild():
                break
        assert not sharded._needs_rebuild()
        supersteps = sharded.shard_stats["supersteps"]
        victim = sharded._pool._procs[0]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10)
        assert not victim.is_alive()
        for _ in range(15):
            arr.step()
            sharded.step()
            assert np.array_equal(sharded._pos, arr._pos)
        assert sharded._pool is None
        assert sharded.shard_stats["supersteps"] == supersteps
        assert sharded.shard_stats["inproc_evals"] == 15
        assert sharded.stats == arr.stats
    finally:
        sharded.close()


#: Seconds the hung-worker scenario may take for the step that meets
#: the stopped worker: the shortened superstep deadline plus an
#: in-process evaluation, far below ``_ShardPool.close``'s 5 s join.
HUNG_STEP_BOUND_S = 3.0


def hung_worker_scenario():
    """SIGSTOP one worker of a 400-body, 2-worker layout.  The next
    superstep misses its (shortened) deadline, kills the pool and
    evaluates in-process; positions and counts stay the array
    kernel's bit for bit.  Prints ``ok``."""
    sharded_module.SUPERSTEP_TIMEOUT_S = 0.25
    case = (400, 23, 0)
    arr = seeded_layout("barneshut", case, theta=0.7, edges=True)
    sharded = sharded_layout(case, edges=True)
    try:
        for _ in range(40):
            arr.step()
            sharded.step()
            if not sharded._needs_rebuild():
                break
        assert not sharded._needs_rebuild()
        supersteps = sharded.shard_stats["supersteps"]
        victim = sharded._pool._procs[0]
        os.kill(victim.pid, signal.SIGSTOP)
        arr.step()
        began = time.monotonic()
        sharded.step()
        assert time.monotonic() - began < HUNG_STEP_BOUND_S
        assert np.array_equal(sharded._pos, arr._pos)
        for _ in range(14):
            arr.step()
            sharded.step()
            assert np.array_equal(sharded._pos, arr._pos)
        assert not victim.is_alive()
        assert sharded._pool is None
        assert sharded.shard_stats["supersteps"] == supersteps
        assert sharded.shard_stats["inproc_evals"] == 15
        assert sharded.stats == arr.stats
    finally:
        sharded.close()
    print("ok")


def test_hung_shard_worker_falls_back_in_process():
    """A stopped worker neither hangs the layout nor outlives it.  The
    scenario runs in a child process with a timeout, so a hang fails
    this test instead of stalling the suite; the child leads its own
    process group, so a timeout kills its workers too."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root), env.get("PYTHONPATH", "")]
    )
    child = subprocess.Popen(
        [sys.executable, "-c",
         "from tests.test_layout_differential import hung_worker_scenario\n"
         "hung_worker_scenario()"],
        cwd=root, env=env, text=True, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        out, err = child.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        pytest.fail("a step hung on a stopped shard worker")
    assert child.returncode == 0, err
    assert out.strip() == "ok"


class TestWorkerValidation:
    @pytest.mark.parametrize("bad", [0, -1, 3, 6, 2.0, "2", True, None])
    def test_validate_workers_rejects_non_power_of_two(self, bad):
        with pytest.raises(LayoutError):
            validate_workers(bad)

    @pytest.mark.parametrize("good", [1, 2, 4, 8, 64])
    def test_validate_workers_accepts_powers_of_two(self, good):
        validate_workers(good)

    def test_one_worker_is_a_barneshut_layout(self):
        layout = make_layout("barneshut", workers=1)
        assert type(layout) is BarnesHutLayout

    def test_make_layout_sharded_wires_worker_count(self):
        layout = make_layout("barneshut", workers=4)
        try:
            assert isinstance(layout, ShardedBarnesHutLayout)
            assert layout.workers == 4
        finally:
            layout.close()


class TestBulkInsert:
    def test_add_nodes_matches_per_node_random_placement(self):
        bulk = make_layout("barneshut", seed=9)
        slow = make_layout("barneshut", seed=9)
        names = [f"n{i}" for i in range(40)]
        bulk.add_nodes(names)
        for name in names:
            slow.add_node(name)
        assert bulk._pos.tobytes() == slow._pos.tobytes()

    def test_add_nodes_rejects_bad_batches(self):
        layout = make_layout("barneshut", seed=9)
        layout.add_node("dup")
        with pytest.raises(LayoutError):
            layout.add_nodes(["a", "dup"])
        with pytest.raises(LayoutError):
            layout.add_nodes(["a", "a"])
        with pytest.raises(LayoutError):
            layout.add_nodes(["a", "b"], weights=[1.0])
        with pytest.raises(LayoutError):
            layout.add_nodes(["a", "b"], weights=[1.0, -1.0])
        with pytest.raises(LayoutError):
            layout.add_nodes(["a"], positions=np.zeros((2, 2)))
        with pytest.raises(LayoutError):
            layout.add_nodes(["a", "b"], positions=np.zeros((2, 3)))
        # Nothing was partially inserted by the failed batches.
        assert layout.names() == ["dup"]

    def test_add_nodes_mixed_positions_match_per_node_inserts(self):
        """NaN rows draw the same random-disc spots, in the same order,
        as per-node inserts without a position interleaved with explicit
        spots; the caller's array is left as it was."""
        bulk = make_layout("barneshut", seed=9)
        slow = make_layout("barneshut", seed=9)
        for layout in (bulk, slow):
            layout.add_node("first")
        names = [f"n{i}" for i in range(30)]
        spots = [None if i % 3 else (float(i), -float(i)) for i in range(30)]
        rows = np.array(
            [(np.nan, np.nan) if spot is None else spot for spot in spots]
        )
        given = rows.copy()
        weights = [1.0 + i for i in range(30)]
        bulk.add_nodes(names, weights, rows)
        for name, weight, spot in zip(names, weights, spots):
            slow.add_node(name, weight, spot)
        assert rows.tobytes() == given.tobytes()
        assert bulk.names() == slow.names()
        assert bulk._pos.tobytes() == slow._pos.tobytes()
        assert bulk._weight.tobytes() == slow._weight.tobytes()

    def test_remove_nodes_replays_swap_removals(self):
        layout = make_layout("barneshut", seed=9)
        names = [f"n{i}" for i in range(12)]
        layout.add_nodes(names)
        for a, b in zip(names, names[1:]):
            layout.add_edge(a, b)
        layout.pin("n5")
        before = {name: layout.position(name) for name in names}
        doomed = ["n3", "n11", "n0", "n7"]
        model = list(names)
        for name in doomed:  # each removal moves the last body into its slot
            slot = model.index(name)
            model[slot] = model[-1]
            model.pop()
        layout.remove_nodes(doomed)
        assert layout.names() == model
        assert [layout.position(name) for name in model] == [
            before[name] for name in model
        ]
        assert layout.is_pinned("n5") and not layout.is_pinned("n1")
        assert all(a not in doomed and b not in doomed
                   for a, b in layout.edges())
        assert len(layout.edges()) == 11 - 6

    def test_remove_nodes_rejects_bad_batches(self):
        layout = make_layout("barneshut", seed=9)
        layout.add_nodes(["a", "b", "c"])
        with pytest.raises(LayoutError):
            layout.remove_nodes(["a", "missing"])
        with pytest.raises(LayoutError):
            layout.remove_nodes(["b", "b"])
        assert layout.names() == ["a", "b", "c"]
