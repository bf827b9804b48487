"""Claim (Section 3.3) — Barnes-Hut makes the layout scale.

"The basic force-directed algorithm has severe performance problems on
scale — O(n^2) ... we adopt the scalable Barnes-hut algorithm —
O(n log n)."  Reproduced two ways:

* **interaction counts** — the naive pass evaluates exactly ``n - 1``
  pairwise interactions per node; Barnes-Hut evaluates one per accepted
  cell or leaf body (``far_cells + p2p_pairs`` of the production
  traversal), growing ~logarithmically with *n*;
* **wall time per step** — both layouts benchmarked on the same
  clustered random graphs.  (The numpy-vectorized naive baseline has a
  much smaller constant, so the asymptotic win shows in counts at any
  size and in wall time at large sizes.)

The sharded kernel's per-step speedup over the in-process one lands in
``results/layout_sharded_speedup.json``.

Set ``REPRO_BENCH_QUICK=1`` to shrink sizes/repetitions for CI smoke
runs.
"""

import json
import math
import os
import random
from pathlib import Path

import numpy as np
import pytest

from repro.core import ArrayQuadTree, LayoutParams, make_layout
from repro.obs import bench

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))


def clustered_graph(layout, n, seed=0, settle=5):
    """n nodes in sqrt(n) star clusters chained by bridges."""
    n_clusters = max(1, int(math.sqrt(n)))
    hubs = []
    names = []
    edges = []
    count = 0
    for c in range(n_clusters):
        hub = f"hub{c}"
        names.append(hub)
        hubs.append(hub)
        count += 1
        while count < (c + 1) * n // n_clusters:
            name = f"n{count}"
            names.append(name)
            edges.append((hub, name))
            count += 1
    # Bulk insertion: O(n) instead of add_node's quadratic copies, with
    # placement identical to per-node calls in the same order — it has
    # to stay linear for the 100k-body sharded case below.
    layout.add_nodes(names)
    for a, b in edges:
        layout.add_edge(a, b)
    for a, b in zip(hubs, hubs[1:]):
        layout.add_edge(a, b)
    # Shake once so positions are not the initial disc.
    layout.run(max_steps=settle, tolerance=0.0)
    return layout


SIZES = (64, 256) if QUICK else (64, 256, 1024, 4096)


def test_interaction_counts_scale_n_log_n(report):
    rng = random.Random(1)
    lines = ["n      naive/node   barnes-hut/node   ratio"]
    per_node = {}
    for n in SIZES:
        points = [(rng.uniform(0, 1000), rng.uniform(0, 1000)) for _ in range(n)]
        pos = np.array(points)
        tree = ArrayQuadTree(pos)
        sample = np.arange(0, n, max(1, n // 64))
        _, p2p = tree.forces(pos, np.ones(n), 1.0, 0.7, bodies=sample)
        bh = (tree.far_cells + p2p) / sample.size
        naive = n - 1
        per_node[n] = bh
        lines.append(
            f"{n:<6} {naive:11.0f}   {bh:15.1f}   {naive / bh:5.1f}x"
        )
    report("layout_scalability_interactions", lines)
    # Barnes-Hut per-node work grows far slower than n: quadrupling n
    # must not even double the per-node interaction count.
    for small, large in zip(SIZES, SIZES[1:]):
        assert per_node[large] < per_node[small] * 2.0
    # And the advantage over naive widens with n.
    assert (SIZES[-1] - 1) / per_node[SIZES[-1]] > (SIZES[0] - 1) / per_node[
        SIZES[0]
    ]


@pytest.mark.parametrize("algorithm", ["naive", "barneshut"])
@pytest.mark.parametrize("n", [256, 1024])
def test_step_time(benchmark, algorithm, n):
    """Bench: one layout step per algorithm and size (compare groups)."""
    layout = make_layout(algorithm, LayoutParams(), seed=2)
    clustered_graph(layout, n)
    benchmark.group = f"layout-step-n{n}"
    benchmark(layout.step)


def test_barneshut_handles_grid_scale():
    """A 4000+-node layout converges in bounded time (the paper's
    host-level Grid'5000 view)."""
    n = 1024 if QUICK else 4096
    layout = make_layout("barneshut", LayoutParams(), seed=3)
    clustered_graph(layout, n)
    moved = layout.step()
    assert math.isfinite(moved)
    assert len(layout) == n
    # The counts attribute the step's work.
    stats = layout.stats
    assert 1 <= stats["builds"] <= stats["evals"]
    assert stats["cells"] > n
    assert stats["p2p_pairs"] > 0


#: The sharded-kernel acceptance bar: >= 2x per-step speedup over the
#: single-process array kernel at 100k bodies on 4 workers.  Quick mode
#: shrinks the graph (and the floor — superstep overhead is a larger
#: fraction of a small step) for CI smoke runs; on boxes with fewer
#: cores than workers the numbers are recorded but not gated.
SHARDED_N = 4096 if QUICK else 100_000
SHARDED_WORKERS = 4
SHARDED_FLOOR = 1.3 if QUICK else 2.0


def test_sharded_kernel_speedup(report):
    """Sharded kernel vs the single-process array kernel, same graph.

    Both layouts are built identically and timed over whole relaxation
    steps; the sharded layout runs one throwaway step first so the
    worker fork and the replica tree builds happen outside the timing
    (they are one-off costs, not per-step ones).  Results land in
    ``results/layout_sharded_speedup.json`` for the scaling story in
    ``docs/ARCHITECTURE.md``.
    """
    measured = {}
    for kernel, workers in (("array", 1), ("sharded", SHARDED_WORKERS)):
        layout = make_layout(
            "barneshut", LayoutParams(), seed=2, workers=workers
        )
        clustered_graph(layout, SHARDED_N, settle=2)
        layout.step()  # warm: fork the pool, build tree replicas
        timing = bench.measure(
            layout.step,
            quick=QUICK,
            warmup=1,
            repeats=3 if QUICK else 5,
            min_sample_s=0.0,
        )
        measured[kernel] = {
            "step_s": timing["median_s"],
            "reps": timing["repeats"],
            "timing": {k: timing[k] for k in
                       ("median_s", "iqr_s", "mad_s", "mean_s",
                        "min_s", "max_s")},
        }
        layout.close()
    speedup = measured["array"]["step_s"] / measured["sharded"]["step_s"]
    gated = (os.cpu_count() or 1) >= SHARDED_WORKERS
    payload = {
        "schema": bench.SCHEMA,
        "machine": bench.machine_fingerprint(),
        "n": SHARDED_N,
        "workers": SHARDED_WORKERS,
        "quick": QUICK,
        "speedup": speedup,
        "floor": SHARDED_FLOOR,
        "gated": gated,
        "kernels": measured,
    }
    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "layout_sharded_speedup.json").write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n"
    )
    report(
        "layout_sharded_speedup",
        [
            f"n={SHARDED_N}  workers={SHARDED_WORKERS}  "
            f"cpus={os.cpu_count()}",
            *(
                f"{kernel:<8} {data['step_s'] * 1000:8.2f} ms/step"
                for kernel, data in measured.items()
            ),
            f"speedup: {speedup:.2f}x (floor {SHARDED_FLOOR}x, "
            f"{'gated' if gated else 'record-only: fewer cores than workers'})",
        ],
    )
    if gated:
        assert speedup >= SHARDED_FLOOR
