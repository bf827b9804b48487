"""Claim (Section 3.2.2) — spatial aggregation keeps the view tractable.

"Spatial aggregation also plays a major role in the scalability of the
topological-based representation": the Grid'5000 trace shrinks from
thousands of drawable units at host level to a handful at grid level,
while the aggregated totals stay exact.

The scrub-loop bench adds the temporal half of the claim: sliding the
time slice across the trace (the paper's interactive exploration) must
be fast enough to animate, which the incremental
:class:`~repro.core.AggregationEngine` achieves by integrating only the
delta windows each move uncovers.  Its speedup over the from-scratch
oracle is read off one run of the ``aggregation`` bench suite, which
lands in ``results/BENCH_aggregation.json``.

Set ``REPRO_BENCH_QUICK=1`` to swap the Grid'5000 simulation for a
small synthetic trace in CI smoke runs.
"""

import os

import pytest

from conftest import RESULTS_DIR
from repro.obs import bench
from repro.core import AggregationEngine, TimeSlice
from repro.core.aggregation import aggregate_view
from repro.core.hierarchy import GroupingState, Hierarchy
from repro.trace import CAPACITY

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

LEVEL_NAMES = {0: "hosts", 3: "clusters", 2: "sites", 1: "grid"}


def test_view_size_per_level(grid_run, report):
    trace = grid_run["trace"]
    hierarchy = Hierarchy.from_trace(trace)
    start, end = trace.span()
    tslice = TimeSlice(start, end)
    lines = ["level     units   edges"]
    sizes = {}
    for depth in (0, 3, 2, 1):
        grouping = GroupingState(hierarchy)
        if depth:
            grouping.collapse_depth(depth)
        view = aggregate_view(
            trace, grouping, tslice, metrics=[CAPACITY]
        )
        sizes[depth] = len(view)
        lines.append(
            f"{LEVEL_NAMES[depth]:>8}  {len(view):6d}  {len(view.edges):6d}"
        )
    report("aggregation_scalability", lines)
    assert sizes[0] > 4000  # hosts + links + routers of 2170-host grid
    assert sizes[3] < sizes[0] / 10
    assert sizes[2] < 60
    assert sizes[1] <= 5


#: The acceptance bar for the incremental engine over a scrub loop.
SCRUB_FLOOR = 2.5 if QUICK else 5.0


def test_slice_scrub_speedup(report):
    """Scrub loop: the engine's slice move vs a from-scratch view.

    The paper's interactive scenario — an aggregated site-level view of
    the Grid'5000 run, with the analyst dragging the time slice back and
    forth — run by the ``aggregation`` suite through the scalar oracle
    ``aggregate_view`` (``cold_view``) and the incremental
    ``AggregationEngine`` (``scrub_move``) over the same slides.  The
    engine must produce the oracle's values and win by riding the
    delta-window path, not by skipping work.
    """
    result = bench.run_suite("aggregation", quick=QUICK)
    speedup = bench.speedup(result, "cold_view", "scrub_move")

    # Same slides, same values — and the stats must prove the
    # incremental paths were taken, not a degenerate recomputation.
    trace, grouping, slides, metrics = bench.scrub_workload(QUICK)
    engine = AggregationEngine(trace)
    for tslice in slides:
        view = engine.view(grouping, tslice, metrics=metrics)
        oracle = aggregate_view(trace, grouping, tslice, metrics=metrics)
        assert list(view.units) == list(oracle.units)
        for key, want in oracle.units.items():
            for metric, ref in want.values.items():
                got = view.units[key].values[metric]
                assert got == pytest.approx(ref, rel=1e-9, abs=1e-9)
    stats = engine.stats
    assert stats["slice_delta"] > stats["slice_full"]
    assert stats["advance_rounds"] > 0

    bench.write_result(result, RESULTS_DIR)
    cases = result["cases"]
    report(
        "aggregation_scrub_speedup",
        [
            f"entities={len(trace)}  units={len(view.units)}"
            f"  moves={len(slides)}",
            f"scalar  {cases['cold_view']['median_s'] * 1000:8.2f} ms/move",
            f"fast    {cases['scrub_move']['median_s'] * 1000:8.2f} ms/move"
            f"  (delta={stats['slice_delta']}, full={stats['slice_full']})",
            f"speedup: {speedup:.1f}x (floor {SCRUB_FLOOR}x)",
        ],
    )
    assert speedup >= SCRUB_FLOOR
