"""Claim — the columnar store makes reopening a trace interactive.

The paper's workflow is iterative: the analyst closes the tool and comes
back to the same trace.  With the text format, every return pays a full
re-parse (tokenizing each breakpoint); the ``.rtrace`` store instead
validates a 64-byte header, checksums a small JSON directory and maps
the columns — cost proportional to the *metadata*, not the data.  The
``store`` bench suite prices the two cold paths on one synthetic
hierarchical trace, and this bench pins the acceptance floor over that
run: cold-open must be at least ``OPEN_FLOOR``x faster than text
re-parse.  A second check drives identical window queries through the
mmap bank and the resident bank and requires bit-identical answers —
speed never buys a different number.  The suite run lands in
``results/BENCH_store.json``.

Set ``REPRO_BENCH_QUICK=1`` for the CI smoke variant (smaller trace,
same assertions).
"""

import os

import numpy as np

from conftest import RESULTS_DIR
from repro.obs import bench
from repro.trace.signalbank import SignalBank
from repro.trace.store import open_store, write_store

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

#: Acceptance floor: cold-open must beat text re-parse by this factor.
OPEN_FLOOR = 5.0


def test_cold_open_beats_text_reparse(report):
    result = bench.run_suite("store", quick=QUICK)
    speedup = bench.speedup(result, "text_reparse", "cold_open")
    bench.write_result(result, RESULTS_DIR)
    cases = result["cases"]
    shape = cases["cold_open"]["params"]
    report(
        "store_cold_open",
        [
            f"entities={shape['entities']}"
            f"  breakpoints={shape['breakpoints']}  store={shape['bytes']}B",
            f"cold open   {cases['cold_open']['median_s'] * 1e3:8.3f} ms",
            f"text parse  {cases['text_reparse']['median_s'] * 1e3:8.3f} ms",
            f"speedup: {speedup:.1f}x (floor {OPEN_FLOOR}x)",
        ],
    )
    assert speedup >= OPEN_FLOOR


def test_mmap_scrub_stays_exact_at_scale(tmp_path):
    """Speed must not change answers: a window sweep over the mapped
    columns is bit-identical to the resident bank's."""
    trace = bench.store_trace(QUICK)
    path = tmp_path / "exact.rtrace"
    write_store(trace, path)
    store = open_store(path)
    start, end = trace.span()
    moves = 10 if QUICK else 40
    width = (end - start) / 8.0
    step = (end - start - width) / (moves - 1)
    for metric in trace.metric_names():
        rows = [e.metrics[metric] for e in trace if metric in e.metrics]
        resident = SignalBank(rows)
        mapped = store.signal_bank(metric)
        for i in range(moves):
            a = start + i * step
            b = a + width
            np.testing.assert_array_equal(
                mapped.window_means(a, b), resident.window_means(a, b)
            )
