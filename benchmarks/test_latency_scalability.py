"""Claim — communication bands keep the timeline renderable at scale.

Per-message Gantt arrows are O(messages): a 10k-message run means 10k
``<line>`` elements and an SVG no browser pans smoothly.  The band
representation (*Scalable Representations of Communication in Gantt
Charts*) caps the communication layer at ``2 x groups x slices``
elements whatever the message count.  This bench runs the traced
master-worker app at two message scales, renders both modes, and pins
the acceptance bound: the arrow layer must grow with the messages while
the band layer stays within its bound — **independent** of message
count.  Band aggregation itself must also stay interactive (well under
a second at the 10k-message scale).  Numbers land in
``results/latency_bands.json``.

Set ``REPRO_BENCH_QUICK=1`` for the CI smoke variant (smaller runs,
same assertions).
"""

import json
import os
import time
from pathlib import Path

from repro.core.timeline import Timeline
from repro.obs import bench
from repro.obs.latency import LatencyAttribution

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

#: (workers, tasks) of the small and large runs.  The full-mode large
#: run produces a >10k-edge causal DAG — the scale the paper's related
#: work says per-message arrows stop being viable at.
SMALL = (4, 60)
LARGE = (4, 500) if QUICK else (16, 3400)

SLICES = 64


def test_band_element_count_independent_of_messages(report):
    small = bench.causal_run(*SMALL)
    large = bench.causal_run(*LARGE)
    if not QUICK:
        assert len(large.edges) > 10_000
    results = {}
    for name, causal in (("small", small), ("large", large)):
        timeline = Timeline.from_trace(causal.to_trace())
        began = time.perf_counter()
        bands = timeline.bands(slices=SLICES)
        aggregate_s = time.perf_counter() - began
        began = time.perf_counter()
        band_markup = timeline.render_svg(mode="bands", slices=SLICES)
        band_render_s = time.perf_counter() - began
        arrow_markup = timeline.render_svg(mode="arrows")
        groups = len(set(timeline.groups.values()))
        results[name] = {
            "messages": len(timeline.arrows),
            "rows": len(timeline.rows),
            "groups": groups,
            "bands": len(bands),
            "band_lines": band_markup.count("<line"),
            "arrow_lines": arrow_markup.count("<line"),
            "band_bound": 2 * groups * SLICES,
            "aggregate_s": aggregate_s,
            "band_render_s": band_render_s,
        }
        # The communication layer: arrows are O(messages), bands are
        # bounded by the slice grid however many messages there are.
        assert results[name]["arrow_lines"] == len(timeline.arrows)
        assert results[name]["band_lines"] <= results[name]["band_bound"]
        assert results[name]["band_lines"] == len(bands)
        assert aggregate_s < 1.0

    # The headline: messages grew by >4x, the band layer did not.
    growth = results["large"]["messages"] / results["small"]["messages"]
    assert growth > 4.0
    assert (
        results["large"]["band_lines"] <= results["large"]["band_bound"]
        < results["large"]["messages"]
    )

    payload = {
        "schema": bench.SCHEMA,
        "machine": bench.machine_fingerprint(),
        "quick": QUICK,
        "slices": SLICES,
        "runs": results,
    }
    out = Path(__file__).parent / "results" / "latency_bands.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    rows = [
        "run     messages  band lines  bound  arrow lines",
        *(
            f"{name:<7} {r['messages']:8d}  {r['band_lines']:10d}  "
            f"{r['band_bound']:5d}  {r['arrow_lines']:11d}"
            for name, r in results.items()
        ),
    ]
    report("latency_bands", rows)


def test_attribution_scales(report):
    """Attribution + conservation stays fast and exact at the large
    message scale (the analytics half of the latency pipeline)."""
    causal = bench.causal_run(*LARGE)
    began = time.perf_counter()
    attribution = LatencyAttribution(causal)
    build_s = time.perf_counter() - began
    assert attribution.conserved(tol=1e-9)
    # Interactive analytics: the full attribution of a 10k-message DAG
    # builds in well under a second.
    assert build_s < 1.0
    report(
        "latency_attribution",
        [
            f"edges {len(causal.edges)}",
            f"build_s {build_s:.4f}",
            f"conserved {attribution.conserved(tol=1e-9)}",
        ],
    )
