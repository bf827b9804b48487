"""Claim (Section 1/6) — interactive rendering at large-system scale.

"The combination of multi-scale aggregation and dynamic graph layout
allows our visualization technique to scale seamlessly to large
distributed systems."  Rendering is part of that loop: this bench
measures SVG generation time against view size, from a detailed
Grid'5000-scale view down to the aggregated ones — frame production at
every scale must stay interactive (well under a second).
"""

import time

from repro.core import AnalysisSession, SvgRenderer


def test_render_time_vs_view_size(report, grid_run):
    session = AnalysisSession(grid_run["trace"], seed=2)
    renderer = SvgRenderer(heat_fill=True)
    rows = ["level     nodes   render(ms)"]
    for depth, label in ((0, "hosts"), (3, "clusters"), (2, "sites")):
        if depth:
            session.aggregate_depth(depth)
        else:
            session.disaggregate_all()
        view = session.view(settle_steps=2)
        started = time.perf_counter()
        markup = renderer.render(view)
        elapsed = (time.perf_counter() - started) * 1000.0
        rows.append(f"{label:>8}  {len(view):6d}  {elapsed:9.1f}")
        assert markup.startswith("<svg")
        # Interactivity bound: even the 4400-node view renders < 2 s.
        assert elapsed < 2000.0
    report("render_scalability", rows)

