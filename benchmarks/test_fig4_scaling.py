"""Fig. 4 — automatic per-type scaling and the interactive size sliders.

Paper series: scheme A (slice where HostA=100 MFlops dominates), scheme
B (slice where HostB=40 MFlops dominates — and still maps to the same
maximum pixel size), scheme C (sliders move hosts up, links down).
"""

import pytest

from repro.core import AnalysisSession
from repro.trace.synthetic import figure4_trace


@pytest.fixture(scope="module")
def session():
    return AnalysisSession(figure4_trace(), seed=1)


def scheme(session, start, end, sliders=None):
    session.scales.reset_sliders()
    for kind, pos in (sliders or {}).items():
        session.set_size_slider(kind, pos)
    session.set_time_slice(start, end)
    view = session.view(settle=False)
    return {
        key: view.node(key).size_px for key in ("HostA", "HostB", "LinkA")
    }


def test_fig4_schemes(session, report):
    a = scheme(session, 0.0, 5.0)
    b = scheme(session, 5.0, 10.0)
    c = scheme(session, 5.0, 10.0, sliders={"host": 0.8, "link": 0.2})
    lines = ["scheme  HostA(px)  HostB(px)  LinkA(px)"]
    for name, row in (("A", a), ("B", b), ("C", c)):
        lines.append(
            f"{name:>6}  {row['HostA']:9.1f}  {row['HostB']:9.1f}  "
            f"{row['LinkA']:9.1f}"
        )
    report("fig4_scaling", lines)
    # Scheme A: HostA is the biggest host -> max pixel; HostB is 1/4.
    assert a["HostA"] == pytest.approx(60.0)
    assert a["HostB"] == pytest.approx(15.0)
    # Scheme B: HostB (40 MFlops) now maps to the same max pixel size
    # HostA (10 MFlops) becomes a quarter of it.
    assert b["HostB"] == pytest.approx(60.0)
    assert b["HostA"] == pytest.approx(15.0)
    # Links keep their own independent scale in both schemes.
    assert a["LinkA"] == pytest.approx(60.0) == b["LinkA"]
    # Scheme C: hosts grew, links shrank.
    assert c["HostB"] > b["HostB"]
    assert c["LinkA"] < b["LinkA"]


def test_fig4_styled_view_holds_three_nodes(session):
    """Styling + scaling a view (the per-frame hot path)."""
    session.set_time_slice(0.0, 5.0)
    view = session.view(settle=False)
    assert len(view) == 3
