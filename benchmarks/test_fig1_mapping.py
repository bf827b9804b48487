"""Fig. 1 — mapping trace metrics to the graph at three time cursors.

Paper series: at cursors A, B and C the node sizes/fills of HostA,
HostB and LinkA track the availability/utilization curves (HostA
shrinks, HostB grows, LinkA's fill ramps up then drops).
"""

import pytest

from repro.core import AnalysisSession
from repro.trace.synthetic import figure1_trace

CURSORS = (("A", 2.0), ("B", 6.0), ("C", 10.0))


@pytest.fixture(scope="module")
def cursor_rows():
    session = AnalysisSession(figure1_trace(), seed=1)
    rows = {}
    for label, t in CURSORS:
        session.set_time_slice(t, t)
        view = session.view(settle=False)
        rows[label] = {
            key: (view.node(key).size_value, view.node(key).fill_fraction)
            for key in ("HostA", "HostB", "LinkA")
        }
    return rows


def test_fig1_series(cursor_rows, report):
    lines = ["cursor  HostA(size,fill)  HostB(size,fill)  LinkA(size,fill)"]
    for label, _ in CURSORS:
        row = cursor_rows[label]
        lines.append(
            f"{label:>6}  {row['HostA'][0]:7.1f} {row['HostA'][1]:5.0%}  "
            f"{row['HostB'][0]:9.1f} {row['HostB'][1]:5.0%}  "
            f"{row['LinkA'][0]:9.1f} {row['LinkA'][1]:5.0%}"
        )
    report("fig1_mapping", lines)
    # HostA's square shrinks across the cursors; HostB's grows.
    a_sizes = [cursor_rows[l]["HostA"][0] for l, _ in CURSORS]
    b_sizes = [cursor_rows[l]["HostB"][0] for l, _ in CURSORS]
    assert a_sizes == sorted(a_sizes, reverse=True)
    assert b_sizes == sorted(b_sizes)
    # LinkA's fill peaks at the middle cursor.
    fills = [cursor_rows[l]["LinkA"][1] for l, _ in CURSORS]
    assert fills[1] == max(fills)


def test_fig1_cursor_view_holds_three_nodes():
    """One instantaneous-cursor view draws HostA, HostB and LinkA."""
    session = AnalysisSession(figure1_trace(), seed=1)
    session.set_time_slice(6.0, 6.0)
    view = session.view(settle=False)
    assert len(view) == 3
