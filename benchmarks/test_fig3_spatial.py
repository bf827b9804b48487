"""Fig. 3 — two successive spatial aggregations and their effect on the
topology-based representation (square + diamond per collapsed group).
"""

import pytest

from repro.core import AnalysisSession, TimeSlice
from repro.core.aggregation import aggregate_view
from repro.core.hierarchy import GroupingState, Hierarchy
from repro.trace import CAPACITY, USAGE
from repro.trace.synthetic import figure3_trace, random_hierarchical_trace


def test_fig3_two_aggregations(report):
    session = AnalysisSession(figure3_trace(), seed=1)
    lines = []
    detailed = session.view(settle=False)
    lines.append(f"detailed view: {len(detailed)} nodes")

    session.aggregate(("GroupB", "GroupA"))
    first = session.view(settle=False)
    hosts = first.node("GroupB/GroupA::host")
    links = first.node("GroupB/GroupA::link")
    lines.append(
        f"1st aggregation: {len(first)} nodes; GroupA hosts "
        f"cap={hosts.values[CAPACITY]:.0f} use={hosts.values[USAGE]:.0f}; "
        f"GroupA links cap={links.values[CAPACITY]:.0f}"
    )
    assert len(first) == 5
    assert hosts.values[CAPACITY] == 150.0 and hosts.values[USAGE] == 90.0

    session.aggregate(("GroupB",))
    second = session.view(settle=False)
    lines.append(
        f"2nd aggregation: {len(second)} nodes "
        f"({[n.key for n in second.nodes()]})"
    )
    assert len(second) == 2
    assert second.node("GroupB::host").values[CAPACITY] == 225.0
    assert second.node("GroupB::link").values[CAPACITY] == 1200.0
    report("fig3_spatial", lines)


@pytest.mark.parametrize("depth,expected_max", [(1, 10), (2, 40), (3, 400)])
def test_fig3_aggregation_reduces_view(depth, expected_max):
    trace = random_hierarchical_trace(n_sites=4, seed=2)
    hierarchy = Hierarchy.from_trace(trace)
    grouping = GroupingState(hierarchy)
    grouping.collapse_depth(depth)
    view = aggregate_view(trace, grouping, TimeSlice(0.0, 100.0))
    assert len(view) <= expected_max


def test_fig3_cluster_level_view_is_not_empty():
    """Spatial aggregation of a ~100-entity trace at cluster level."""
    trace = random_hierarchical_trace(n_sites=4, seed=2)
    hierarchy = Hierarchy.from_trace(trace)
    grouping = GroupingState(hierarchy)
    grouping.collapse_depth(3)
    view = aggregate_view(trace, grouping, TimeSlice(0.0, 100.0))
    assert len(view) > 0
