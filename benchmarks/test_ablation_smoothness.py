"""Ablation — smooth layout transitions under aggregate/disaggregate.

DESIGN.md calls out the persistent dynamic layout as the design choice
preventing analyst confusion ("the layout is smooth when aggregating").
Ablation: compare the displacement of surviving nodes across an
aggregation change under (a) the persistent dynamic layout with
centroid seeding vs (b) a fresh force layout recomputed from scratch.
"""

import math
from functools import partial

import pytest

from repro.core import AnalysisSession, DynamicLayout
from repro.trace.synthetic import random_hierarchical_trace


def displacement(before, after, keys):
    return sum(math.dist(before[k], after[k]) for k in keys) / len(keys)


@pytest.fixture(scope="module")
def transition():
    trace = random_hierarchical_trace(n_sites=4, seed=9)
    session = AnalysisSession(trace, seed=9)
    session.aggregate_depth(3)  # cluster level
    before = session.view()
    before_positions = dict(before.positions)
    session.aggregate_depth(2)  # site level
    # What the analyst perceives is the frame shortly after the change:
    # centroid-seeded aggregates plus a brief relaxation.  (A long
    # relaxation adds global drift that has nothing to do with the
    # transition itself.)
    after = session.view(settle_steps=30)
    return session, before, before_positions, after


def perceived_positions(before, before_positions, after_graph):
    """Where each node of the new view 'was' before the transition.

    Surviving nodes: their own previous position.  New aggregates: the
    centroid of the previous positions of the nodes whose members they
    absorbed — visually, where the analyst last saw that material.
    """
    origin = {}
    member_pos = {}
    for node in before.nodes():
        for member in node.members:
            member_pos[member] = before_positions[node.key]
    for node in after_graph:
        if node.key in before_positions:
            origin[node.key] = before_positions[node.key]
            continue
        known = [member_pos[m] for m in node.members if m in member_pos]
        if known:
            origin[node.key] = (
                sum(p[0] for p in known) / len(known),
                sum(p[1] for p in known) / len(known),
            )
    return origin


def test_smooth_transition_beats_fresh_layout(transition, report):
    session, before, before_positions, after = transition
    origin = perceived_positions(before, before_positions, after.graph)
    keys = list(origin)
    assert keys, "nodes must be traceable across the scale change"
    smooth = displacement(origin, after.positions, keys)

    fresh = DynamicLayout(seed=4242)
    fresh.sync(after.graph)
    fresh.settle()
    scratch = displacement(origin, fresh.positions(), keys)
    report(
        "ablation_smoothness",
        [
            f"traceable nodes                : {len(keys)}",
            f"mean displacement (persistent) : {smooth:8.1f} px",
            f"mean displacement (fresh)      : {scratch:8.1f} px",
            f"smoothness gain                : {scratch / max(smooth, 1e-9):5.1f}x",
        ],
    )
    assert smooth < scratch / 2


def test_aggregate_appears_at_member_centroid(transition):
    session, before, before_positions, after = transition
    # Every site aggregate should sit near the centroid of the cluster
    # aggregates it absorbed (tracked through shared member entities).
    for node in after.nodes():
        if not node.is_aggregate or node.kind != "host":
            continue
        member_positions = []
        for prev in before.nodes():
            if prev.kind != "host":
                continue
            if set(prev.members) & set(node.members):
                member_positions.append(before_positions[prev.key])
        if not member_positions:
            continue
        cx = sum(p[0] for p in member_positions) / len(member_positions)
        cy = sum(p[1] for p in member_positions) / len(member_positions)
        x, y = after.position(node.key)
        # It relaxed after seeding, so allow drift, but it must not have
        # teleported across the canvas.
        min_x, min_y, max_x, max_y = after.bounds()
        diagonal = math.hypot(max_x - min_x, max_y - min_y)
        assert math.hypot(x - cx, y - cy) < diagonal / 2


def test_hierarchical_seeding_beats_random(report):
    """Second seeding ablation: the paper combines Barnes-Hut "with the
    hierarchical information from the traces" — quantify what the
    hierarchical radial initialization buys over random placement."""
    from repro.core import ScaleSet, VisualMapping, build_visgraph
    from repro.core.aggregation import aggregate_view
    from repro.core.hierarchy import GroupingState, Hierarchy
    from repro.core.layout.seeding import radial_seeds
    from repro.core.timeslice import TimeSlice

    trace = random_hierarchical_trace(
        n_sites=4, clusters_per_site=3, hosts_per_cluster=8, seed=21
    )
    hierarchy = Hierarchy.from_trace(trace)
    grouping = GroupingState(hierarchy)
    start, end = trace.span()
    view = aggregate_view(trace, grouping, TimeSlice(start, end))
    graph = build_visgraph(view, VisualMapping.paper_default(), ScaleSet())

    def converge(seeds):
        engine = DynamicLayout(seed=21)
        engine.sync(graph, seeds)
        return engine.layout.run(max_steps=3000, tolerance=1.0)

    seeded = converge(partial(radial_seeds, hierarchy))
    unseeded = converge(None)
    report(
        "ablation_seeding",
        [
            f"nodes                        : {len(graph)}",
            f"steps to converge (radial)   : {seeded}",
            f"steps to converge (random)   : {unseeded}",
            f"speedup                      : {unseeded / max(seeded, 1):.1f}x",
        ],
    )
    assert seeded <= unseeded
