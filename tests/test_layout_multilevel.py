"""Tests for the multilevel (coarsen→relax→interpolate) layout seeding.

The multilevel scheme reuses the trace's resource hierarchy as the
coarsening, so its invariants are structural: levels run coarsest
first and grow monotonically toward the target graph, every graph node
gets a finite seed, children start near their coarse parent, and the
whole pipeline is deterministic for a given seed.  The session-level
tests check the ``seeding="multilevel"`` plumbing end to end,
including the cross-session memo in :class:`SharedTraceData`.
"""

import math

import pytest

from repro.core import (
    AnalysisSession,
    DynamicLayout,
    SharedTraceData,
    multilevel_seeds,
)
from repro.core.aggregation import aggregate_view
from repro.core.hierarchy import GroupingState, Hierarchy
from repro.core.layout.forces import LayoutParams
from repro.core.mapping import VisualMapping
from repro.core.scaling import ScaleSet
from repro.core.timeslice import TimeSlice
from repro.core.visgraph import build_visgraph
from repro.errors import LayoutError
from repro.trace.synthetic import random_hierarchical_trace


def expanded_graph(trace):
    """The fully disaggregated visgraph plus its hierarchy."""
    hierarchy = Hierarchy.from_trace(trace)
    grouping = GroupingState(hierarchy)
    start, end = trace.span()
    view = aggregate_view(trace, grouping, TimeSlice(start, end))
    graph = build_visgraph(view, VisualMapping.paper_default(), ScaleSet())
    return hierarchy, graph


@pytest.fixture(scope="module")
def scenario():
    trace = random_hierarchical_trace(seed=3)
    hierarchy, graph = expanded_graph(trace)
    return trace, hierarchy, graph


class TestMultilevelSeeds:
    def test_every_graph_node_gets_a_finite_seed(self, scenario):
        _, hierarchy, graph = scenario
        seeds, _levels = multilevel_seeds(hierarchy, graph, seed=7)
        keys = {node.key for node in graph}
        assert set(seeds) == keys
        span = LayoutParams().spring_length * max(10.0, math.sqrt(len(keys)))
        for x, y in seeds.values():
            assert math.isfinite(x) and math.isfinite(y)
            # Seeds stay in a sane bounding box, not flung to infinity.
            assert abs(x) < 100 * span and abs(y) < 100 * span

    def test_levels_run_coarsest_first_and_grow(self, scenario):
        _, hierarchy, graph = scenario
        _seeds, levels = multilevel_seeds(hierarchy, graph, seed=7)
        assert len(levels) >= 2
        depths = [lv["depth"] for lv in levels]
        assert depths == sorted(depths) and len(set(depths)) == len(depths)
        sizes = [lv["nodes"] for lv in levels]
        # Projecting onto a deeper hierarchy prefix never merges nodes.
        assert sizes == sorted(sizes)
        # The last level *is* the target graph.
        assert sizes[-1] == sum(1 for _ in graph)
        assert all(
            set(lv) == {"depth", "nodes", "edges", "steps"} and lv["steps"] >= 0
            for lv in levels
        )

    def test_coarse_budget_goes_to_first_nontrivial_level(self, scenario):
        _, hierarchy, graph = scenario
        _seeds, levels = multilevel_seeds(
            hierarchy, graph, seed=7, coarse_steps=40, refine_steps=3
        )
        first_real = next(lv for lv in levels if lv["nodes"] > 1)
        assert first_real["steps"] <= 40
        after = [lv for lv in levels if lv["depth"] > first_real["depth"]]
        assert all(lv["steps"] <= 3 for lv in after)

    def test_deterministic_for_a_seed(self, scenario):
        _, hierarchy, graph = scenario
        a, _ = multilevel_seeds(hierarchy, graph, seed=7)
        b, _ = multilevel_seeds(hierarchy, graph, seed=7)
        c, _ = multilevel_seeds(hierarchy, graph, seed=8)
        assert a == b
        assert a != c

    def test_siblings_interpolate_near_their_coarse_parent(self, scenario):
        """With zero refine steps the finest level is pure interpolation:
        full-depth siblings (one cluster's hosts) all start within the
        jitter radius of their cluster's converged coarse position."""
        from repro.core.layout.multilevel import _prefix_of

        _, hierarchy, graph = scenario
        params = LayoutParams()
        seeds, _ = multilevel_seeds(
            hierarchy, graph, params=params, seed=7, refine_steps=0
        )
        prefix = {
            node.key: _prefix_of(hierarchy, node.members) for node in graph
        }
        max_depth = max(len(p) for p in prefix.values())
        by_parent: dict = {}
        for node in graph:
            if len(prefix[node.key]) == max_depth:
                parent = prefix[node.key][: max_depth - 1]
                by_parent.setdefault(parent, []).append(seeds[node.key])
        assert any(len(spots) > 1 for spots in by_parent.values())
        jitter = params.spring_length / 4.0
        for spots in by_parent.values():
            xs = [s[0] for s in spots]
            ys = [s[1] for s in spots]
            assert max(xs) - min(xs) <= 2.0 * jitter + 1e-9
            assert max(ys) - min(ys) <= 2.0 * jitter + 1e-9

    def test_seeded_layout_converges_within_budget(self, scenario):
        _, hierarchy, graph = scenario
        seeds, _ = multilevel_seeds(hierarchy, graph, seed=7)
        dyn = DynamicLayout(seed=7)
        dyn.sync(graph, seed_positions=seeds)
        assert dyn.settle(max_steps=300) < 300

    def test_negative_budgets_rejected(self, scenario):
        _, hierarchy, graph = scenario
        with pytest.raises(LayoutError):
            multilevel_seeds(hierarchy, graph, coarse_steps=-1)
        with pytest.raises(LayoutError):
            multilevel_seeds(hierarchy, graph, refine_steps=-1)

    def test_level_stats_recorded(self, scenario):
        from repro.core.layout.multilevel import LEVEL_STATS

        _, hierarchy, graph = scenario
        runs = LEVEL_STATS["runs"]
        levels = LEVEL_STATS["levels"]
        steps = LEVEL_STATS["coarse_steps"] + LEVEL_STATS["refine_steps"]
        multilevel_seeds(hierarchy, graph, seed=11)
        assert LEVEL_STATS["runs"] == runs + 1
        assert LEVEL_STATS["levels"] >= levels + 2
        assert (
            LEVEL_STATS["coarse_steps"] + LEVEL_STATS["refine_steps"] > steps
        )
        assert set(LEVEL_STATS) == {
            "runs", "levels", "coarse_steps", "refine_steps"
        }


class TestSessionIntegration:
    def test_session_view_with_multilevel_seeding(self):
        trace = random_hierarchical_trace(seed=3)
        with AnalysisSession(trace, seeding="multilevel") as session:
            session.disaggregate_all()
            view = session.view(settle_steps=2)
            assert len(view.positions) == sum(1 for _ in view.graph)

    def test_unknown_seeding_mode_is_a_typed_error(self):
        trace = random_hierarchical_trace(seed=3)
        with pytest.raises(LayoutError):
            AnalysisSession(trace, seeding="spiral")

    def test_shared_memo_serves_second_session(self):
        trace = random_hierarchical_trace(seed=3)
        shared = SharedTraceData(trace)
        for _ in range(2):
            session = AnalysisSession(
                trace, shared=shared, seeding="multilevel"
            )
            session.disaggregate_all()
            session.view(settle_steps=1)
        assert shared.stats["seed_shared_hits"] >= 1

    def test_radial_and_multilevel_memo_entries_are_distinct(self):
        trace = random_hierarchical_trace(seed=3)
        shared = SharedTraceData(trace)
        builds0 = shared.stats["seed_builds"]
        for mode in ("radial", "multilevel"):
            session = AnalysisSession(trace, shared=shared, seeding=mode)
            session.view(settle_steps=1)
        assert shared.stats["seed_builds"] == builds0 + 2
