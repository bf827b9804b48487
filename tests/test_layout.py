"""Tests for the force-directed layouts (Sections 3.3 and 4.2)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.layout import (
    ArrayQuadTree,
    BarnesHutLayout,
    DynamicLayout,
    LayoutParams,
    NaiveLayout,
    ShardedBarnesHutLayout,
    make_layout,
)
from repro.core.layout.forces import REBUILD_DRIFT
from repro.errors import LayoutError


class TestLayoutParams:
    def test_defaults_valid(self):
        LayoutParams()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("charge", -1.0),
            ("spring", -0.1),
            ("spring_length", 0.0),
            ("damping", 0.0),
            ("damping", 1.5),
            ("theta", -0.5),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(LayoutError):
            LayoutParams(**{field: value})

    def test_with_copies(self):
        base = LayoutParams()
        changed = base.with_(charge=123.0)
        assert changed.charge == 123.0
        assert base.charge != 123.0
        assert changed.spring == base.spring


class TestQuadTree:
    def test_force_is_pairwise_exact_with_theta_zero(self):
        points = [(0.0, 0.0), (10.0, 0.0), (3.0, 4.0), (-5.0, 2.0)]
        masses = [1.0, 2.0, 3.0, 1.5]
        tree = ArrayQuadTree(points, masses)
        forces, _ = tree.forces(
            np.array(points), np.array(masses), charge=100.0, theta=0.0
        )
        for i in range(len(points)):
            ex = ey = 0.0
            for j in range(len(points)):
                if i == j:
                    continue
                dx = points[i][0] - points[j][0]
                dy = points[i][1] - points[j][1]
                d2 = dx * dx + dy * dy
                f = 100.0 * masses[i] * masses[j] / d2
                d = math.sqrt(d2)
                ex += f * dx / d
                ey += f * dy / d
            assert forces[i, 0] == pytest.approx(ex, rel=1e-9)
            assert forces[i, 1] == pytest.approx(ey, rel=1e-9)

    def test_approximation_close_to_exact(self):
        rng = np.random.default_rng(0)
        points = rng.uniform(-100, 100, size=(200, 2))
        masses = np.ones(200)
        tree = ArrayQuadTree(points)
        exact, _ = tree.forces(points, masses, 50.0, theta=0.0)
        approx, _ = tree.forces(points, masses, 50.0, theta=0.7)
        for i in range(0, 200, 17):
            norm = math.hypot(*exact[i])
            err = math.hypot(*(approx[i] - exact[i]))
            assert err <= 0.15 * norm + 1e-9

    def test_colocated_points_dont_crash(self):
        tree = ArrayQuadTree([(1.0, 1.0)] * 5)
        forces, _ = tree.forces(np.ones((5, 2)), np.ones(5), 10.0, 0.7)
        assert np.isfinite(forces).all()

    def test_mass_mismatch_rejected(self):
        with pytest.raises(LayoutError):
            ArrayQuadTree([(0.0, 0.0)], [1.0, 2.0])

    def test_empty_tree(self):
        tree = ArrayQuadTree([])
        assert tree.n_bodies == 0 and tree.n_cells == 0

    def test_total_mass_preserved(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-10, 10, size=(50, 2))
        masses = rng.uniform(0.5, 3.0, size=50)
        tree = ArrayQuadTree(pts, masses)
        assert tree.mass[0] == pytest.approx(masses.sum())


@pytest.mark.parametrize("algorithm", ["naive", "barneshut"])
class TestForceLayouts:
    def test_structure_operations(self, algorithm):
        layout = make_layout(algorithm, seed=1)
        layout.add_node("a")
        layout.add_node("b", weight=2.0)
        layout.add_edge("a", "b")
        assert len(layout) == 2
        assert "a" in layout
        assert layout.edges() == [("a", "b")]
        layout.remove_node("a")
        assert "a" not in layout
        assert layout.edges() == []

    def test_duplicate_node_rejected(self, algorithm):
        layout = make_layout(algorithm)
        layout.add_node("a")
        with pytest.raises(LayoutError):
            layout.add_node("a")

    def test_bad_weight_rejected(self, algorithm):
        layout = make_layout(algorithm)
        with pytest.raises(LayoutError):
            layout.add_node("a", weight=0.0)
        layout.add_node("b")
        with pytest.raises(LayoutError):
            layout.set_weight("b", -1.0)

    def test_self_edge_rejected(self, algorithm):
        layout = make_layout(algorithm)
        layout.add_node("a")
        with pytest.raises(LayoutError):
            layout.add_edge("a", "a")

    def test_edge_endpoints_must_exist(self, algorithm):
        layout = make_layout(algorithm)
        layout.add_node("a")
        with pytest.raises(LayoutError):
            layout.add_edge("a", "ghost")

    def test_deterministic_given_seed(self, algorithm):
        def build():
            layout = make_layout(algorithm, seed=42)
            for i in range(10):
                layout.add_node(f"n{i}")
            for i in range(9):
                layout.add_edge(f"n{i}", f"n{i + 1}")
            layout.run(max_steps=50, tolerance=0.0)
            return layout.positions()

        assert build() == build()

    def test_two_connected_nodes_approach_spring_length(self, algorithm):
        params = LayoutParams(charge=0.0, spring=0.1, spring_length=50.0)
        layout = make_layout(algorithm, params, seed=3)
        layout.add_node("a", position=(0.0, 0.0))
        layout.add_node("b", position=(200.0, 0.0))
        layout.add_edge("a", "b")
        layout.run(max_steps=500, tolerance=1e-3)
        (ax, ay), (bx, by) = layout.position("a"), layout.position("b")
        assert math.hypot(bx - ax, by - ay) == pytest.approx(50.0, abs=1.0)

    def test_repulsion_pushes_apart(self, algorithm):
        params = LayoutParams(spring=0.0, charge=500.0)
        layout = make_layout(algorithm, params, seed=5)
        layout.add_node("a", position=(0.0, 0.0))
        layout.add_node("b", position=(1.0, 0.0))
        before = 1.0
        layout.run(max_steps=100, tolerance=1e-3)
        (ax, ay), (bx, by) = layout.position("a"), layout.position("b")
        assert math.hypot(bx - ax, by - ay) > before

    def test_pinned_node_never_moves(self, algorithm):
        layout = make_layout(algorithm, seed=7)
        layout.add_node("fixed", position=(5.0, 5.0))
        layout.add_node("free", position=(6.0, 5.0))
        layout.add_edge("fixed", "free")
        layout.pin("fixed")
        assert layout.is_pinned("fixed")
        layout.run(max_steps=50, tolerance=0.0)
        assert layout.position("fixed") == (5.0, 5.0)
        layout.pin("fixed", False)
        assert not layout.is_pinned("fixed")

    def test_move_resets_velocity_and_neighbors_follow(self, algorithm):
        params = LayoutParams(charge=10.0, spring=0.2, spring_length=10.0)
        layout = make_layout(algorithm, params, seed=9)
        layout.add_node("a", position=(0.0, 0.0))
        layout.add_node("b", position=(10.0, 0.0))
        layout.add_edge("a", "b")
        layout.run(max_steps=100, tolerance=1e-2)
        # Drag = move while holding: the held node is pinned in place.
        layout.move("a", (1000.0, 1000.0))
        layout.pin("a")
        layout.run(max_steps=500, tolerance=1e-2)
        bx, by = layout.position("b")
        # b followed a towards the new spot (Section 4.2).
        assert math.hypot(bx - 1000.0, by - 1000.0) < 100.0
        assert layout.position("a") == (1000.0, 1000.0)

    def test_empty_layout_steps_safely(self, algorithm):
        layout = make_layout(algorithm)
        assert layout.step() == 0.0
        assert layout.run() == 1

    def test_run_validation(self, algorithm):
        layout = make_layout(algorithm)
        with pytest.raises(LayoutError):
            layout.run(max_steps=-1)

    def test_dispersion_grows_with_charge(self, algorithm):
        """Fig. 5: higher charge -> more disperse nodes."""

        def settle(charge):
            params = LayoutParams(charge=charge, spring=0.05)
            layout = make_layout(algorithm, params, seed=11)
            for i in range(12):
                layout.add_node(f"n{i}")
            for i in range(12):
                layout.add_edge(f"n{i}", f"n{(i + 1) % 12}")
            layout.run(max_steps=400, tolerance=0.05)
            return layout.dispersion()

        assert settle(2000.0) > settle(50.0)

    def test_edge_length_shrinks_with_spring(self, algorithm):
        """Fig. 5: stronger springs -> connected nodes get closer."""

        def settle(spring):
            params = LayoutParams(charge=300.0, spring=spring)
            layout = make_layout(algorithm, params, seed=13)
            for i in range(10):
                layout.add_node(f"n{i}")
            for i in range(9):
                layout.add_edge(f"n{i}", f"n{i + 1}")
            layout.run(max_steps=400, tolerance=0.05)
            return layout.mean_edge_length()

        assert settle(0.5) < settle(0.01)


class TestBarnesHutMatchesNaive:
    def test_same_trajectories_with_theta_zero(self):
        params = LayoutParams(theta=0.0)

        def trajectory(cls):
            layout = cls(params, seed=17)
            for i in range(15):
                layout.add_node(f"n{i}")
            for i in range(14):
                layout.add_edge(f"n{i}", f"n{i + 1}")
            for _ in range(20):
                layout.step()
            return layout.positions()

        naive = trajectory(NaiveLayout)
        bh = trajectory(BarnesHutLayout)
        for name in naive:
            assert naive[name][0] == pytest.approx(bh[name][0], abs=1e-6)
            assert naive[name][1] == pytest.approx(bh[name][1], abs=1e-6)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(LayoutError):
            make_layout("hexagonal")


class TestDynamicLayout:
    def graph(self, collapsed=False):
        """Fig-3-like graph either detailed or aggregated."""
        from repro.core import AnalysisSession
        from repro.trace.synthetic import figure3_trace

        session = AnalysisSession(figure3_trace(), seed=23)
        if collapsed:
            session.aggregate(("GroupB", "GroupA"))
        return session

    def test_sync_and_settle(self):
        session = self.graph()
        view = session.view()
        assert set(view.positions) == {n.key for n in view.nodes()}

    def test_aggregate_spawns_at_member_centroid(self):
        session = self.graph()
        before = session.view()
        h1 = before.position("h1")
        h2 = before.position("h2")
        centroid = ((h1[0] + h2[0]) / 2, (h1[1] + h2[1]) / 2)
        session.aggregate(("GroupB", "GroupA"))
        created = session.dynamic.sync(
            # Build the new graph without settling to observe the seed.
            __import__("repro.core.visgraph", fromlist=["build_visgraph"]).build_visgraph(
                __import__("repro.core.aggregation", fromlist=["aggregate_view"]).aggregate_view(
                    session.trace, session.grouping, session.time_slice
                ),
                session.mapping,
                session.scales,
            )
        )
        key = "GroupB/GroupA::host"
        assert key in created
        x, y = created[key]
        assert math.hypot(x - centroid[0], y - centroid[1]) < 2.5

    def test_disaggregate_members_near_group(self):
        session = self.graph(collapsed=True)
        before = session.view()
        group_pos = before.position("GroupB/GroupA::host")
        session.disaggregate(("GroupB", "GroupA"))
        aggregated = __import__(
            "repro.core.aggregation", fromlist=["aggregate_view"]
        ).aggregate_view(session.trace, session.grouping, session.time_slice)
        graph = __import__(
            "repro.core.visgraph", fromlist=["build_visgraph"]
        ).build_visgraph(aggregated, session.mapping, session.scales)
        created = session.dynamic.sync(graph)
        for key in ("h1", "h2"):
            x, y = created[key]
            assert math.hypot(x - group_pos[0], y - group_pos[1]) < 2.5

    def test_transition_smoothness_vs_fresh_layout(self):
        """Persisting the layout beats relayout-from-scratch on node motion."""
        session = self.graph()
        before = session.view()
        session.aggregate(("GroupB", "GroupA"))
        after = session.view()
        # Nodes surviving the transition (h3, l13, l23) stay close.
        moved = [
            math.dist(before.position(k), after.position(k))
            for k in ("h3", "l13", "l23")
        ]
        fresh = DynamicLayout(seed=999)
        fresh.sync(after.graph)
        fresh.settle()
        fresh_moved = [
            math.dist(before.position(k), fresh.position(k))
            for k in ("h3", "l13", "l23")
        ]
        assert sum(moved) < sum(fresh_moved)

    def test_params_propagate(self):
        dyn = DynamicLayout()
        dyn.set_params(dyn.params.with_(charge=42.0))
        assert dyn.layout.params.charge == 42.0

    def test_drag_and_pin_via_session(self):
        session = self.graph()
        session.view()
        session.drag("h3", (500.0, 500.0))
        session.pin("h3")
        view = session.view()
        assert view.position("h3") == (500.0, 500.0)

    def test_collapse_layout_does_not_depend_on_hash_seed(self):
        """Expand two sites, collapse them back: the position bits must
        not depend on ``PYTHONHASHSEED`` (string-set iteration order)."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        script = (
            "import hashlib\n"
            "from repro.core import AnalysisSession\n"
            "from repro.trace.synthetic import random_hierarchical_trace\n"
            "trace = random_hierarchical_trace(\n"
            "    n_sites=5, clusters_per_site=3, hosts_per_cluster=12, seed=3)\n"
            "session = AnalysisSession(trace, seed=0)\n"
            "session.aggregate_depth(2)\n"
            "session.view(settle_steps=5)\n"
            "sites = sorted(session.grouping.collapsed)\n"
            "for site in sites[:2]:\n"
            "    session.disaggregate(site)\n"
            "session.view(settle_steps=5)\n"
            "session.aggregate(sites[0])\n"
            "session.view(settle_steps=5)\n"
            "session.aggregate_depth(2)\n"
            "session.view(settle_steps=5)\n"
            "positions = sorted(session.dynamic.positions().items())\n"
            "print(hashlib.sha256(repr(positions).encode()).hexdigest())\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        digests = set()
        for hash_seed in ("0", "1", "3"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = f"{src}{os.pathsep}" + env.get("PYTHONPATH", "")
            out = subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True, timeout=120,
            )
            digests.add(out.stdout.strip())
        assert len(digests) == 1, digests

    def test_scrub_views_set_the_springs_once(self, monkeypatch):
        """A slice move changes values, not edges: ten depth-2 scrub
        views hand the layout its edge set once."""
        from repro.core import AnalysisSession
        from repro.trace.synthetic import random_hierarchical_trace

        trace = random_hierarchical_trace(n_sites=3, seed=4)
        session = AnalysisSession(trace, seed=0)
        session.aggregate_depth(2)
        layout = session.dynamic.layout
        calls = []
        set_edges = layout.set_edges

        def spy(pairs):
            calls.append(pairs)
            set_edges(pairs)

        monkeypatch.setattr(layout, "set_edges", spy)
        start, end = trace.span()
        width = (end - start) / 4
        for i in range(10):
            lo = start + i * width / 10
            session.set_time_slice(lo, lo + width)
            session.view(settle_steps=1)
        assert len(calls) == 1
        assert layout.edges()

    def test_scrub_sync_touches_no_node(self, monkeypatch):
        """A slice move hands the layout the last sync's member arrays:
        over 20 depth-2 scrub views the sync sets no weight and no edge,
        lists no node and asks for no seeds.  A regroup asks for seeds
        once."""
        from repro.core import AnalysisSession
        from repro.core.layout.base import ForceLayout
        from repro.core.visgraph import VisGraph
        from repro.trace.synthetic import random_hierarchical_trace

        trace = random_hierarchical_trace(n_sites=3, seed=4)
        session = AnalysisSession(trace, seed=0)
        session.aggregate_depth(2)
        session.view(settle_steps=1)
        spied = [
            (ForceLayout, "set_weight"),
            (ForceLayout, "set_edges"),
            (VisGraph, "nodes"),
            (AnalysisSession, "_seeds"),
        ]
        calls = {name: 0 for _, name in spied}
        for owner, name in spied:
            def spy(*args, _real=getattr(owner, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(owner, name, spy)
        start, end = trace.span()
        width = (end - start) / 4
        for i in range(20):
            lo = start + i * width / 20
            session.set_time_slice(lo, lo + width)
            session.view(settle_steps=1)
        assert calls == {name: 0 for _, name in spied}
        session.aggregate_depth(3)
        session.view(settle_steps=1)
        assert calls["_seeds"] == 1

    def test_a_failed_sync_leaves_the_layout_usable(self):
        """A sync that raised part way is not taken as synced and leaves
        no stale state: the same graph fails again with the same error,
        and a good graph syncs."""
        from repro.core.aggregation import AggregatedEdge
        from tests.test_visgraph import hand_graph, node

        good = hand_graph([node("a"), node("b"), node("c")])
        table = good.entities
        bad = hand_graph([node("a")], [AggregatedEdge("a", "a")], table)
        dyn = DynamicLayout()
        dyn.sync(good)
        for _ in range(2):
            with pytest.raises(LayoutError):
                dyn.sync(bad)
        dyn.sync(hand_graph([node("b"), node("c")], [], table))
        assert sorted(dyn.positions()) == ["b", "c"]

    def test_new_edges_on_the_same_nodes_reach_the_layout(self):
        from tests.test_visgraph import hand_graph

        session = self.graph()
        graph = session.view(settle_steps=0).graph
        assert len(graph.edges) > 1
        first = graph.edges[0]
        fewer = hand_graph(graph.nodes(), [first], graph.entities)
        session.dynamic.sync(fewer)
        assert session.dynamic.layout.edges() == [
            tuple(sorted((first.a, first.b)))
        ]
        session.dynamic.sync(graph)
        assert len(session.dynamic.layout.edges()) == len(graph.edges)


class TestRepulsionStats:
    """The per-step counters every kernel must populate."""

    #: (algorithm, workers), named by the kernel each pair runs
    KINDS = [("naive", 1), ("barneshut", 1), ("barneshut", 2)]
    IDS = ["naive-array", "barneshut-array", "barneshut-sharded"]

    @pytest.mark.parametrize("algorithm,workers", KINDS, ids=IDS)
    @pytest.mark.parametrize("n", [0, 1])
    def test_early_return_populates_counters(self, algorithm, workers, n):
        layout = make_layout(algorithm, seed=1, workers=workers)
        for i in range(n):
            layout.add_node(f"n{i}")
        layout.step()
        stats = layout.stats
        assert stats["evals"] == (1 if n else 0)
        assert stats["builds"] == 0
        assert stats["cells"] == 0
        assert stats["p2p_pairs"] == 0

    @pytest.mark.parametrize("algorithm,workers", KINDS, ids=IDS)
    def test_real_step_populates_counters(self, algorithm, workers):
        layout = make_layout(algorithm, seed=2, workers=workers)
        if workers > 1:
            layout.min_shard_bodies = 2  # evaluate on the worker pool
        for i in range(12):
            layout.add_node(f"n{i}")
        layout.step()
        layout.close()
        stats = layout.stats
        assert stats["evals"] == 1
        if algorithm == "barneshut":
            assert stats["builds"] == 1
            assert stats["cells"] > 0
            assert stats["p2p_pairs"] > 0
        else:
            assert stats["builds"] == 0
            assert stats["cells"] == 0
            assert stats["p2p_pairs"] == 12 * 11

    @pytest.mark.parametrize("algorithm,workers", KINDS, ids=IDS)
    def test_counts_repeat_for_a_seed(self, algorithm, workers):
        """Stat groups hold counts only: two identically seeded layouts
        end 20 steps with equal stats, and every value is an int."""
        runs = []
        for _ in range(2):
            layout = make_layout(algorithm, seed=3, workers=workers)
            if workers > 1:
                layout.min_shard_bodies = 2  # evaluate on the worker pool
            for i in range(40):
                layout.add_node(f"n{i}")
            for i in range(39):
                layout.add_edge(f"n{i}", f"n{i + 1}")
            for _ in range(20):
                layout.step()
            layout.close()
            runs.append(
                {**layout.stats, **getattr(layout, "shard_stats", {})}
            )
        assert runs[0] == runs[1]
        assert runs[0]["evals"] == 20
        if workers > 1:
            assert runs[0]["supersteps"] == 20  # the pool really ran
        assert all(type(value) is int for value in runs[0].values())

    def test_dynamic_layout_exposes_stats(self):
        dyn = DynamicLayout()
        assert dyn.stats is dyn.layout.stats


class TestMakeLayoutValidation:
    NON_FINITE = [float("nan"), float("inf"), float("-inf")]

    @pytest.mark.parametrize("field", ["charge", "theta", "damping"])
    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_params_rejected_at_construction(self, field, value):
        with pytest.raises(LayoutError):
            LayoutParams(**{field: value})

    @pytest.mark.parametrize("field", ["charge", "theta", "damping"])
    @pytest.mark.parametrize("value", NON_FINITE)
    def test_make_layout_rejects_tampered_params(self, field, value):
        # Frozen dataclasses validate in __post_init__, but a tampered
        # instance can still smuggle NaN/inf in; make_layout is the
        # last line of defense before the force model.
        params = LayoutParams()
        object.__setattr__(params, field, value)
        with pytest.raises(LayoutError):
            make_layout("barneshut", params)
        with pytest.raises(LayoutError):
            make_layout("naive", params)

    @staticmethod
    def three_nodes():
        """A Barnes-Hut layout holding three placed nodes."""
        layout = make_layout("barneshut", seed=1)
        layout.add_nodes(
            ["a", "b", "c"],
            [1.0, 2.0, 1.0],
            np.array([[0.0, 0.0], [30.0, 0.0], [0.0, 30.0]]),
        )
        return layout

    @staticmethod
    def state(layout):
        """Everything a refused call must leave as it was."""
        return (
            layout.names(), layout._pos.tobytes(), layout._vel.tobytes(),
            layout._weight.tobytes(), layout._rng.getstate(),
        )

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_weight_or_move_rejected(self, value):
        layout = self.three_nodes()
        before = self.state(layout)
        with pytest.raises(LayoutError):
            layout.add_nodes(["d"], [value])
        with pytest.raises(LayoutError):
            layout.set_weight("a", value)
        with pytest.raises(LayoutError):
            layout.move("a", (value, 1.0))
        assert self.state(layout) == before

    @pytest.mark.parametrize(
        "value", [v for v in NON_FINITE if math.isinf(v)]
    )
    def test_infinite_position_rejected(self, value):
        """An infinite spot would turn every position NaN at the next
        step; a NaN row still means "no position"."""
        layout = self.three_nodes()
        before = self.state(layout)
        with pytest.raises(LayoutError):
            layout.add_node("d", position=(value, 0.0))
        with pytest.raises(LayoutError):
            layout.add_nodes(
                ["d", "e"],
                positions=np.array([[np.nan, np.nan], [0.0, value]]),
            )
        assert self.state(layout) == before
        layout.add_nodes(["d"], positions=np.array([[np.nan, np.nan]]))
        layout.step()
        assert np.isfinite(layout._pos).all()

    def test_session_drag_refuses_a_non_finite_spot(self):
        from repro.core import AnalysisSession
        from repro.trace.synthetic import figure3_trace

        session = AnalysisSession(figure3_trace(), seed=23)
        before = session.view(settle_steps=0).positions
        with pytest.raises(LayoutError):
            session.drag("h3", (math.nan, 1.0))
        assert session.dynamic.positions() == before
        view = session.view(settle_steps=5)
        assert np.isfinite(list(view.positions.values())).all()

    def test_rebuild_drift_validated(self):
        """The tree reuse threshold is a module constant in [0, 1), not
        a parameter."""
        assert 0 <= REBUILD_DRIFT < 1
        with pytest.raises(TypeError):
            LayoutParams(rebuild_drift=0.05)

    def test_kernel_flag(self):
        """The worker count is the one kernel setting."""
        assert type(make_layout("barneshut")) is BarnesHutLayout
        assert type(make_layout("barneshut", workers=1)) is BarnesHutLayout
        sharded = make_layout("barneshut", workers=2)
        assert isinstance(sharded, ShardedBarnesHutLayout)
        assert sharded.workers == 2
        sharded.close()
        for bad in (0, 3):
            with pytest.raises(LayoutError):
                make_layout("barneshut", workers=bad)


@given(
    n=st.integers(min_value=2, max_value=25),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=25, deadline=None)
def test_layout_positions_always_finite(n, seed):
    layout = make_layout("barneshut", seed=seed)
    for i in range(n):
        layout.add_node(f"n{i}")
    for i in range(n - 1):
        layout.add_edge(f"n{i}", f"n{i + 1}")
    layout.run(max_steps=30, tolerance=0.0)
    for x, y in layout.positions().values():
        assert math.isfinite(x) and math.isfinite(y)
