"""Tests for hierarchical radial seeding of the layout."""

import math
from functools import partial

import numpy as np
import pytest

from repro.core import AnalysisSession, ScaleSet, VisualMapping, build_visgraph
from repro.core.aggregation import aggregate_view
from repro.core.hierarchy import GroupingState, Hierarchy
from repro.core.layout.seeding import radial_seeds
from repro.core.timeslice import TimeSlice
from repro.trace.synthetic import random_hierarchical_trace
from tests.test_aggregation_differential import assert_same_rows


def graph_and_hierarchy(trace, collapse_depth=None):
    hierarchy = Hierarchy.from_trace(trace)
    grouping = GroupingState(hierarchy)
    if collapse_depth:
        grouping.collapse_depth(collapse_depth)
    start, end = trace.span()
    view = aggregate_view(trace, grouping, TimeSlice(start, end))
    graph = build_visgraph(view, VisualMapping.paper_default(), ScaleSet())
    return graph, hierarchy


def circle_radius(graph, spring_length=40.0):
    """The radius every radial seed lies at."""
    return spring_length * math.sqrt(len(graph)) / 2.0


def walk_reference(hierarchy, graph, spring_length=40.0):
    """Radial seeds by their definition, one node at a time.

    Walks the tree depth-first (a group's own leaves in trace order,
    then its sorted sub-groups), spreads the leaves over the circle at
    ``2 * pi * i / total`` and seeds each node at the vector mean of its
    members' directions, summed left to right in member order, on the
    circle of radius ``spring_length * sqrt(n) / 2``.  A float64 array
    in graph node order.
    """
    order = []

    def walk(path):
        for name in hierarchy.leaves(path):
            if hierarchy.path_of(name)[:-1] == path:
                order.append(name)
        for child in hierarchy.children(path):
            walk(child)

    walk(())
    index = {name: i for i, name in enumerate(order)}
    total = max(len(order), 1)
    radius = circle_radius(graph, spring_length)
    seeds = []
    for node in graph:
        angles = [2.0 * math.pi * index[m] / total for m in node.members]
        x = y = 0
        for angle in angles:
            x += math.cos(angle)
            y += math.sin(angle)
        x, y = x / len(angles), y / len(angles)
        norm = math.hypot(x, y)
        seeds.append(
            (0.0, 0.0) if norm < 1e-9 else (radius * x / norm, radius * y / norm)
        )
    return np.array(seeds)


class TestRadialSeeds:
    @pytest.mark.parametrize("depth", [None, 1, 2, 3])
    def test_equal_to_the_walk_reference(self, depth):
        """The per-hierarchy leaf angles give the reference's floats
        exactly, at every depth."""
        trace = random_hierarchical_trace(
            n_sites=3, clusters_per_site=2, hosts_per_cluster=5, seed=6
        )
        graph, hierarchy = graph_and_hierarchy(trace, collapse_depth=depth)
        seeds = radial_seeds(hierarchy, graph)
        assert seeds.tobytes() == walk_reference(hierarchy, graph).tobytes()

    def test_every_node_seeded(self):
        trace = random_hierarchical_trace(n_sites=3, seed=4)
        graph, hierarchy = graph_and_hierarchy(trace)
        seeds = radial_seeds(hierarchy, graph)
        assert seeds.dtype == np.float64 and seeds.shape == (len(graph), 2)
        assert not np.isnan(seeds).any()

    def test_seeds_on_circle(self):
        trace = random_hierarchical_trace(n_sites=2, seed=4)
        graph, hierarchy = graph_and_hierarchy(trace)
        for spring_length in (40.0, 25.0):
            seeds = radial_seeds(hierarchy, graph, spring_length=spring_length)
            radius = circle_radius(graph, spring_length)
            for x, y in seeds.tolist():
                assert math.hypot(x, y) == pytest.approx(radius, abs=1e-6)

    def test_same_cluster_entities_adjacent(self):
        """DFS ordering puts a cluster's hosts on a contiguous arc."""
        trace = random_hierarchical_trace(
            n_sites=2, clusters_per_site=2, hosts_per_cluster=6, seed=4
        )
        graph, hierarchy = graph_and_hierarchy(trace)
        seeds = radial_seeds(hierarchy, graph).tolist()
        row = {node.key: j for j, node in enumerate(graph)}

        def mean_distance(names):
            positions = [seeds[row[n]] for n in names]
            total = count = 0
            for i, a in enumerate(positions):
                for b in positions[i + 1 :]:
                    total += math.dist(a, b)
                    count += 1
            return total / count

        cluster_hosts = [
            f"site-0.cl0.n{i}" for i in range(6)
        ]
        all_hosts = [n.key for n in graph.nodes_of_kind("host")]
        assert mean_distance(cluster_hosts) < mean_distance(all_hosts) / 2

    def test_aggregates_seed_at_member_centroid_direction(self):
        trace = random_hierarchical_trace(n_sites=2, seed=4)
        graph, hierarchy = graph_and_hierarchy(trace, collapse_depth=3)
        seeds = radial_seeds(hierarchy, graph)
        aggregates = [j for j, node in enumerate(graph) if node.is_aggregate]
        assert aggregates
        radius = circle_radius(graph)
        for j in aggregates:
            assert math.hypot(*seeds[j]) == pytest.approx(radius, abs=1e-6)

    def test_deterministic(self):
        trace = random_hierarchical_trace(n_sites=2, seed=4)
        graph, hierarchy = graph_and_hierarchy(trace)
        first = radial_seeds(hierarchy, graph)
        assert first.tobytes() == radial_seeds(hierarchy, graph).tobytes()


class TestSeededConvergence:
    def test_seeded_session_converges_faster_than_random(self):
        """The point of hierarchy-combined layout: a better start."""
        trace = random_hierarchical_trace(
            n_sites=4, clusters_per_site=3, hosts_per_cluster=6, seed=8
        )
        session = AnalysisSession(trace, seed=8)
        graph, hierarchy = graph_and_hierarchy(trace)

        from repro.core.layout.engine import DynamicLayout

        seeded = DynamicLayout(seed=8)
        seeded.sync(graph, partial(radial_seeds, hierarchy))
        random_init = DynamicLayout(seed=8)
        random_init.sync(graph)

        steps_seeded = seeded.layout.run(max_steps=2000, tolerance=1.0)
        steps_random = random_init.layout.run(max_steps=2000, tolerance=1.0)
        assert steps_seeded <= steps_random

    def test_sessions_views_use_seeding(self):
        # Entities of one cluster start near each other in the very
        # first (settled) view.
        trace = random_hierarchical_trace(
            n_sites=3, clusters_per_site=2, hosts_per_cluster=5, seed=9
        )
        session = AnalysisSession(trace, seed=9)
        view = session.view(settle_steps=0)  # sync only, no relaxation
        cluster = [f"site-0.cl0.n{i}" for i in range(5)]
        positions = [view.position(n) for n in cluster]
        spread = max(
            math.dist(a, b) for a in positions for b in positions
        )
        min_x, min_y, max_x, max_y = view.bounds()
        assert spread < math.hypot(max_x - min_x, max_y - min_y) / 3


class TestPrivateSessionSeeds:
    """A session without shared data computes radial seeds only for a
    view that adds a node to the layout: seeds place new nodes only,
    and a scrub adds none."""

    @staticmethod
    def scrub(session, views, settle_steps=2):
        start, end = session.trace.span()
        width = (end - start) / 5
        for i in range(views):
            lo = start + (end - start - width) * i / max(views - 1, 1)
            session.set_time_slice(lo, lo + width)
            yield session.view(settle_steps=settle_steps)

    def test_scrub_views_compute_seeds_once(self, monkeypatch):
        import repro.core.session as session_module

        calls = []

        def spy(*args, **kwargs):
            calls.append(1)
            return radial_seeds(*args, **kwargs)

        monkeypatch.setattr(session_module, "radial_seeds", spy)
        trace = random_hierarchical_trace(n_sites=3, seed=5)
        session = AnalysisSession(trace, seed=5)
        session.aggregate_depth(2)
        for _ in self.scrub(session, 10):
            pass
        assert len(calls) == 1
        session.aggregate_depth(1)  # a regroup brings new nodes
        session.view(settle_steps=2)
        assert len(calls) == 2

    def test_positions_equal_seeding_every_view(self):
        """A scrub storm with seeds computed once gives the bits of the
        same storm with seeds passed to every sync."""
        trace = random_hierarchical_trace(n_sites=3, seed=6)
        session = AnalysisSession(trace, seed=6)
        reference = AnalysisSession(trace, seed=6)
        sync = reference.dynamic.sync

        def seeded_sync(graph, seeds=None):
            array = radial_seeds(
                reference.hierarchy,
                graph,
                spring_length=reference.dynamic.params.spring_length,
            )
            return sync(graph, lambda graph, spring_length: array)

        reference.dynamic.sync = seeded_sync
        for depth in (None, 2):
            for s in (session, reference):
                if depth is not None:
                    s.aggregate_depth(depth)
            got = [v.positions for v in self.scrub(session, 8)]
            want = [v.positions for v in self.scrub(reference, 8)]
            assert got == want


class TestServerSessionSeeds:
    """A server session asks the shared seed memo only for a view that
    adds a node to its layout: a scrub storm at one grouping makes no
    memo lookup, a regroup one."""

    def test_scrub_storm_looks_up_no_seeds(self):
        from repro.server.state import ServerConfig, SharedServerState

        trace = random_hierarchical_trace(n_sites=3, seed=5)
        state = SharedServerState(trace, ServerConfig(settle_steps=2))
        session = state.create_session()
        stats = state.shared.stats

        def lookups():
            return stats["seed_shared_hits"] + stats["seed_builds"]

        session.apply({"op": "depth", "depth": 2})
        assert lookups() == 1
        start, end = trace.span()
        width = (end - start) / 5
        for i in range(20):
            lo = start + (end - start - width) * i / 19
            session.apply({"op": "scrub", "start": lo, "end": lo + width})
        assert lookups() == 1
        session.apply({"op": "depth", "depth": 1})
        assert lookups() == 2
        for i in range(5):
            lo = start + (end - start - width) * i / 4
            session.apply({"op": "scrub", "start": lo, "end": lo + width})
        assert lookups() == 2


class TestMemberRows:
    """A graph of an engine view carries its unit structure's member
    rows, and the seeds and the layout sync read those: the same rows,
    and the same bits, as a graph of the oracle view, whose rows
    :func:`aggregate_view` maps from the member names."""

    GROUPINGS = (2, ("grid", "site-1"), 3, 1, None)

    @staticmethod
    def regroup(session, grouping):
        if grouping is None:
            session.disaggregate_all()
        elif isinstance(grouping, int):
            session.aggregate_depth(grouping)
        else:
            session.aggregate_depth(2)
            session.disaggregate(grouping)

    @staticmethod
    def oracle_graph(session):
        view = aggregate_view(
            session.trace, session.grouping, session.time_slice
        )
        return build_visgraph(view, VisualMapping.paper_default(), ScaleSet())

    def test_rows_seed_like_names(self):
        trace = random_hierarchical_trace(
            n_sites=3, clusters_per_site=2, hosts_per_cluster=5, seed=6
        )
        session = AnalysisSession(trace)
        for grouping in self.GROUPINGS:
            self.regroup(session, grouping)
            graph = session.view(settle=False).graph
            oracle = self.oracle_graph(session)
            assert_same_rows(graph, oracle)
            assert [n.key for n in graph] == [n.key for n in oracle]
            got = radial_seeds(session.hierarchy, graph)
            want = radial_seeds(session.hierarchy, oracle)
            assert got.tobytes() == want.tobytes()

    def test_sync_by_rows_places_like_sync_by_names(self):
        """Two layouts follow the same regroupings and scrubs, one fed
        the engine's graphs and one the oracle's: every position is
        equal after every view."""
        from repro.core.layout.engine import DynamicLayout

        trace = random_hierarchical_trace(
            n_sites=3, clusters_per_site=2, hosts_per_cluster=5, seed=7
        )
        session = AnalysisSession(trace, seed=7)
        by_name = DynamicLayout(seed=7)
        start, end = trace.span()
        for grouping in self.GROUPINGS:
            self.regroup(session, grouping)
            for lo in (start, (start + end) / 2):
                session.set_time_slice(lo, end)
                view = session.view(settle_steps=2)
                graph = self.oracle_graph(session)
                assert_same_rows(view.graph, graph)
                by_name.sync(graph, partial(radial_seeds, session.hierarchy))
                by_name.settle(max_steps=2)
                assert view.positions == by_name.positions()
