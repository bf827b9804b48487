"""Direct unit tests for the VisGraph container and build pipeline."""

import numpy as np
import pytest

from repro.core import ScaleSet, VisualMapping, build_visgraph
from repro.core.aggregation import AggregatedEdge, AggregatedUnit, aggregate_view
from repro.core.hierarchy import GroupingState, Hierarchy
from repro.core.timeslice import TimeSlice
from repro.core.visgraph import VisGraph, VisNode
from repro.errors import MappingError
from repro.trace.entities import EntityTable
from repro.trace.synthetic import figure1_trace, figure3_trace
from repro.trace.trace import Entity


def node(key, kind="host", shape="square", size=10.0, members=None):
    """A hand-styled node drawing a unit of *members* (default: the
    one entity *key*)."""
    return VisNode(
        key=key,
        label=key,
        kind=kind,
        shape=shape,
        size_value=size,
        size_px=size,
        fill_fraction=None,
        color="#000000",
        unit=AggregatedUnit(key, key, kind, members or (key,), None),
        values={},
    )


def hand_graph(nodes, edges=(), table=None):
    """A graph of hand-built *nodes* whose members are the entities of
    *table* with their names, as rows and offsets.  The default table
    holds every member name once, in node order."""
    if table is None:
        entities = {}
        for n in nodes:
            for name in n.members:
                entities.setdefault(name, Entity(name, n.kind))
        table = EntityTable.from_entities(entities.values())
    rows = [table.index[name] for n in nodes for name in n.members]
    offsets = np.zeros(len(nodes) + 1, dtype=np.int32)
    np.cumsum([n.weight for n in nodes], out=offsets[1:])
    return VisGraph(
        nodes, list(edges), table, np.asarray(rows, dtype=np.int32), offsets
    )


class TestVisGraphContainer:
    def test_duplicate_key_rejected(self):
        with pytest.raises(MappingError):
            hand_graph([node("a"), node("a")])

    def test_edge_endpoints_validated(self):
        with pytest.raises(MappingError):
            hand_graph([node("a")], [AggregatedEdge("a", "ghost")])

    def test_lookup_and_iteration(self):
        graph = hand_graph([node("a"), node("b")], [AggregatedEdge("a", "b")])
        assert len(graph) == 2
        assert "a" in graph and "c" not in graph
        assert {n.key for n in graph} == {"a", "b"}
        assert graph.node("a").kind == "host"
        with pytest.raises(MappingError):
            graph.node("ghost")

    def test_neighbours_and_degree(self):
        graph = hand_graph(
            [node("a"), node("b"), node("c")],
            [AggregatedEdge("a", "b"), AggregatedEdge("a", "c")],
        )
        assert set(graph.neighbours("a")) == {"b", "c"}
        assert graph.degree("a") == 2
        assert graph.degree("b") == 1

    def test_member_rows_need_a_table_and_one_offset_per_node(self):
        """Offsets run from 0 to the row count, one per node plus one,
        or the graph is refused before a sync could index past them."""
        table = figure1_trace().table
        rows = np.zeros(2, dtype=np.int32)

        def offsets(*values):
            return np.asarray(values, dtype=np.int32)

        for entities, member_rows, member_offsets in (
            (None, rows, offsets(0, 1, 2)),
            (table, None, offsets(0, 1, 2)),
            (table, rows, None),
            (table, rows, offsets(0, 1)),
            (table, rows[:1], offsets(0, 1, 5)),
            (table, rows, offsets(1, 1, 2)),
            (table, rows, offsets(0, 1, 1)),
        ):
            with pytest.raises(MappingError):
                VisGraph([node("a"), node("b")], [], entities=entities,
                         member_rows=member_rows,
                         member_offsets=member_offsets)
        graph = VisGraph([node("a"), node("b")], [], entities=table,
                         member_rows=rows, member_offsets=offsets(0, 1, 2))
        assert graph.member_rows is rows

    def test_nodes_of_kind(self):
        graph = hand_graph([node("a"), node("l", kind="link")])
        assert [n.key for n in graph.nodes_of_kind("link")] == ["l"]

    def test_weight_and_aggregate_flags(self):
        plain = node("a")
        agg = node("g", members=("x", "y", "z"))
        assert plain.weight == 1 and not plain.is_aggregate
        assert agg.weight == 3 and agg.is_aggregate


class TestBuildPipeline:
    def build(self, trace, collapse=None):
        hierarchy = Hierarchy.from_trace(trace)
        grouping = GroupingState(hierarchy)
        if collapse:
            grouping.collapse(collapse)
        start, end = trace.span()
        view = aggregate_view(trace, grouping, TimeSlice(start, end))
        return build_visgraph(view, VisualMapping.paper_default(), ScaleSet())

    def test_figure1_styling(self):
        graph = self.build(figure1_trace())
        assert graph.node("HostA").shape == "square"
        assert graph.node("LinkA").shape == "diamond"
        # Edges expand through the via link: HostA - LinkA - HostB.
        assert set(graph.neighbours("LinkA")) == {"HostA", "HostB"}

    def test_biggest_of_each_kind_gets_max_pixels(self):
        graph = self.build(figure1_trace())
        host_px = [n.size_px for n in graph.nodes_of_kind("host")]
        assert max(host_px) == pytest.approx(60.0)

    def test_aggregate_members_tracked(self):
        graph = self.build(figure3_trace(), collapse=("GroupB", "GroupA"))
        agg = graph.node("GroupB/GroupA::host")
        assert set(agg.members) == {"h1", "h2"}
        assert agg.is_aggregate

    def test_values_exposed_on_nodes(self):
        graph = self.build(figure3_trace())
        assert graph.node("h1").values["capacity"] == 100.0
