"""Tests for the resource hierarchy and grouping state (Section 3.2.2)."""

import pytest

from repro.core.hierarchy import GroupingState, Hierarchy
from repro.errors import HierarchyError
from repro.trace.entities import EntityTable
from repro.trace.trace import Entity
from repro.trace.synthetic import figure3_trace, random_hierarchical_trace


def entities():
    return EntityTable.from_entities([
        Entity("h1", "host", ("grid", "s1", "c1", "h1")),
        Entity("h2", "host", ("grid", "s1", "c1", "h2")),
        Entity("h3", "host", ("grid", "s1", "c2", "h3")),
        Entity("h4", "host", ("grid", "s2", "c3", "h4")),
        Entity("l1", "link", ("grid", "s1", "c1", "l1")),
        Entity("bb", "link", ("grid", "bb")),
    ])


class TestHierarchy:
    def test_groups_sorted_by_depth(self):
        h = Hierarchy(entities())
        groups = h.groups()
        assert groups[0] == ("grid",)
        assert ("grid", "s1", "c1") in groups
        depths = [len(g) for g in groups]
        assert depths == sorted(depths)

    def test_children(self):
        h = Hierarchy(entities())
        assert h.children(("grid",)) == [("grid", "s1"), ("grid", "s2")]
        assert h.children(("grid", "s1")) == [
            ("grid", "s1", "c1"),
            ("grid", "s1", "c2"),
        ]
        with pytest.raises(HierarchyError):
            h.children(("nope",))

    def test_leaves(self):
        h = Hierarchy(entities())
        assert set(h.leaves(("grid", "s1", "c1"))) == {"h1", "h2", "l1"}
        assert set(h.leaves(("grid",))) == {"h1", "h2", "h3", "h4", "l1", "bb"}
        assert set(h.leaves()) == {"h1", "h2", "h3", "h4", "l1", "bb"}

    def test_groups_at_depth(self):
        h = Hierarchy(entities())
        assert h.groups_at_depth(1) == [("grid",)]
        assert len(h.groups_at_depth(2)) == 2
        assert len(h.groups_at_depth(3)) == 3
        with pytest.raises(HierarchyError):
            h.groups_at_depth(0)

    def test_max_depth(self):
        assert Hierarchy(entities()).max_depth() == 4

    def test_path_and_kind(self):
        h = Hierarchy(entities())
        assert h.path_of("h3") == ("grid", "s1", "c2", "h3")
        assert h.kind_of("l1") == "link"
        with pytest.raises(HierarchyError):
            h.path_of("ghost")
        with pytest.raises(HierarchyError):
            h.kind_of("ghost")

    def test_container_protocol(self):
        h = Hierarchy(entities())
        assert "h1" in h and "ghost" not in h
        assert len(h) == 6
        assert set(h) == {"h1", "h2", "h3", "h4", "l1", "bb"}

    def test_is_group(self):
        h = Hierarchy(entities())
        assert h.is_group(("grid",))
        assert h.is_group(("grid", "s1", "c1"))
        assert not h.is_group(("grid", "s1", "c1", "h1"))

    def test_from_trace(self):
        h = Hierarchy.from_trace(figure3_trace())
        assert ("GroupB", "GroupA") in h.groups()
        assert set(h.leaves(("GroupB", "GroupA"))) == {"h1", "h2", "l12"}


class TestAnswersBuiltOnce:
    """``groups``, ``groups_at_depth`` and ``max_depth`` come from
    tables built with the hierarchy; callers get copies."""

    def test_groups_are_copies_of_one_sorted_table(self):
        h = Hierarchy.from_trace(random_hierarchical_trace(seed=2))
        groups = h.groups()
        assert groups == sorted(groups, key=lambda p: (len(p), p))
        groups.clear()
        assert h.groups() and h.groups() is not h.groups()
        at_two = h.groups_at_depth(2)
        at_two.append(("bogus",))
        assert ("bogus",) not in h.groups_at_depth(2)
        assert h.groups_at_depth(99) == []

    def test_depth_tables_agree_with_the_paths(self):
        trace = random_hierarchical_trace(seed=2)
        h = Hierarchy.from_trace(trace)
        assert h.max_depth() == max(len(e.path) for e in trace)
        for depth in range(1, h.max_depth() + 1):
            assert h.groups_at_depth(depth) == [
                g for g in h.groups() if len(g) == depth
            ]
        empty = Hierarchy(EntityTable.from_entities([]))
        assert empty.max_depth() == 0
        assert empty.groups() == []

    def test_members_are_entity_indices_in_trace_order(self):
        trace = random_hierarchical_trace(seed=2)
        h = Hierarchy.from_trace(trace)
        assert h.table is trace.table
        for group in h.groups():
            members = h.members(group)
            assert list(members) == sorted(members)
            assert [trace.table.names[i] for i in members] == h.leaves(group)


class TestGroupingState:
    def make(self):
        h = Hierarchy(entities())
        return GroupingState(h)

    def test_default_everything_detailed(self):
        g = self.make()
        for name in ("h1", "h4", "bb"):
            assert g.unit_of(name) is None

    def test_collapse_maps_members(self):
        g = self.make()
        g.collapse(("grid", "s1", "c1"))
        assert g.unit_of("h1") == ("grid", "s1", "c1")
        assert g.unit_of("h2") == ("grid", "s1", "c1")
        assert g.unit_of("l1") == ("grid", "s1", "c1")
        assert g.unit_of("h3") is None

    def test_collapse_non_group_rejected(self):
        g = self.make()
        with pytest.raises(HierarchyError):
            g.collapse(("grid", "s1", "c1", "h1"))
        with pytest.raises(HierarchyError):
            g.collapse(("bogus",))

    def test_outermost_collapse_wins(self):
        g = self.make()
        g.collapse(("grid", "s1", "c1"))
        g.collapse(("grid", "s1"))
        assert g.unit_of("h1") == ("grid", "s1")
        # expanding the outer one reveals the inner collapse again
        g.expand(("grid", "s1"))
        assert g.unit_of("h1") == ("grid", "s1", "c1")

    def test_expand_is_idempotent(self):
        g = self.make()
        g.expand(("grid", "s1"))  # not collapsed: no-op
        assert g.unit_of("h1") is None

    def test_collapse_depth(self):
        g = self.make()
        g.collapse_depth(3)
        assert g.unit_of("h1") == ("grid", "s1", "c1")
        assert g.unit_of("h4") == ("grid", "s2", "c3")
        # bb sits directly under grid: no depth-3 ancestor
        assert g.unit_of("bb") is None

    def test_collapse_depth_1_absorbs_all(self):
        g = self.make()
        g.collapse_depth(1)
        for name in ("h1", "h4", "bb", "l1"):
            assert g.unit_of(name) == ("grid",)

    def test_expand_all(self):
        g = self.make()
        g.collapse_depth(2)
        g.expand_all()
        assert g.unit_of("h1") is None
        assert g.collapsed == frozenset()

    def test_visible_groups_hides_shadowed(self):
        g = self.make()
        g.collapse(("grid", "s1", "c1"))
        g.collapse(("grid", "s1"))
        assert g.visible_groups() == [("grid", "s1")]
        g.expand(("grid", "s1"))
        assert g.visible_groups() == [("grid", "s1", "c1")]

    def test_random_trace_grouping_roundtrip(self):
        trace = random_hierarchical_trace(n_sites=2, clusters_per_site=2)
        h = Hierarchy.from_trace(trace)
        g = GroupingState(h)
        g.collapse_depth(2)
        units = {g.unit_of(e.name) for e in trace}
        # two sites plus None for backbone links directly under grid
        assert len(units) == 3
