"""Resource hierarchy and the analyst's grouping state.

Spatial aggregation (Section 3.2.2) relies on a *neighbourhood* of
monitored entities — "a cluster of hosts, or a pool of workstations in
the same physical or virtual location".  Traces carry this structure in
each entity's ``path`` (e.g. ``grid5000/nancy/griffon/griffon-3``);
:class:`Hierarchy` rebuilds the tree, and :class:`GroupingState` records
which groups the analyst currently has collapsed.

A collapsed group absorbs every entity below it; nested collapses defer
to the outermost one (collapsing ``grid5000`` hides any collapsed state
underneath until it is expanded again — Fig. 8's four levels are just
``collapse_depth(1..4)``).
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

import numpy as np

from repro.errors import HierarchyError
from repro.trace.entities import EntityTable
from repro.trace.trace import Trace

__all__ = ["Hierarchy", "GroupingState"]

Path = tuple[str, ...]


class Hierarchy:
    """The tree of groups implied by entity paths.

    Interior nodes are *groups* (identified by their path tuple); leaves
    are entities.  The root is the empty path ``()``.  Entities are not
    copied: the hierarchy reads its trace's
    :class:`~repro.trace.entities.EntityTable` (each entity's innermost
    group is a code into the table's group paths) and keeps only the
    group tree, built once with the answers to :meth:`groups`,
    :meth:`groups_at_depth` and :meth:`max_depth`.
    """

    def __init__(self, table: EntityTable) -> None:
        #: the entity table the leaves index into (shared with the trace)
        self.table = table
        children: dict[Path, set[Path]] = {(): set()}
        for group in table.group_paths:
            for depth in range(len(group)):
                subgroup = group[: depth + 1]
                children.setdefault(group[:depth], set()).add(subgroup)
            children.setdefault(group, set())
        self._children: dict[Path, tuple[Path, ...]] = {
            path: tuple(sorted(subgroups))
            for path, subgroups in children.items()
        }
        self._groups = tuple(
            sorted((p for p in children if p), key=lambda p: (len(p), p))
        )
        self._by_depth: dict[int, list[Path]] = {}
        for group in self._groups:
            self._by_depth.setdefault(len(group), []).append(group)
        self._max_depth = 1 + max(
            (len(group) for group in table.group_paths), default=-1
        )
        self._circle: tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def from_trace(cls, trace: Trace) -> "Hierarchy":
        """Build the hierarchy of every entity in *trace* over the
        trace's own entity table."""
        return cls(trace.table)

    # ------------------------------------------------------------------
    # Navigation
    # ------------------------------------------------------------------
    def is_group(self, path: Path) -> bool:
        """True when *path* names a group (interior node) of the tree."""
        return path in self._children and bool(
            self._children[path] or path in self.table.group_index
        )

    def children(self, path: Path) -> list[Path]:
        """Sub-groups directly under *path*, sorted."""
        if path not in self._children:
            raise HierarchyError(f"unknown group {path!r}")
        return list(self._children[path])

    def members(self, path: Path = ()) -> np.ndarray:
        """Entity indices of every leaf under *path*, in trace order."""
        if path not in self._children:
            raise HierarchyError(f"unknown group {path!r}")
        depth = len(path)
        codes = [
            code
            for group, code in self.table.group_index.items()
            if group[:depth] == path
        ]
        return np.flatnonzero(np.isin(self.table.groups, codes))

    def leaves(self, path: Path = ()) -> list[str]:
        """Every entity name under *path* (insertion order)."""
        names = self.table.names
        return [names[i] for i in self.members(path).tolist()]

    def groups(self) -> list[Path]:
        """All groups, sorted by (depth, path); excludes the root."""
        return list(self._groups)

    def groups_at_depth(self, depth: int) -> list[Path]:
        """Groups whose path length is exactly *depth*."""
        if depth <= 0:
            raise HierarchyError(f"depth must be positive, got {depth}")
        return list(self._by_depth.get(depth, ()))

    def max_depth(self) -> int:
        """Length of the longest entity path."""
        return self._max_depth

    def leaf_circle(self) -> tuple[np.ndarray, np.ndarray]:
        """Cosine and sine of every entity's angle on the seeding circle.

        Leaves are ordered depth-first through the tree — a group's own
        leaves in trace order, then its sub-groups in sorted order —
        and leaf ``i`` of ``total`` sits at angle
        ``2.0 * math.pi * i / total``.  Two float64 arrays over entity
        indices, computed once per hierarchy with :func:`math.cos` and
        :func:`math.sin` (the radial seeds of
        :mod:`repro.core.layout.seeding`).
        """
        if self._circle is None:
            order: dict[Path, int] = {}

            def walk(path: Path) -> None:
                order[path] = len(order)
                for child in self._children[path]:
                    walk(child)

            walk(())
            table = self.table
            rank_of_code = np.asarray(
                [order[group] for group in table.group_paths], dtype=np.int64
            )
            leaf_order = np.argsort(rank_of_code[table.groups], kind="stable")
            total = max(len(table), 1)
            cos = np.empty(len(table))
            sin = np.empty(len(table))
            for i, entity in enumerate(leaf_order.tolist()):
                angle = 2.0 * math.pi * i / total
                cos[entity] = math.cos(angle)
                sin[entity] = math.sin(angle)
            cos.setflags(write=False)
            sin.setflags(write=False)
            self._circle = (cos, sin)
        return self._circle

    def path_of(self, entity: str) -> Path:
        """The full path of *entity* (ending with its own name)."""
        try:
            return self.table.path(self.table.index[entity])
        except KeyError:
            raise HierarchyError(f"unknown entity {entity!r}") from None

    def kind_of(self, entity: str) -> str:
        """The kind of *entity*."""
        try:
            return self.table.kind(self.table.index[entity])
        except KeyError:
            raise HierarchyError(f"unknown entity {entity!r}") from None

    def __contains__(self, entity: str) -> bool:
        return entity in self.table.index

    def __iter__(self) -> Iterator[str]:
        return iter(self.table.names)

    def __len__(self) -> int:
        return len(self.table)


class GroupingState:
    """Which groups the analyst has collapsed (the space scale Gamma).

    The display unit of an entity is its *outermost collapsed ancestor*,
    or the entity itself when no ancestor is collapsed.
    """

    def __init__(self, hierarchy: Hierarchy) -> None:
        self.hierarchy = hierarchy
        self._collapsed: set[Path] = set()
        self._revision = 0
        self._state_key: tuple[Path, ...] = ()
        self._state_key_revision = 0

    @property
    def collapsed(self) -> frozenset[Path]:
        """The set of group paths currently collapsed."""
        return frozenset(self._collapsed)

    @property
    def revision(self) -> int:
        """Monotone counter bumped on every *effective* grouping change.

        :attr:`state_key` is recomputed only when it moves, and an
        unchanged revision guarantees the unit structure (memberships,
        edges) of the previous view is still valid.  No-op calls
        (collapsing an already-collapsed group, expanding a detailed
        one) do not bump it.
        """
        return self._revision

    @property
    def state_key(self) -> tuple[Path, ...]:
        """Canonical, hashable token of the collapsed set.

        Two :class:`GroupingState` objects — in two different analysis
        sessions — with the same collapsed groups produce the *same*
        token, which is what lets the multi-session result cache share
        aggregation work across sessions: cache keys built from
        ``state_key`` (instead of the per-object :attr:`revision`)
        collide exactly when the views are interchangeable.  The token
        is recomputed at most once per revision bump, so reading it on
        every view is O(1) between grouping changes.
        """
        if self._state_key_revision != self._revision:
            self._state_key = tuple(sorted(self._collapsed))
            self._state_key_revision = self._revision
        return self._state_key

    def collapse(self, path: Path | Iterable[str]) -> None:
        """Aggregate everything under *path* into one unit per kind."""
        path = tuple(path)
        if not self.hierarchy.is_group(path):
            raise HierarchyError(f"{path!r} is not a group")
        if path not in self._collapsed:
            self._collapsed.add(path)
            self._revision += 1

    def expand(self, path: Path | Iterable[str]) -> None:
        """Undo :meth:`collapse` of exactly *path* (no-op if not collapsed)."""
        path = tuple(path)
        if path in self._collapsed:
            self._collapsed.discard(path)
            self._revision += 1

    def collapse_depth(self, depth: int) -> None:
        """Collapse every group at *depth*: the per-level views of Fig. 8.

        ``collapse_depth(1)`` shows the whole grid as one unit,
        ``collapse_depth(2)`` one unit per site, and so on.  Deeper
        collapse state is preserved but shadowed by the outermost level.
        """
        for group in self.hierarchy.groups_at_depth(depth):
            if group not in self._collapsed:
                self._collapsed.add(group)
                self._revision += 1

    def expand_all(self) -> None:
        """Back to the fully detailed (host-level) view."""
        if self._collapsed:
            self._collapsed.clear()
            self._revision += 1

    def unit_of(self, entity: str) -> Path | None:
        """The collapsed group displaying *entity*, or None if detailed.

        When several nested ancestors are collapsed, the outermost wins.
        """
        path = self.hierarchy.path_of(entity)
        for depth in range(1, len(path)):
            prefix = path[:depth]
            if prefix in self._collapsed:
                return prefix
        return None

    def visible_groups(self) -> list[Path]:
        """Collapsed groups that are not shadowed by an outer collapse."""
        visible = []
        for group in sorted(self._collapsed, key=len):
            if not any(
                group[: len(other)] == other
                for other in self._collapsed
                if other != group and len(other) < len(group)
            ):
                visible.append(group)
        return visible
