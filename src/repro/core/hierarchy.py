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

from typing import Iterable, Iterator

from repro.errors import HierarchyError
from repro.trace.trace import Entity, Trace

__all__ = ["Hierarchy", "GroupingState"]

Path = tuple[str, ...]


class Hierarchy:
    """The tree of groups implied by entity paths.

    Interior nodes are *groups* (identified by their path tuple); leaves
    are entities.  The root is the empty path ``()``.
    """

    def __init__(self, entities: Iterable[Entity]) -> None:
        self._children: dict[Path, set[Path]] = {(): set()}
        self._leaves: dict[Path, list[str]] = {(): []}
        self._kind: dict[str, str] = {}
        self._leaf_path: dict[str, Path] = {}
        for entity in entities:
            self._insert(entity)

    @classmethod
    def from_trace(cls, trace: Trace) -> "Hierarchy":
        """Build the hierarchy of every entity in *trace*."""
        return cls(trace)

    def _insert(self, entity: Entity) -> None:
        if entity.name in self._kind:
            raise HierarchyError(f"duplicate entity {entity.name!r}")
        self._kind[entity.name] = entity.kind
        self._leaf_path[entity.name] = entity.path
        path = entity.path
        for depth in range(len(path)):
            prefix = path[:depth]
            child = path[: depth + 1]
            self._children.setdefault(prefix, set())
            self._leaves.setdefault(prefix, [])
            if depth < len(path) - 1:
                self._children[prefix].add(child)
            self._leaves[prefix].append(entity.name)
        self._children.setdefault(path[:-1], set())

    # ------------------------------------------------------------------
    # Navigation
    # ------------------------------------------------------------------
    def is_group(self, path: Path) -> bool:
        """True when *path* names a group (interior node) of the tree."""
        return path in self._children and bool(
            self._children[path] or self._group_leaves(path)
        )

    def _group_leaves(self, path: Path) -> list[str]:
        return [
            name
            for name in self._leaves.get(path, [])
            if self._leaf_path[name][:-1] == path
        ]

    def children(self, path: Path) -> list[Path]:
        """Sub-groups directly under *path*, sorted."""
        if path not in self._children:
            raise HierarchyError(f"unknown group {path!r}")
        return sorted(self._children[path])

    def leaves(self, path: Path = ()) -> list[str]:
        """Every entity name under *path* (insertion order)."""
        if path not in self._leaves:
            raise HierarchyError(f"unknown group {path!r}")
        return list(self._leaves[path])

    def groups(self) -> list[Path]:
        """All groups, sorted by (depth, path); excludes the root."""
        return sorted((p for p in self._children if p), key=lambda p: (len(p), p))

    def groups_at_depth(self, depth: int) -> list[Path]:
        """Groups whose path length is exactly *depth*."""
        if depth <= 0:
            raise HierarchyError(f"depth must be positive, got {depth}")
        return [p for p in self.groups() if len(p) == depth]

    def max_depth(self) -> int:
        """Length of the longest entity path."""
        return max((len(p) for p in self._leaf_path.values()), default=0)

    def path_of(self, entity: str) -> Path:
        """The full path of *entity* (ending with its own name)."""
        try:
            return self._leaf_path[entity]
        except KeyError:
            raise HierarchyError(f"unknown entity {entity!r}") from None

    def kind_of(self, entity: str) -> str:
        """The kind of *entity*."""
        try:
            return self._kind[entity]
        except KeyError:
            raise HierarchyError(f"unknown entity {entity!r}") from None

    def __contains__(self, entity: str) -> bool:
        return entity in self._kind

    def __iter__(self) -> Iterator[str]:
        return iter(self._kind)

    def __len__(self) -> int:
        return len(self._kind)


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
