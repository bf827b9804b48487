"""One entity table per trace: every entity addressed by its index.

A trace names its entities once, in trace order.  :class:`EntityTable`
keeps that order and the facts every layer above asks of an entity —
its kind, its innermost group, and the signal-bank row it occupies in
each metric — as integer arrays over entity indices, so the store, the
hierarchy, the unit structures, the layout seeds and the per-session
layout memory share one table instead of each keeping its own
name-keyed dict:

* ``names`` — entity names in trace order, ``index`` — name to index;
* ``kinds`` — an int code per entity into ``kind_names``;
* ``groups`` — an int code per entity into ``group_paths``, the path of
  its innermost group (its full path is that group path plus its name);
* ``rows[metric]`` — the metric's signal-bank rows as an int32 array of
  entity indices (row ``r`` of the bank holds entity ``rows[metric][r]``).

:meth:`repro.trace.store.TraceStore` decodes the table once from the
store directory; a resident :class:`~repro.trace.trace.Trace` builds it
on first use from its entities (:meth:`EntityTable.from_entities`).
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.errors import TraceError

if TYPE_CHECKING:
    from repro.trace.trace import Entity

__all__ = ["EntityTable"]

Path = tuple[str, ...]


class EntityTable:
    """Names, kinds, groups and per-metric bank rows of a trace's entities.

    Build it with :meth:`from_rows` (path-bearing rows, the store's
    entity section) plus :meth:`set_rows` per metric, or with
    :meth:`from_entities`.  Read only once built, apart from the
    idempotent per-metric row-index memo, so concurrent sessions share
    it without copies.
    """

    __slots__ = (
        "names", "index", "kind_names", "kinds", "group_paths",
        "group_index", "groups", "rows", "_row_index",
    )

    def __init__(self) -> None:
        #: entity names in trace order
        self.names: list[str] = []
        #: entity name -> index into :attr:`names`
        self.index: dict[str, int] = {}
        #: distinct kinds, in order of first appearance
        self.kind_names: tuple[str, ...] = ()
        #: int32 kind code of every entity (into :attr:`kind_names`)
        self.kinds = np.empty(0, dtype=np.int32)
        #: distinct innermost-group paths, in order of first appearance
        self.group_paths: tuple[Path, ...] = ()
        #: innermost-group path -> code (into :attr:`group_paths`)
        self.group_index: dict[Path, int] = {}
        #: int32 innermost-group code of every entity
        self.groups = np.empty(0, dtype=np.int32)
        #: metric -> int32 entity index of each of its bank rows
        self.rows: dict[str, np.ndarray] = {}
        self._row_index: dict[str, np.ndarray] = {}

    # -- construction --------------------------------------------------
    @classmethod
    def from_rows(
        cls,
        entities: Iterable[tuple[str, str, Sequence[str]]],
        error: type[Exception] = TraceError,
        what: str = "",
    ) -> "EntityTable":
        """The table of ``(name, kind, path)`` rows, in their order.

        *path* is the entity's full hierarchy path (ending with its
        name) or empty for an entity outside every group.  Group path
        parts are interned, so equal paths share their strings.  A
        duplicate name or a path that does not end with its entity's
        name raises *error*, its message prefixed with *what*.  Metric
        rows are added with :meth:`set_rows`.
        """
        where = f"{what}: " if what else ""
        table = cls()
        names, index = table.names, table.index
        kind_codes: dict[str, int] = {}
        group_index = table.group_index
        kinds: list[int] = []
        groups: list[int] = []
        intern = sys.intern
        for name, kind, path in entities:
            if name in index:
                raise error(f"{where}duplicate entity {name!r}")
            if len(path) and path[-1] != name:
                raise error(
                    f"{where}entity {name!r}: path must end with the "
                    f"entity name, got {tuple(path)!r}"
                )
            index[name] = len(names)
            names.append(name)
            code = kind_codes.get(kind)
            if code is None:
                code = kind_codes[kind] = len(kind_codes)
            kinds.append(code)
            group = tuple([str(part) for part in path[:-1]])
            code = group_index.get(group)
            if code is None:
                group = tuple([intern(part) for part in group])
                code = group_index[group] = len(group_index)
            groups.append(code)
        table.kind_names = tuple(intern(kind) for kind in kind_codes)
        table.kinds = np.asarray(kinds, dtype=np.int32)
        table.group_paths = tuple(group_index)
        table.groups = np.asarray(groups, dtype=np.int32)
        return table

    @classmethod
    def from_entities(cls, entities: Iterable[Entity]) -> "EntityTable":
        """The table of :class:`~repro.trace.trace.Entity` objects.

        Each metric's bank rows list the entities carrying it, in
        entity order (the order a resident signal bank stacks them).
        """
        entities = list(entities)
        table = cls.from_rows((e.name, e.kind, e.path) for e in entities)
        per_metric: dict[str, list[int]] = {}
        for i, entity in enumerate(entities):
            for metric in entity.metrics:
                per_metric.setdefault(metric, []).append(i)
        for metric in sorted(per_metric):
            table.set_rows(metric, per_metric[metric])
        return table

    def set_rows(self, metric: str, rows: Sequence[int]) -> None:
        """Record *metric*'s bank rows (entity indices, row order)."""
        self.rows[metric] = np.asarray(rows, dtype=np.int32)

    # -- lookups ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self.names)

    def kind(self, i: int) -> str:
        """The kind of entity *i*."""
        return self.kind_names[self.kinds[i]]

    def path(self, i: int) -> Path:
        """The full hierarchy path of entity *i*, ending with its name."""
        return self.group_paths[self.groups[i]] + (self.names[i],)

    def row_index(self, metric: str) -> np.ndarray:
        """Bank row of every entity in *metric* (-1 where it has none).

        An int32 array over entity indices, built on first use and read
        only; all -1 for a metric no entity carries.
        """
        inverse = self._row_index.get(metric)
        if inverse is None:
            rows = self.rows.get(metric)
            if rows is None:
                return np.full(len(self.names), -1, dtype=np.int32)
            inverse = np.full(len(self.names), -1, dtype=np.int32)
            inverse[rows] = np.arange(len(rows), dtype=np.int32)
            inverse.setflags(write=False)
            self._row_index[metric] = inverse
        return inverse

    def metrics_of(self, i: int) -> tuple[str, ...]:
        """The sorted metric names entity *i* has a bank row in."""
        return tuple(
            metric for metric in sorted(self.rows)
            if self.row_index(metric)[i] >= 0
        )

    def kind_counts(self) -> dict[str, int]:
        """Entities per kind, kinds in order of first appearance."""
        counts = np.bincount(self.kinds, minlength=len(self.kind_names))
        return dict(zip(self.kind_names, counts.tolist()))
