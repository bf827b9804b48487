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

:class:`repro.trace.store.TraceStore` decodes the table once from the
arrays of the store directory (:meth:`EntityTable.from_arrays`); a
resident :class:`~repro.trace.trace.Trace` builds it on first use from
its entities (:meth:`EntityTable.from_entities`), and the store writer
from the rows it writes (:meth:`EntityTable.from_rows`).
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.errors import TraceError, TraceStoreError
from repro.trace.columnar import index_array

if TYPE_CHECKING:
    from repro.trace.trace import Entity

__all__ = ["EntityTable"]

Path = tuple[str, ...]


class EntityTable:
    """Names, kinds, groups and per-metric bank rows of a trace's entities.

    Build it with :meth:`from_rows` (path-bearing rows) or
    :meth:`from_arrays` (the store's entity tables) plus
    :meth:`set_rows` per metric, or with :meth:`from_entities`.  Read
    only once built, apart from the idempotent per-metric row-index
    memo, so concurrent sessions share it without copies.
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
        duplicate name, a path that does not end with its entity's
        name, or a kind or group-path part that is not a string raises
        *error*, its message prefixed with *what*; kinds and groups
        are checked once each.  Metric rows are added with
        :meth:`set_rows`.
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
                if not isinstance(kind, str):
                    raise error(
                        f"{where}entity {name!r}: kind must be a string, "
                        f"got {kind!r}"
                    )
                code = kind_codes[kind] = len(kind_codes)
            kinds.append(code)
            group = tuple(path[:-1])
            code = group_index.get(group)
            if code is None:
                if not all(isinstance(part, str) for part in group):
                    raise error(
                        f"{where}entity {name!r}: path parts must be "
                        f"strings, got {group!r}"
                    )
                group = tuple([intern(part) for part in group])
                code = group_index[group] = len(group_index)
            groups.append(code)
        table.kind_names = tuple(intern(kind) for kind in kind_codes)
        table.kinds = np.asarray(kinds, dtype=np.int32)
        table.group_paths = tuple(group_index)
        table.groups = np.asarray(groups, dtype=np.int32)
        return table

    @classmethod
    def from_arrays(
        cls,
        names: list[str],
        kind_names: Sequence[str],
        kinds: np.ndarray,
        group_paths: Sequence[Path],
        groups: np.ndarray,
        what: str = "",
    ) -> "EntityTable":
        """The table of *names* (trace order) with their kind and
        innermost-group codes into *kind_names* and *group_paths*: the
        store's decode of its entity tables.

        The codes are copied into int32 arrays.  A duplicate name or
        group path, or a code array of another length than *names* or
        holding a code out of range, raises
        :class:`~repro.errors.TraceStoreError`, its message prefixed
        with *what*; the checks run on whole arrays.  Metric rows are
        added with :meth:`set_rows`.
        """
        where = f"{what}: " if what else ""
        table = cls()
        table.names = names
        table.index = index = {name: i for i, name in enumerate(names)}
        if len(index) != len(names):
            seen: set[str] = set()
            duplicate = next(
                name for name in names if name in seen or seen.add(name)
            )
            raise TraceStoreError(f"{where}duplicate entity {duplicate!r}")
        intern = sys.intern
        table.kind_names = tuple(map(intern, kind_names))
        table.group_paths = tuple(
            tuple(map(intern, path)) for path in group_paths
        )
        table.group_index = dict(
            zip(table.group_paths, range(len(table.group_paths)))
        )
        if len(table.group_index) != len(table.group_paths):
            raise TraceStoreError(f"{where}duplicate group path")
        for codes, count, field in (
            (kinds, len(kind_names), "kind"),
            (groups, len(group_paths), "group"),
        ):
            if len(codes) != len(names):
                raise TraceStoreError(
                    f"{where}{len(codes)} {field} codes for "
                    f"{len(names)} entities"
                )
        table.kinds = index_array(
            kinds, len(kind_names), what=f"{where}kind code"
        )
        table.groups = index_array(
            groups, len(group_paths), what=f"{where}group code"
        )
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
