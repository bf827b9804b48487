"""The :class:`~repro.trace.trace.Trace` facade over a columnar store.

:meth:`repro.trace.store.TraceStore.open_trace` returns a
:class:`StoredTrace`: entities and edges come from the store's entity
table and edge arrays, events and metadata from its directory,
entities and their signals materialize lazily on access, and the
aggregation engine reads mmap-backed signal banks.
It lives apart from :mod:`repro.trace.store` so that writing a store
(``repro convert``) never loads the trace model.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.errors import TraceError, TraceStoreError
from repro.trace.events import PointEvent
from repro.trace.trace import Entity, MetricInfo, Trace, TraceEdge, _segments

if TYPE_CHECKING:
    from repro.trace.signal import Signal
    from repro.trace.signalbank import SignalBank
    from repro.trace.store import TraceStore

__all__ = ["StoredTrace"]


class _LazyMetrics(Mapping):
    """Per-entity metric mapping that materializes signals on demand.

    Membership and iteration read only the store directory; indexing
    builds (and caches) a :class:`~repro.trace.signal.Signal` whose
    arrays are zero-copy views into the mapped file.
    """

    __slots__ = ("_store", "_entity", "_names", "_cache")

    def __init__(
        self, store: TraceStore, entity: str, names: tuple[str, ...]
    ) -> None:
        self._store = store
        self._entity = entity
        self._names = names
        self._cache: dict[str, Signal] | None = None

    def __contains__(self, metric: object) -> bool:
        return metric in self._names

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def __getitem__(self, metric: str) -> Signal:
        if self._cache is None:
            self._cache = {}
        signal = self._cache.get(metric)
        if signal is None:
            if metric not in self._names:
                raise KeyError(metric)
            signal = self._store.signal(self._entity, metric)
            self._cache[metric] = signal
        return signal


class StoredTrace(Trace):
    """A :class:`~repro.trace.trace.Trace` backed by a :class:`TraceStore`.

    Entities come from the store's :class:`~repro.trace.entities.EntityTable`
    and are materialized only when asked for: each :meth:`entity` call
    or iteration step builds a fresh :class:`~repro.trace.trace.Entity`
    whose metrics mapping materializes signals lazily, so the trace
    itself holds no per-entity object.  Edges stay the store's
    entity-index arrays plus source codes, and :attr:`edges` /
    :meth:`edges_of` build :class:`~repro.trace.trace.TraceEdge`
    records on each read; events and metadata come from the store
    directory.  The
    aggregation engine bypasses signals entirely through
    :meth:`signal_bank`, which serves mmap-backed banks.  Everything
    downstream —
    :class:`~repro.core.session.AnalysisSession`, the hierarchy,
    renderers — sees an ordinary trace.
    """

    def __init__(self, store: TraceStore) -> None:
        self.store = store
        table = self._table = store.entities
        d = store._take_sections()
        index, names = table.index, table.names

        # Event endpoints reuse the table's entity-name objects.
        def name(raw) -> str:
            text = str(raw)
            i = index.get(text)
            return text if i is None else names[i]

        try:
            super().__init__(
                events=[
                    PointEvent(
                        float(time), str(kind), name(src), name(dst),
                        dict(payload),
                    )
                    for time, kind, src, dst, payload in d.get("events", [])
                ],
                metrics_info=[
                    MetricInfo(str(n), str(u), str(desc))
                    for n, u, desc in d.get("metrics_info", [])
                ],
                meta=d.get("meta", {}),
            )
        except (TypeError, ValueError, TraceError) as error:
            raise TraceStoreError(
                f"trace store {store.path.name!r}: corrupt directory: {error}"
            ) from None

    # -- edges, built from the index arrays on each read -----------------
    @property
    def edges(self) -> tuple[TraceEdge, ...]:
        """Declared connections between entities, built on each read."""
        names, store = self._table.names, self.store
        sources = store.source_names
        return tuple(
            TraceEdge(
                names[a], names[b], names[via] if via >= 0 else "",
                sources[code],
            )
            for (a, b, via), code in zip(
                store.edge_ends.tolist(), store.edge_sources.tolist()
            )
        )

    def edge_segments(self) -> np.ndarray:
        """The edge segments, straight from the index arrays."""
        return _segments(self.store.edge_ends)

    # -- entities, answered from the table -------------------------------
    def _entity(self, i: int) -> Entity:
        table = self._table
        name = table.names[i]
        return Entity(
            name,
            table.kind(i),
            table.path(i),
            _LazyMetrics(self.store, name, table.metrics_of(i)),
        )

    def __contains__(self, name: str) -> bool:
        return name in self._table.index

    def __len__(self) -> int:
        return len(self._table)

    def __iter__(self) -> Iterator[Entity]:
        return map(self._entity, range(len(self._table)))

    def entity(self, name: str) -> Entity:
        """The entity called *name*, built from the table on each call;
        :class:`~repro.errors.TraceError` if absent."""
        i = self._table.index.get(name)
        if i is None:
            raise TraceError(f"unknown entity {name!r}")
        return self._entity(i)

    def entities(self, kind: str | None = None) -> list[Entity]:
        """All entities, optionally restricted to one *kind*."""
        table = self._table
        if kind is None:
            return list(self)
        if kind not in table.kind_names:
            return []
        code = table.kind_names.index(kind)
        return [
            self._entity(i)
            for i in np.flatnonzero(table.kinds == code).tolist()
        ]

    def kinds(self) -> list[str]:
        """The sorted set of entity kinds present in the trace."""
        return sorted(self._table.kind_names)

    def signal_bank(self, metric: str) -> SignalBank:
        """The store's mmap-backed bank of *metric*; the empty resident
        bank for a metric no entity carries, as on any trace."""
        if metric not in self._table.rows:
            return super().signal_bank(metric)
        return self.store.signal_bank(metric)

    def span(self) -> tuple[float, float]:
        """The stored time span — no column data is touched."""
        if self.store.span_hint is not None:
            return self.store.span_hint
        return super().span()
