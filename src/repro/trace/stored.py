"""The :class:`~repro.trace.trace.Trace` facade over a columnar store.

:meth:`repro.trace.store.TraceStore.open_trace` returns a
:class:`StoredTrace`: entities, edges, events and metadata come from
the store directory, signals materialize lazily from the mapped
columns, and the aggregation engine reads mmap-backed signal banks.
It lives apart from :mod:`repro.trace.store` so that writing a store
(``repro convert``) never loads the trace model.
"""

from __future__ import annotations

import sys
from collections.abc import Mapping
from typing import TYPE_CHECKING, Iterator

from repro.errors import TraceError, TraceStoreError
from repro.trace.events import PointEvent
from repro.trace.trace import Entity, MetricInfo, Trace, TraceEdge

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

    Entities, edges, events and metadata come from the store directory
    (cheap); per-entity signals materialize lazily on first access, and
    the aggregation engine bypasses them entirely through
    :meth:`signal_bank`, which serves mmap-backed banks.  Everything
    downstream — :class:`~repro.core.session.AnalysisSession`, the
    hierarchy, renderers — sees an ordinary trace.
    """

    def __init__(self, store: TraceStore) -> None:
        self.store = store
        d = store._take_sections()
        names = store._names()
        metric_sets = store._metric_sets()

        # Edge and event endpoints reuse the store's entity-name objects.
        def name(raw) -> str:
            text = str(raw)
            return names.get(text, text)

        try:
            entities = [
                Entity(
                    entity,
                    kind,
                    store.entity_paths[entity],
                    _LazyMetrics(store, entity, metric_sets.get(entity, ())),
                )
                for entity, kind in store.entity_kinds.items()
            ]
            super().__init__(
                entities=entities,
                edges=[
                    TraceEdge(
                        name(a), name(b), name(via), sys.intern(str(source))
                    )
                    for a, b, via, source in d.get("edges", [])
                ],
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
        except TraceStoreError:
            raise
        except (TypeError, ValueError, TraceError) as error:
            raise TraceStoreError(
                f"trace store {store.path.name!r}: corrupt directory: {error}"
            ) from None

    def signal_bank(self, metric: str) -> tuple[SignalBank, Mapping[str, int]]:
        """The engine's bank provider hook — mmap-backed, from the store."""
        return self.store.signal_bank(metric)

    def metric_names(self) -> list[str]:
        """Stored metric names (directory lookup, no signal access)."""
        return self.store.metric_names()

    def span(self) -> tuple[float, float]:
        """The stored time span — no column data is touched."""
        if self.store.span_hint is not None:
            return self.store.span_hint
        return super().span()
