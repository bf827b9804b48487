"""The process-wide shared aggregation result cache.

One :class:`SharedResultCache` instance is shared by every session's
:class:`~repro.core.aggengine.AggregationEngine` in a server process.
The engine keeps one entry per view, keyed on ``(slice.as_tuple(),
grouping.state_key, metrics)`` — built entirely from *canonical*
tokens, so two different sessions viewing the same metrics at the same
slice under the same collapsed groups produce the **same** key and hit
each other's combined per-unit values: one read-only float64 array per
view, each metric's values back to back in the structure's per-metric
unit order, a format private to
:class:`~repro.core.aggengine.AggregationEngine`.  Writing into one
raises (``tests/test_session_isolation.py``).

Capacity is counted in *metric results*: an entry weighs its number of
metrics, and the LRU evicts whole entries, oldest first, until the
summed weight is within ``max_entries`` again.  The default 4,096 thus
holds 1,024 four-metric views, and :meth:`SharedResultCache.snapshot`
reports occupancy (``size``) in the same unit.

Invalidation is *structural*, not imperative: a grouping change bumps
``GroupingState.revision``, which recomputes ``state_key``, which
changes every future cache key — stale entries are never addressable
again and simply age out of the LRU.  That is what the
poisoned-entry property test in ``tests/test_shared_cache.py`` pins.

All counters live in a ``rescache`` :class:`repro.obs.StatGroup`;
``hits + misses == lookups`` holds at every instant because each lookup
updates both under one lock.  ``cross_hits`` counts hits where the
requester differs from the session that populated the entry — the
acceptance-criterion proof that sharing actually happened.

The cache also remembers, per requester, the most shared answer it gave
since the requester's last :meth:`SharedResultCache.take_tier` — a hit
on another session's entry (``shared``), on the requester's own
(``local``) or a miss (``fresh``).  That is the cache tier the server
attributes each request to.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable

from repro.obs.registry import registry

__all__ = ["SharedResultCache"]

#: Lookup answers, most shared first: the precedence
#: :meth:`SharedResultCache.take_tier` reports a request's lookups by.
_ANSWERS = ("shared", "local", "fresh")


class SharedResultCache:
    """A thread-safe, weighted LRU cache of combined per-unit values.

    The cache stores values opaquely; the aggregation engine puts one
    read-only float64 array per view, weighed by its number of metrics.

    Parameters
    ----------
    max_entries:
        LRU capacity, in summed entry weight (metric results held):
        least-recently-used entries are evicted while the weight held
        exceeds it, but never the entry just put, so one entry heavier
        than the capacity stays alone.  Eviction never changes results
        — only costs a recompute — which the property tests verify by
        differencing against an unbounded twin.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        #: key -> (value, owner, weight); insertion order is recency
        #: order.
        self._entries: "OrderedDict[Hashable, tuple[Any, str | None, int]]" = (
            OrderedDict()
        )
        #: summed weight of the entries held
        self._weight = 0
        #: requester -> its most shared answer since its last take_tier
        self._answers: dict[str, str] = {}
        #: traffic counters, a :class:`repro.obs.StatGroup` registered
        #: under the ``rescache`` namespace
        self.stats: dict[str, int] = registry.group("rescache", {
            "lookups": 0,
            "hits": 0,
            "misses": 0,
            "cross_hits": 0,
            "puts": 0,
            "updates": 0,
            "evictions": 0,
        })

    def get(self, key: Hashable, requester: str | None = None) -> Any:
        """The cached value for *key*, or ``None`` on a miss.

        A hit refreshes the entry's recency.  When *requester* differs
        from the session that populated the entry, the hit is also
        counted as a ``cross_hit`` — work one session paid for,
        consumed by another.
        """
        with self._lock:
            self.stats["lookups"] += 1
            entry = self._entries.get(key)
            if entry is None:
                self.stats["misses"] += 1
                self._answer(requester, "fresh")
                return None
            self._entries.move_to_end(key)
            self.stats["hits"] += 1
            value, owner, _ = entry
            if (
                owner is not None
                and requester is not None
                and owner != requester
            ):
                self.stats["cross_hits"] += 1
                self._answer(requester, "shared")
            else:
                self._answer(requester, "local")
            return value

    def _answer(self, requester: str | None, answer: str) -> None:
        if requester is None:
            return
        held = self._answers.get(requester)
        if held is None or _ANSWERS.index(answer) < _ANSWERS.index(held):
            self._answers[requester] = answer

    def take_tier(self, requester: str) -> str | None:
        """The most shared answer given to *requester* since its last
        call — ``"shared"``, ``"local"`` or ``"fresh"`` — or ``None``
        when it looked nothing up."""
        with self._lock:
            return self._answers.pop(requester, None)

    def put(
        self,
        key: Hashable,
        value: Any,
        owner: str | None = None,
        weight: int = 1,
    ) -> None:
        """Store *value* under *key*, attributed to session *owner*.

        The entry weighs *weight* (the engine's number of metrics)
        against ``max_entries``; older entries are evicted whole until
        the weight held fits, always keeping this one.

        If the key is already present (two sessions raced on the same
        miss and both computed) the **first** entry wins: keys are
        built from canonical tokens, so both values are interchangeable
        and the original populator keeps the cross-hit attribution.
        Counted as an ``update`` instead of a ``put``.
        """
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.stats["updates"] += 1
                return
            self._entries[key] = (value, owner, weight)
            self._weight += weight
            self.stats["puts"] += 1
            while self._weight > self.max_entries and len(self._entries) > 1:
                _, (_, _, dropped) = self._entries.popitem(last=False)
                self._weight -= dropped
                self.stats["evictions"] += 1

    def __len__(self) -> int:
        """The number of entries held (views, not metric results)."""
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def snapshot(self) -> dict[str, int]:
        """Counters plus the occupancy ``size`` — the summed weight
        held, in metric results like ``max_entries`` — as one plain
        dict."""
        with self._lock:
            out = dict(self.stats)
            out["size"] = self._weight
            return out
