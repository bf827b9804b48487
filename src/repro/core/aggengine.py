"""The incremental aggregation engine: Equation 1 at interactive rates.

:func:`~repro.core.aggregation.aggregate_view` recomputes both halves
of Equation 1 from scratch — per entity, in Python — every time it is
called.  That is the same hot-path shape the vectorized Barnes-Hut
kernel removed from the layout, and it dominates the view loop when
the analyst scrubs the time slice or toggles a group.
:class:`AggregationEngine` produces *identical* views (the legacy
function is kept as the differential-testing oracle that tests call
directly) from one cache per concept:

* **slice means** — a :class:`SliceCache` per metric: one
  :class:`~repro.trace.signalbank.SignalBank` holds every entity's
  breakpoints and prefix sums; when the slice moves, per-entity cursors
  advance only over the breakpoints actually crossed (the delta
  windows) instead of re-bisecting the whole trace;
* **unit structures** — :class:`SharedTraceData` builds unit
  memberships, labels and the merged edge multiplicities once per
  canonical grouping token
  (:attr:`~repro.core.hierarchy.GroupingState.state_key`); every view
  looks its structure up there, so a slice move never rebuilds one;
* **combined unit values** — the optional result cache, one entry per
  view keyed on ``(slice.as_tuple(), grouping.state_key, metrics)``:
  one read-only float64 array holding each metric's combined values
  back to back, each in the structure's per-metric unit order, weighed
  by its number of metrics.

A single-user session has no result cache: a repeated view re-runs
only the spatial combine, because its :class:`SliceCache` already
holds that slice's means.

Every decision is counted in :attr:`AggregationEngine.stats` (mirroring
``ForceLayout.stats``), so benchmarks and the differential suite can
assert that deltas were actually taken.  The ``agg.slice`` and
``agg.spatial`` spans time the two halves.

The layers are split along a sharing boundary, so N sessions of the
multi-session analysis server (:mod:`repro.server`) do the trace-derived
work once:

* :class:`SharedTraceData` owns everything derived *only from the
  trace* — the resource hierarchy, the per-metric signal banks and the
  unit structures — all immutable once built, so concurrent sessions
  read them without copies or locks on the hot path;
* :class:`AggregationEngine` is the thin **per-session** layer: slice
  cursors and (optionally) a handle on the process-wide result cache
  shared with other sessions, so sessions scrubbing the same region hit
  each other's work.

A single-user :class:`~repro.core.session.AnalysisSession` builds a
private :class:`SharedTraceData`.  Everything handed across the sharing
boundary is genuinely immutable: cached mean and unit-value arrays are
marked read-only and the structure tables are tuples, so one session
can never observe another session's in-flight mutation
(``tests/test_session_isolation.py``).
"""

from __future__ import annotations

import threading
from typing import Sequence

import numpy as np

from repro.core.aggregation import (
    AggregatedEdge,
    AggregatedUnit,
    AggregatedView,
    unit_key,
)
from repro.core.hierarchy import GroupingState, Hierarchy, Path
from repro.core.timeslice import TimeSlice
from repro.errors import AggregationError
from repro.obs.registry import registry
from repro.obs.spans import span
from repro.trace.entities import EntityTable
from repro.trace.signalbank import SignalBank
from repro.trace.trace import Trace

__all__ = [
    "AggregationEngine",
    "SharedTraceData",
    "SliceCache",
]


#: Vectorized cursor-advance rounds a slice move may take before
#: :class:`SliceCache` falls back to a full re-bisection.
ADVANCE_CAP = 64


class SliceCache:
    """Incremental temporal aggregation of one metric's signal bank.

    Keeps the per-entity breakpoint cursors of the current slice's two
    endpoints plus the resulting slice means.  Moving to a new slice
    costs one :meth:`SignalBank.advance` per endpoint — proportional to
    the breakpoints crossed, not to the trace size.  A move larger than
    :data:`ADVANCE_CAP` vectorized rounds falls back to a full
    re-bisection (:meth:`SignalBank.locate`), which is still a handful
    of NumPy calls.
    """

    def __init__(self, bank: SignalBank, stats: dict) -> None:
        self.bank = bank
        self.stats = stats
        self._slice: tuple[float, float] | None = None
        self._idx_start: np.ndarray | None = None
        self._idx_end: np.ndarray | None = None
        self._means: np.ndarray | None = None

    def means(self, tslice: TimeSlice) -> np.ndarray:
        """Per-row slice means for *tslice* (do not mutate the result).

        Counts one of ``slice_hits`` / ``slice_delta`` / ``slice_full``
        in the shared stats dict, plus the cursor ``advance_rounds``
        taken on the delta path.
        """
        key = tslice.as_tuple()
        if self._slice == key and self._means is not None:
            self.stats["slice_hits"] += 1
            return self._means
        with span("agg.slice"):
            start, end = key
            bank = self.bank
            if self._slice is None:
                self._idx_start = bank.locate(start)
                self._idx_end = bank.locate(end)
                self.stats["slice_full"] += 1
            else:
                rounds_start = bank.advance(
                    self._idx_start, start, ADVANCE_CAP
                )
                rounds_end = bank.advance(self._idx_end, end, ADVANCE_CAP)
                if rounds_start is None or rounds_end is None:
                    if rounds_start is None:
                        self._idx_start = bank.locate(start)
                    if rounds_end is None:
                        self._idx_end = bank.locate(end)
                    self.stats["slice_full"] += 1
                else:
                    self.stats["slice_delta"] += 1
                    self.stats["advance_rounds"] += rounds_start + rounds_end
            if end == start:
                means = bank.values_at(start, self._idx_start)
            else:
                means = bank.integrals_between(
                    start, end, self._idx_start, self._idx_end
                ) / (end - start)
            # The cached array is handed to every consumer by reference
            # (and, through the shared result cache, potentially across
            # sessions) — freeze it so an accidental in-place write
            # raises instead of silently corrupting other views.
            means.setflags(write=False)
            self._slice = key
            self._means = means
        return means


class _Structure:
    """The slice-independent half of one view: units and edges.

    Valid for one canonical grouping token
    (:attr:`~repro.core.hierarchy.GroupingState.state_key`); rebuilding
    it is the only per-interaction cost of collapsing/expanding groups,
    and slice scrubbing reuses it untouched.  Instances are immutable
    after construction (apart from the idempotent lazy metric-layout
    memo) and shared freely across concurrent sessions whose collapsed
    sets coincide.

    Per-unit tables (``members``, ``groups``, ``kinds``, ``labels``)
    are tuples aligned with ``unit_order``.  The members are also kept
    as entity indices of the trace's
    :class:`~repro.trace.entities.EntityTable`: unit ``i`` owns
    ``member_rows[member_offsets[i]:member_offsets[i + 1]]``, in member
    order.  Every table is a pure function of the trace and ``key``,
    so two structures built for the same token — say, one evicted and
    rebuilt — agree position by position.
    """

    __slots__ = (
        "key",
        "table",
        "unit_order",
        "members",
        "member_rows",
        "member_offsets",
        "groups",
        "kinds",
        "labels",
        "edges",
        "_metric_layouts",
    )

    def __init__(
        self,
        table: EntityTable,
        grouping: GroupingState,
        edge_pairs: np.ndarray,
    ) -> None:
        self.key = grouping.state_key
        self.table = table
        n = len(table)
        # The unit of each entity follows from its innermost group: the
        # outermost collapsed group on that group's path, if any.
        collapsed = grouping.collapsed
        visible: dict[Path, int] = {}
        owner = []
        for path in table.group_paths:
            hit = -1
            for depth in range(1, len(path) + 1):
                if path[:depth] in collapsed:
                    hit = visible.setdefault(path[:depth], len(visible))
                    break
            owner.append(hit)
        entity_owner = np.asarray(owner, dtype=np.int64)[table.groups]
        kinds = table.kinds.astype(np.int64)
        # One id per unit: a plain entity is its own unit, an aggregate
        # is one (collapsed group, kind) pair.
        unit_id = np.where(
            entity_owner >= 0,
            n + entity_owner * len(table.kind_names) + kinds,
            np.arange(n),
        )
        _, first, inverse = np.unique(
            unit_id, return_index=True, return_inverse=True
        )
        # Units in the order of their first member, members in trace
        # order: the order a walk over the entities would meet them.
        order = np.argsort(first, kind="stable")
        position = np.empty(len(order), dtype=np.int64)
        position[order] = np.arange(len(order))
        unit_of = position[inverse.reshape(-1)]
        rows = np.argsort(unit_of, kind="stable").astype(np.int32)
        offsets = np.zeros(len(order) + 1, dtype=np.int32)
        np.cumsum(np.bincount(unit_of, minlength=len(order)), out=offsets[1:])
        rows.setflags(write=False)
        offsets.setflags(write=False)
        self.member_rows = rows
        self.member_offsets = offsets
        names = table.names
        bounds = offsets.tolist()
        member_names = list(map(names.__getitem__, rows.tolist()))
        self.members = tuple(
            tuple(member_names[bounds[u]:bounds[u + 1]])
            for u in range(len(order))
        )
        groups_of = list(visible)
        heads = first[order].tolist()
        owners = entity_owner[heads].tolist()
        self.groups = tuple(
            groups_of[o] if o >= 0 else None for o in owners
        )
        self.kinds = tuple(table.kind(head) for head in heads)
        self.unit_order = tuple(
            unit_key(group, kind, names[head])
            for group, kind, head in zip(self.groups, self.kinds, heads)
        )
        self.labels = tuple(
            "/".join(group) if group is not None else names[head]
            for group, head in zip(self.groups, heads)
        )
        self.edges = self._edges(unit_of, edge_pairs)
        self._metric_layouts: dict[
            str, tuple[np.ndarray, tuple, np.ndarray]
        ] = {}

    def _edges(
        self, unit_of: np.ndarray, edge_pairs: np.ndarray
    ) -> tuple[AggregatedEdge, ...]:
        """Merged unit edges, sorted by endpoint keys: every trace edge
        segment between two different units counts once towards the
        pair's multiplicity; segments inside one unit vanish."""
        keys = self.unit_order
        unit_of = unit_of.tolist()
        multiplicity: dict[tuple[str, str], int] = {}
        for x, y in edge_pairs.tolist():
            ux, uy = keys[unit_of[x]], keys[unit_of[y]]
            if ux != uy:
                pair = (ux, uy) if ux <= uy else (uy, ux)
                multiplicity[pair] = multiplicity.get(pair, 0) + 1
        return tuple(
            AggregatedEdge(a, b, count)
            for (a, b), count in sorted(multiplicity.items())
        )

    def metric_layout(
        self, metric: str
    ) -> tuple[np.ndarray, tuple, np.ndarray]:
        """``(rows, spans, slots)`` for vectorized per-unit combination.

        The *metric's unit order* lists the units with at least one
        member carrying *metric*, stably sorted by how many members
        carry it; ``slots`` is an int32 array over ``unit_order``
        holding each unit's position in the metric's unit order, or -1
        when no member carries *metric*.  ``rows`` holds those members'
        bank rows, unit after unit in the metric's unit order and each
        unit's in member order; ``spans`` holds one ``(count, start,
        stop)`` per member count: the units at positions
        ``[start, stop)`` have ``count`` members each.
        """
        cached = self._metric_layouts.get(metric)
        if cached is None:
            bank_rows = self.table.row_index(metric)[self.member_rows]
            carried = bank_rows >= 0
            # Members carrying the metric per unit, from a running count.
            running = np.concatenate(([0], np.cumsum(carried)))
            per_unit = np.diff(running[self.member_offsets])
            present = per_unit > 0
            order, gather, spans = _count_order(per_unit[present])
            slots = np.full(len(per_unit), -1, dtype=np.int32)
            slots[np.flatnonzero(present)[order]] = np.arange(
                len(order), dtype=np.int32
            )
            rows = bank_rows[carried][gather]
            rows.setflags(write=False)
            slots.setflags(write=False)
            cached = (rows, spans, slots)
            self._metric_layouts[metric] = cached
        return cached


def _count_order(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Units of *counts* members each, grouped by count:
    ``(order, gather, spans)``.

    ``order`` lists the units stably sorted by count; ``gather`` the
    positions of their members in the concatenation of all units'
    members in unit order, unit after unit in ``order``; ``spans`` one
    ``(count, start, stop)`` per distinct count, units
    ``order[start:stop]`` having ``count`` members each.
    """
    order = np.argsort(counts, kind="stable")
    sorted_counts = counts[order]
    starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
    placed = np.concatenate(([0], np.cumsum(sorted_counts)))[:-1]
    gather = np.repeat(starts[order] - placed, sorted_counts) + np.arange(
        int(sorted_counts.sum())
    )
    bounds = [0, *(np.flatnonzero(np.diff(sorted_counts)) + 1).tolist()]
    bounds.append(len(order))
    spans = tuple(
        (int(sorted_counts[start]), start, stop)
        for start, stop in zip(bounds, bounds[1:])
        if stop > start
    )
    return order, gather, spans


def _combine(values: np.ndarray, spans: tuple) -> np.ndarray:
    """The sum of each unit's member *values*, laid out unit after unit
    as :func:`_count_order` sorts them, in that unit order.

    One ``np.add.reduce`` per member count sums the rows of a
    C-contiguous ``(units, count)`` block: each row in member order and
    in the pairwise order of a 1-D reduce over the same values, bit for
    bit.  When every unit has one member the values are the sums.
    """
    if all(count == 1 for count, _, _ in spans):
        return values
    combined = np.empty(spans[-1][2])
    at = 0
    for count, start, stop in spans:
        end = at + (stop - start) * count
        np.add.reduce(
            values[at:end].reshape(-1, count), axis=1,
            out=combined[start:stop],
        )
        at = end
    return combined


class SharedTraceData:
    """Process-wide immutable structures derived from one loaded trace.

    The sharing substrate of the multi-session analysis server: the
    trace is loaded **once** and every concurrent session attaches to
    the same instance, reusing

    * the resource :class:`~repro.core.hierarchy.Hierarchy`, over the
      trace's one :class:`~repro.trace.entities.EntityTable`;
    * one :class:`~repro.trace.signalbank.SignalBank` per metric — for
      a ``.rtrace`` store these are zero-copy views over the
      memory-mapped columns;
    * the unit :class:`_Structure` of every grouping the analysts have
      visited, keyed on the canonical
      :attr:`~repro.core.hierarchy.GroupingState.state_key` token (two
      sessions with the same collapsed groups share one structure);
    * the hierarchical radial layout seeds per grouping token (the
      quadtree seeding of Section 3.3), one float64 array each.

    Everything stored here is immutable once built, so readers take no
    lock; the lock only serializes construction.  A plain single-user
    :class:`~repro.core.session.AnalysisSession` builds a private
    instance — sharing is strictly opt-in.
    """

    #: Distinct grouping structures, and distinct layout-seed entries,
    #: kept before the oldest is dropped; a bound on pathological
    #: sessions cycling through thousands of grouping states.  An
    #: evicted structure is rebuilt on its next view, position for
    #: position the same.
    MAX_STRUCTURES = 256

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self._lock = threading.Lock()
        self._hierarchy: Hierarchy | None = None
        self._banks: dict[str, SignalBank] = {}
        self._pairs: np.ndarray | None = None
        self._structures: dict[tuple, _Structure] = {}
        self._seeds: dict[tuple, np.ndarray] = {}
        #: build/reuse counters, a :class:`repro.obs.StatGroup`
        #: registered under the ``aggshared`` namespace
        self.stats: dict[str, int] = registry.group("aggshared", {
            "bank_builds": 0,
            "structure_builds": 0,
            "structure_shared_hits": 0,
            "structure_evictions": 0,
            "seed_builds": 0,
            "seed_shared_hits": 0,
            "seed_evictions": 0,
        })

    @property
    def hierarchy(self) -> Hierarchy:
        """The resource hierarchy, built once and shared by sessions."""
        with self._lock:
            if self._hierarchy is None:
                self._hierarchy = Hierarchy.from_trace(self.trace)
            return self._hierarchy

    def bank(self, metric: str) -> SignalBank:
        """The shared :class:`~repro.trace.signalbank.SignalBank` of
        *metric*, its rows in the order of the trace table's
        ``rows[metric]`` (empty for a metric no entity carries).

        Built on first demand by the trace's
        :meth:`~repro.trace.trace.Trace.signal_bank`; a stored trace
        serves it straight off the columnar file, so no ``Signal``
        objects are ever materialized.
        """
        with self._lock:
            bank = self._banks.get(metric)
            if bank is None:
                bank = self._banks[metric] = self.trace.signal_bank(metric)
                self.stats["bank_builds"] += 1
            return bank

    def _edge_pairs(self) -> np.ndarray:
        """The trace's edge segments as entity-index pairs
        (:meth:`~repro.trace.trace.Trace.edge_segments`), built once."""
        with self._lock:
            if self._pairs is None:
                self._pairs = self.trace.edge_segments()
                self._pairs.setflags(write=False)
            return self._pairs

    def structure(self, grouping: GroupingState) -> _Structure:
        """The shared unit structure for *grouping*'s collapsed set.

        Keyed on the canonical ``state_key`` token, so any session
        whose collapsed groups coincide gets the same (immutable)
        object back — counted in ``structure_shared_hits``.
        """
        key = grouping.state_key
        with self._lock:
            structure = self._structures.get(key)
        if structure is not None:
            self.stats["structure_shared_hits"] += 1
            return structure
        built = _Structure(self.trace.table, grouping, self._edge_pairs())
        with self._lock:
            structure = self._structures.setdefault(key, built)
            while len(self._structures) > self.MAX_STRUCTURES:
                self._structures.pop(next(iter(self._structures)))
                self.stats["structure_evictions"] += 1
        self.stats["structure_builds"] += 1
        return structure

    def layout_seeds(
        self,
        grouping_key: tuple,
        graph,
        spring_length: float,
    ) -> np.ndarray:
        """Shared radial seed positions for one grouping's graph.

        The hierarchical arcs of Section 3.3
        (:func:`~repro.core.layout.seeding.radial_seed_array`): a
        read-only float64 ``(len(graph), 2)`` array in graph node
        order, NaN rows for unseeded nodes.  Memoized per ``(grouping
        token, spring length)``; a grouping's graph always lists the
        units of its structure in the structure's order, and an entry
        whose row count differs from the graph is rebuilt.  At most
        :attr:`MAX_STRUCTURES` entries are kept, oldest dropped first
        (``seed_evictions``).
        """
        from repro.core.layout.seeding import radial_seed_array

        memo_key = (grouping_key, float(spring_length))
        with self._lock:
            entry = self._seeds.get(memo_key)
        if entry is not None and len(entry) == len(graph):
            self.stats["seed_shared_hits"] += 1
            return entry
        seeds = radial_seed_array(
            self.hierarchy, graph, spring_length=spring_length
        )
        seeds.setflags(write=False)
        with self._lock:
            self._seeds[memo_key] = seeds
            while len(self._seeds) > self.MAX_STRUCTURES:
                self._seeds.pop(next(iter(self._seeds)))
                self.stats["seed_evictions"] += 1
        self.stats["seed_builds"] += 1
        return seeds


class AggregationEngine:
    """Cached, vectorized production of :class:`AggregatedView`\\ s.

    Drop-in faster equivalent of calling
    :func:`~repro.core.aggregation.aggregate_view` per interaction; the
    views it returns match the oracle to roundoff (enforced by
    ``tests/test_aggregation_differential.py``).

    What each interaction costs:

    * slice moved → temporal delta update (cursor advance over crossed
      breakpoints) + vectorized combination of all units;
    * grouping changed → the structure of the new ``state_key`` (built
      once per token, then shared) + combination of all units over the
      cached slice means;
    * nothing changed → a result-cache hit, or without a result cache a
      slice-cache hit plus the spatial combine;
    * trace mutation → build a fresh engine (signals are immutable, so
      banks never go stale).

    Parameters
    ----------
    shared:
        A :class:`SharedTraceData` to attach to (the multi-session
        path); ``None`` builds a private one, which is the single-user
        behavior this class always had.
    result_cache:
        An optional process-wide result cache shared with other
        engines (duck-typed ``get(key, requester=...)`` /
        ``put(key, value, owner=..., weight=...)``, e.g.
        :class:`repro.server.cache.SharedResultCache`).  One lookup and
        at most one put per view, keyed on ``(slice.as_tuple(),
        grouping.state_key, metrics)`` with the view's metric names as
        a tuple and weighed by their number; a view with no metrics
        makes neither.  A value is one read-only float64 array holding
        each metric's values back to back, each in the structure's
        per-metric unit order, read back through the unit structure of
        the same ``state_key`` — a private format only this class reads
        and writes.
    cache_owner:
        Identity reported to the result cache so cross-session hits
        (one session consuming work another session paid for) are
        attributable; defaults to a per-engine token.
    """

    def __init__(
        self,
        trace: Trace,
        shared: SharedTraceData | None = None,
        result_cache=None,
        cache_owner: str | None = None,
    ) -> None:
        if shared is None:
            shared = SharedTraceData(trace)
        elif shared.trace is not trace:
            raise AggregationError(
                "shared trace data was built for a different trace"
            )
        self.shared = shared
        self.trace = trace
        self.result_cache = result_cache
        self.cache_owner = (
            cache_owner if cache_owner is not None else f"engine-{id(self):x}"
        )
        self._slice_caches: dict[str, SliceCache] = {}
        #: decision counters, mirroring ``ForceLayout.stats``; a
        #: :class:`repro.obs.StatGroup` registered process-wide under
        #: the ``agg`` namespace
        self.stats: dict[str, int] = registry.group("agg", {
            "views": 0,
            "slice_hits": 0,
            "slice_delta": 0,
            "slice_full": 0,
            "advance_rounds": 0,
            "combine_full": 0,
            "shared_hits": 0,
            "shared_puts": 0,
        })

    def _slice_cache(self, metric: str) -> SliceCache:
        cache = self._slice_caches.get(metric)
        if cache is None:
            cache = SliceCache(self.shared.bank(metric), self.stats)
            self._slice_caches[metric] = cache
        return cache

    def _unit_values(
        self, metrics: tuple, structure: _Structure, tslice: TimeSlice
    ) -> np.ndarray:
        """Combined values per unit of every metric of one view.

        One read-only float64 array holding each metric's values back
        to back, each in *structure*'s per-metric unit order (see
        :meth:`_Structure.metric_layout`), served from the result cache
        when it holds the view's key and put into it otherwise, weighed
        by the number of metrics.  Non-finite values (a slice so wide
        its integrals overflow) raise :class:`AggregationError` and are
        never cached.
        """
        cache = self.result_cache
        cache_key = (tslice.as_tuple(), structure.key, metrics)
        if cache is not None:
            cached = cache.get(cache_key, requester=self.cache_owner)
            if cached is not None:
                # Some session — maybe this one — already combined this
                # exact (slice, grouping, metrics) view.  It is aligned
                # with any structure built for the same grouping token,
                # not just the one it was computed against.
                self.stats["shared_hits"] += 1
                return cached
        parts = []
        for metric in metrics:
            means = self._slice_cache(metric).means(tslice)
            with span("agg.spatial"):
                rows, spans, _ = structure.metric_layout(metric)
                # Each unit sums its members in member order, as a 1-D
                # np.add.reduce would (np.add.reduceat's blocked inner
                # loop sums in another order).  From eight members on
                # numpy sums pairwise, so the oracle's left-to-right sum
                # agrees to roundoff only.
                parts.append(_combine(means[rows], spans))
            self.stats["combine_full"] += 1
        values = np.concatenate(parts)
        if np.count_nonzero(np.isfinite(values)) < values.size:
            raise AggregationError(
                f"slice [{tslice.start!r}, {tslice.end!r}] gives "
                f"non-finite values"
            )
        # Handed out by reference (result cache, other sessions): frozen
        # like the slice means.
        values.setflags(write=False)
        if cache is not None:
            cache.put(
                cache_key, values, owner=self.cache_owner, weight=len(metrics)
            )
            self.stats["shared_puts"] += 1
        return values

    def view(
        self,
        grouping: GroupingState,
        tslice: TimeSlice,
        metrics: Sequence[str] | None = None,
    ) -> AggregatedView:
        """The aggregated view for the current scales — fast path.

        Semantically identical to
        ``aggregate_view(trace, grouping, tslice, metrics)``.
        """
        structure = self.shared.structure(grouping)
        metric_names = tuple(
            metrics if metrics is not None else self.trace.metric_names()
        )
        per_metric = []
        if metric_names:
            combined = self._unit_values(metric_names, structure, tslice)
            at = 0
            for metric in metric_names:
                _, spans, slots = structure.metric_layout(metric)
                # The metric's part: one value per unit carrying it.
                width = spans[-1][2] if spans else 0
                per_metric.append(
                    (metric, combined[at:at + width].tolist(), slots.tolist())
                )
                at += width
        units: dict[str, AggregatedUnit] = {}
        for i, key in enumerate(structure.unit_order):
            values: dict[str, float] = {}
            for metric, unit_values, slots in per_metric:
                slot = slots[i]
                if slot >= 0:
                    values[metric] = unit_values[slot]
            units[key] = AggregatedUnit(
                key=key,
                label=structure.labels[i],
                kind=structure.kinds[i],
                members=structure.members[i],
                group=structure.groups[i],
                values=values,
            )
        view = AggregatedView(
            units=units,
            edges=list(structure.edges),
            tslice=tslice,
            entities=structure.table,
        )
        self.stats["views"] += 1
        view.stats = dict(self.stats)
        return view

