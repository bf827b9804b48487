"""The incremental aggregation engine: Equation 1 at interactive rates.

:func:`~repro.core.aggregation.aggregate_view` recomputes both halves
of Equation 1 from scratch — per entity, in Python — every time it is
called.  That is the same hot-path shape the vectorized Barnes-Hut
kernel removed from the layout, and it dominates the view loop when
the analyst scrubs the time slice or toggles a group.
:class:`AggregationEngine` produces *identical* views (the legacy
function is kept as the differential-testing oracle, selected with
``AnalysisSession(engine="scalar")``) from one cache per concept:

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
* **combined unit values** — the optional result cache, keyed on
  ``(slice.as_tuple(), grouping.state_key, metric)``: one read-only
  float64 array per key in the structure's per-metric unit order.

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
from collections.abc import Mapping
from typing import Callable, Sequence

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
from repro.trace.signalbank import SignalBank
from repro.trace.trace import Trace

__all__ = [
    "AggregationEngine",
    "SharedTraceData",
    "SliceCache",
    "make_aggregator",
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
    are tuples aligned with ``unit_order``; ``index`` maps a unit key
    to its position.  Every table is a pure function of the trace and
    ``key``, so two structures built for the same token — say, one
    evicted and rebuilt — agree position by position.
    """

    __slots__ = (
        "key",
        "unit_order",
        "index",
        "members",
        "groups",
        "kinds",
        "labels",
        "edges",
        "_metric_layouts",
    )

    def __init__(self, trace: Trace, grouping: GroupingState) -> None:
        self.key = grouping.state_key
        members: dict[str, list[str]] = {}
        meta: dict[str, tuple[Path | None, str]] = {}
        entity_unit: dict[str, str] = {}
        for entity in trace:
            group = grouping.unit_of(entity.name)
            key = unit_key(group, entity.kind, entity.name)
            members.setdefault(key, []).append(entity.name)
            meta[key] = (group, entity.kind)
            entity_unit[entity.name] = key
        self.unit_order = tuple(members)
        self.index = {key: i for i, key in enumerate(self.unit_order)}
        self.members = tuple(tuple(names) for names in members.values())
        self.groups = tuple(group for group, _ in meta.values())
        self.kinds = tuple(kind for _, kind in meta.values())
        self.labels = tuple(
            "/".join(group) if group is not None else names[0]
            for group, names in zip(self.groups, self.members)
        )
        multiplicity: dict[tuple[str, str], int] = {}
        for edge in trace.edges:
            if edge.via:
                pairs = ((edge.a, edge.via), (edge.via, edge.b))
            else:
                pairs = ((edge.a, edge.b),)
            for x, y in pairs:
                ux, uy = entity_unit[x], entity_unit[y]
                if ux == uy:
                    continue  # internal to an aggregate
                pair = (ux, uy) if ux <= uy else (uy, ux)
                multiplicity[pair] = multiplicity.get(pair, 0) + 1
        self.edges = tuple(
            AggregatedEdge(a, b, count)
            for (a, b), count in sorted(multiplicity.items())
        )
        self._metric_layouts: dict[
            str, tuple[np.ndarray, np.ndarray, np.ndarray]
        ] = {}

    def metric_layout(
        self, metric: str, row_of: Mapping[str, int]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, offsets, slots)`` for vectorized per-unit combination.

        The *metric's unit order* lists the units with at least one
        member carrying *metric*, in view order.  Its ``i``-th unit
        owns the bank rows ``rows[offsets[i]:offsets[i+1]]`` (its
        members', in member order); ``slots`` is an int32 array over
        ``unit_order`` holding each unit's position in the metric's
        unit order, or -1 when no member carries *metric*.
        """
        cached = self._metric_layouts.get(metric)
        if cached is None:
            slots = np.full(len(self.unit_order), -1, dtype=np.int32)
            rows: list[int] = []
            offsets = [0]
            for unit, names in enumerate(self.members):
                unit_rows = [row_of[name] for name in names if name in row_of]
                if unit_rows:
                    slots[unit] = len(offsets) - 1
                    rows.extend(unit_rows)
                    offsets.append(len(rows))
            slots.setflags(write=False)
            cached = (
                np.asarray(rows, dtype=np.intp),
                np.asarray(offsets, dtype=np.intp),
                slots,
            )
            self._metric_layouts[metric] = cached
        return cached


class SharedTraceData:
    """Process-wide immutable structures derived from one loaded trace.

    The sharing substrate of the multi-session analysis server: the
    trace is loaded **once** and every concurrent session attaches to
    the same instance, reusing

    * the resource :class:`~repro.core.hierarchy.Hierarchy`;
    * one :class:`~repro.trace.signalbank.SignalBank` (plus its
      entity-to-row map) per metric — for a ``.rtrace`` store these are
      zero-copy views over the memory-mapped columns;
    * the unit :class:`_Structure` of every grouping the analysts have
      visited, keyed on the canonical
      :attr:`~repro.core.hierarchy.GroupingState.state_key` token (two
      sessions with the same collapsed groups share one structure);
    * the hierarchical radial layout seeds per grouping token (the
      quadtree seeding of Section 3.3).

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

    def __init__(
        self,
        trace: Trace,
        space_op: Callable[[Sequence[float]], float] = sum,
    ) -> None:
        self.trace = trace
        self.space_op = space_op
        self._lock = threading.Lock()
        self._hierarchy: Hierarchy | None = None
        self._banks: dict[str, tuple[SignalBank, Mapping[str, int]]] = {}
        self._structures: dict[tuple, _Structure] = {}
        self._seeds: dict[tuple, tuple[frozenset, dict]] = {}
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

    def bank(self, metric: str) -> tuple[SignalBank, Mapping[str, int]]:
        """The shared ``(SignalBank, row_of)`` pair for *metric*.

        Built on first demand; for a duck-typed bank provider (a
        ``StoredTrace``) the bank is served straight off the columnar
        file, so no ``Signal`` objects are ever materialized, and the
        provider's read-only row map is shared rather than copied.
        """
        with self._lock:
            entry = self._banks.get(metric)
            if entry is None:
                provider = getattr(self.trace, "signal_bank", None)
                if provider is not None:
                    entry = provider(metric)
                else:
                    names = [
                        e.name for e in self.trace if metric in e.metrics
                    ]
                    bank = SignalBank(
                        [
                            self.trace.entity(name).metrics[metric]
                            for name in names
                        ]
                    )
                    entry = (
                        bank,
                        {name: row for row, name in enumerate(names)},
                    )
                self._banks[metric] = entry
                self.stats["bank_builds"] += 1
            return entry

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
        built = _Structure(self.trace, grouping)
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
    ) -> dict[str, tuple[float, float]]:
        """Shared radial seed positions for one grouping's graph.

        The hierarchical arcs of Section 3.3
        (:func:`~repro.core.layout.seeding.radial_seeds`), memoized per
        ``(grouping token, spring length)``; the stored node-key set is
        checked so a different visual mapping (a different node subset)
        recomputes instead of serving stale seeds.  At most
        :attr:`MAX_STRUCTURES` entries are kept, oldest dropped first
        (``seed_evictions``).  Returns a fresh dict — callers own their
        copy.
        """
        from repro.core.layout.seeding import radial_seeds

        node_keys = frozenset(node.key for node in graph)
        memo_key = (grouping_key, float(spring_length))
        with self._lock:
            entry = self._seeds.get(memo_key)
        if entry is not None and entry[0] == node_keys:
            self.stats["seed_shared_hits"] += 1
            return dict(entry[1])
        seeds = radial_seeds(
            self.hierarchy, graph, spring_length=spring_length
        )
        with self._lock:
            self._seeds[memo_key] = (node_keys, seeds)
            while len(self._seeds) > self.MAX_STRUCTURES:
                self._seeds.pop(next(iter(self._seeds)))
                self.stats["seed_evictions"] += 1
        self.stats["seed_builds"] += 1
        return dict(seeds)


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
        ``put(key, value, owner=...)``, e.g.
        :class:`repro.server.cache.SharedResultCache`).  Keys are
        ``(slice.as_tuple(), grouping.state_key, metric)``; values are
        read-only float64 arrays in the structure's per-metric unit
        order, read back through the unit structure of the same
        ``state_key`` — a private format only this class reads and
        writes.
    cache_owner:
        Identity reported to the result cache so cross-session hits
        (one session consuming work another session paid for) are
        attributable; defaults to a per-engine token.
    """

    def __init__(
        self,
        trace: Trace,
        space_op: Callable[[Sequence[float]], float] = sum,
        shared: SharedTraceData | None = None,
        result_cache=None,
        cache_owner: str | None = None,
    ) -> None:
        if shared is None:
            shared = SharedTraceData(trace, space_op=space_op)
        else:
            if shared.trace is not trace:
                raise AggregationError(
                    "shared trace data was built for a different trace"
                )
            if space_op is not sum and space_op is not shared.space_op:
                raise AggregationError(
                    "space_op differs from the shared trace data's; "
                    "sharing results across different combination "
                    "operators would serve wrong values"
                )
        self.shared = shared
        self.trace = shared.trace
        self.space_op = shared.space_op
        self.result_cache = result_cache
        self.cache_owner = (
            cache_owner if cache_owner is not None else f"engine-{id(self):x}"
        )
        self._slice_caches: dict[str, SliceCache] = {}
        self._row_maps: dict[str, Mapping[str, int]] = {}
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

    def _bank(self, metric: str) -> tuple[SignalBank, Mapping[str, int]]:
        cache = self._slice_caches.get(metric)
        if cache is None:
            bank, row_of = self.shared.bank(metric)
            self._slice_caches[metric] = cache = SliceCache(bank, self.stats)
            self._row_maps[metric] = row_of
        return cache.bank, self._row_maps[metric]

    def _unit_values(
        self, metric: str, structure: _Structure, tslice: TimeSlice
    ) -> np.ndarray:
        """Combined value per unit for one metric.

        A read-only float64 array in *structure*'s per-metric unit
        order (see :meth:`_Structure.metric_layout`), served from the
        result cache when it holds the key and put into it otherwise.
        """
        _, row_of = self._bank(metric)
        cache = self.result_cache
        cache_key = (tslice.as_tuple(), structure.key, metric)
        if cache is not None:
            cached = cache.get(cache_key, requester=self.cache_owner)
            if cached is not None:
                # Some session — maybe this one — already combined this
                # exact (slice, grouping, metric) triple.  It is aligned
                # with any structure built for the same grouping token,
                # not just the one it was computed against.
                self.stats["shared_hits"] += 1
                return cached
        means = self._slice_caches[metric].means(tslice)
        with span("agg.spatial"):
            rows, offsets, _ = structure.metric_layout(metric, row_of)
            bounds = offsets.tolist()
            n_units = len(bounds) - 1
            if self.space_op is sum and n_units:
                gathered = means[rows]
                if len(rows) == n_units:
                    # Fully expanded view: every unit is a single
                    # entity, its value is its own slice mean.
                    values = gathered
                else:
                    # One np.add.reduce per unit over its members in
                    # member order (np.add.reduceat's blocked inner
                    # loop sums in another order).  From eight members
                    # on numpy sums pairwise, so the scalar oracle's
                    # left-to-right sum agrees to roundoff only.
                    values = np.empty(n_units)
                    for i in range(n_units):
                        values[i] = np.add.reduce(
                            gathered[bounds[i]:bounds[i + 1]]
                        )
            else:
                values = np.empty(n_units)
                for i in range(n_units):
                    values[i] = self.space_op(
                        means[rows[bounds[i]:bounds[i + 1]]].tolist()
                    )
            # Handed out by reference (result cache, other sessions):
            # frozen like the slice means.
            values.setflags(write=False)
        self.stats["combine_full"] += 1
        if cache is not None:
            cache.put(cache_key, values, owner=self.cache_owner)
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
        ``aggregate_view(trace, grouping, tslice, metrics, space_op)``.
        """
        structure = self.shared.structure(grouping)
        metric_names = (
            list(metrics) if metrics is not None else self.trace.metric_names()
        )
        per_metric = []
        for metric in metric_names:
            combined = self._unit_values(metric, structure, tslice)
            slots = structure.metric_layout(metric, self._row_maps[metric])[2]
            per_metric.append((metric, combined.tolist(), slots.tolist()))
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
            units=units, edges=list(structure.edges), tslice=tslice
        )
        self.stats["views"] += 1
        view.stats = dict(self.stats)
        return view


def make_aggregator(
    engine: str,
    trace: Trace,
    space_op: Callable[[Sequence[float]], float] = sum,
    shared: SharedTraceData | None = None,
    result_cache=None,
    cache_owner: str | None = None,
) -> AggregationEngine | None:
    """``AggregationEngine`` for ``"fast"``, ``None`` for ``"scalar"``.

    The scalar oracle path is the plain
    :func:`~repro.core.aggregation.aggregate_view` call sites already
    use; sessions switch with ``AnalysisSession(engine="scalar")``.
    *shared*/*result_cache*/*cache_owner* forward to
    :class:`AggregationEngine` for the multi-session server path.
    """
    if engine == "fast":
        return AggregationEngine(
            trace,
            space_op=space_op,
            shared=shared,
            result_cache=result_cache,
            cache_owner=cache_owner,
        )
    if engine == "scalar":
        return None
    raise AggregationError(
        f"unknown aggregation engine {engine!r}; pick 'fast' or 'scalar'"
    )
