"""The interactive analysis session: the library's main entry point.

:class:`AnalysisSession` wires the whole technique together and exposes
every interaction of Sections 3 and 4 as a method:

* time navigation — :meth:`set_time_slice`, :meth:`shift_time`,
  :meth:`animate` (Fig. 9);
* spatial aggregation — :meth:`aggregate`, :meth:`disaggregate`,
  :meth:`aggregate_depth` (Fig. 8's four levels);
* appearance — :meth:`set_mapping`, :meth:`set_size_slider` (Fig. 4);
* layout — :meth:`set_layout_params` (the charge/spring/damping sliders
  of Fig. 5), :meth:`drag`, :meth:`pin`.

Every call to :meth:`view` rebuilds the aggregated graph for the current
scales, reconciles the persistent dynamic layout with it (smooth
transitions) and returns a :class:`~repro.core.view.TopologyView`.
"""

from __future__ import annotations

import json
import math
import pathlib
from typing import Iterable, Iterator, Sequence

from repro.core.aggengine import AggregationEngine, SharedTraceData
from repro.core.hierarchy import GroupingState, Path
from repro.core.layout.engine import DynamicLayout
from repro.core.layout.forces import LayoutParams
from repro.core.layout.seeding import radial_seeds
from repro.core.mapping import VisualMapping
from repro.core.scaling import ScaleSet
from repro.core.timeslice import TimeSlice, animation_frames
from repro.core.view import TopologyView
from repro.core.visgraph import VisGraph, build_visgraph
from repro.errors import AggregationError, HierarchyError, ReproError
from repro.trace.trace import Trace

__all__ = ["AnalysisSession"]


class AnalysisSession:
    """Interactive, exploratory analysis of one trace.

    Parameters
    ----------
    trace:
        The trace under analysis.
    mapping:
        Metric-to-shape mapping; defaults to the paper's (squares for
        hosts, diamonds for links).
    layout_params:
        Initial charge/spring/damping values.
    layout_workers:
        Barnes-Hut process count: 1 (default) lays out in this
        process, a power of two above 1 splits the repulsion across
        that many worker processes
        (:class:`~repro.core.layout.ShardedBarnesHutLayout`, the same
        positions bit for bit).  See
        :func:`~repro.core.layout.make_layout`.
    seed:
        Layout determinism seed.
    shared:
        A :class:`~repro.core.aggengine.SharedTraceData` holding the
        trace's immutable structures (hierarchy, signal banks, unit
        structures, layout seeds).  The multi-session analysis server
        (:mod:`repro.server`) passes one instance to every session so
        the trace is loaded once; ``None`` (the default) builds a
        private one — single-user behavior is unchanged.
    result_cache:
        Optional process-wide aggregation result cache shared across
        sessions (see :class:`repro.server.cache.SharedResultCache`).
    session_id:
        Identity reported to *result_cache* so cross-session cache
        hits are attributable per session.
    """

    def __init__(
        self,
        trace: Trace,
        mapping: VisualMapping | None = None,
        layout_params: LayoutParams | None = None,
        seed: int = 0,
        shared: SharedTraceData | None = None,
        result_cache=None,
        session_id: str | None = None,
        layout_workers: int = 1,
    ) -> None:
        self.trace = trace
        self._shared = shared
        self.session_id = session_id
        self._aggregator = AggregationEngine(
            trace,
            shared=shared,
            result_cache=result_cache,
            cache_owner=session_id,
        )
        self.hierarchy = self._aggregator.shared.hierarchy
        self.grouping = GroupingState(self.hierarchy)
        self.mapping = mapping if mapping is not None else VisualMapping.paper_default()
        self.scales = ScaleSet()
        self.dynamic = DynamicLayout(
            layout_params, seed, workers=layout_workers
        )
        start, end = trace.span()
        self._tslice = TimeSlice(start, end)

    # ------------------------------------------------------------------
    # Time navigation
    # ------------------------------------------------------------------
    @property
    def time_slice(self) -> TimeSlice:
        """The currently selected time slice."""
        return self._tslice

    def set_time_slice(self, start: float, end: float) -> None:
        """Place the two time cursors (Fig. 2)."""
        self._tslice = TimeSlice(start, end)

    def shift_time(self, delta: float) -> None:
        """Slide the current slice by *delta* seconds."""
        self._tslice = self._tslice.shift(delta)

    def animate(
        self,
        width: float,
        start: float | None = None,
        end: float | None = None,
        step: float | None = None,
        settle_steps: int = 30,
    ) -> Iterator[TopologyView]:
        """Yield one view per sliding time slice (the Fig. 9 animation).

        The graph structure is constant across frames (only values
        change), so the layout barely moves between frames — each frame
        relaxes for at most *settle_steps* steps.
        """
        span_start, span_end = self.trace.span()
        frames = animation_frames(
            span_start if start is None else start,
            span_end if end is None else end,
            width,
            step,
        )
        for frame in frames:
            self._tslice = frame
            yield self.view(settle_steps=settle_steps)

    # ------------------------------------------------------------------
    # Spatial aggregation
    # ------------------------------------------------------------------
    def aggregate(self, path: Path | Iterable[str]) -> None:
        """Collapse the group at *path* into per-kind aggregates."""
        self.grouping.collapse(tuple(path))

    def disaggregate(self, path: Path | Iterable[str]) -> None:
        """Expand the group at *path* back into its members."""
        self.grouping.expand(tuple(path))

    def aggregate_depth(self, depth: int) -> None:
        """Collapse every group at hierarchy *depth* (Fig. 8 levels).

        Clears previously collapsed groups first so the view shows
        exactly one level.
        """
        self.grouping.expand_all()
        self.grouping.collapse_depth(depth)

    def disaggregate_all(self) -> None:
        """Back to the fully detailed view."""
        self.grouping.expand_all()

    # ------------------------------------------------------------------
    # Appearance and layout controls
    # ------------------------------------------------------------------
    def set_mapping(self, mapping: VisualMapping) -> None:
        """Swap the metric-to-shape mapping mid-analysis (Section 3.1)."""
        self.mapping = mapping

    def set_size_slider(self, kind: str, position: float) -> None:
        """Move the per-kind size slider (Fig. 4 scheme C)."""
        self.scales.set_slider(kind, position)

    def set_layout_params(self, **changes) -> None:
        """Adjust charge/spring/damping/theta (the Fig. 5 sliders)."""
        self.dynamic.set_params(self.dynamic.params.with_(**changes))

    def drag(self, key: str, position: tuple[float, float]) -> None:
        """Move a node by hand; neighbours follow on the next settle."""
        self.dynamic.drag(key, position)

    def pin(self, key: str, pinned: bool = True) -> None:
        """Freeze a node where it stands."""
        self.dynamic.pin(key, pinned)

    def metric_names(self) -> list[str]:
        """Every metric this session can aggregate and serve, sorted.

        Exactly the trace's metric set — which, for traces emitted by
        :meth:`repro.obs.latency.LatencyAttribution.to_trace`, includes
        the derived ``caused_latency`` / ``queue_slack`` / ``msg_count``
        signals alongside ``capacity`` / ``usage``.  The server's
        ``hello`` and ``view`` ops list and validate against this
        surface, so derived metrics are served with zero protocol
        change.
        """
        return self.trace.metric_names()

    @property
    def aggregation_stats(self) -> dict:
        """Counters of the aggregation engine (cache hits, delta vs
        full integrations) — the aggregation analogue of
        :attr:`DynamicLayout.stats`."""
        return dict(self._aggregator.stats)

    # ------------------------------------------------------------------
    # Session persistence
    # ------------------------------------------------------------------
    def save_state(self, path: "str | pathlib.Path") -> pathlib.Path:
        """Persist the analysis state to a JSON file.

        Saved: the time slice, the collapsed groups, the size sliders,
        the layout parameters and the current node positions — enough
        to resume an exploration where it stopped (the trace itself is
        not embedded; reload it separately).
        """
        state = {
            "version": 1,
            "time_slice": [self._tslice.start, self._tslice.end],
            "collapsed": [list(p) for p in sorted(self.grouping.collapsed)],
            "sliders": {
                kind: self.scales.slider(kind)
                for kind in self.scales._sliders  # noqa: SLF001 - own state
            },
            "layout_params": {
                "charge": self.dynamic.params.charge,
                "spring": self.dynamic.params.spring,
                "spring_length": self.dynamic.params.spring_length,
                "damping": self.dynamic.params.damping,
                "theta": self.dynamic.params.theta,
            },
            "positions": {
                key: list(pos) for key, pos in self.dynamic.positions().items()
            },
        }
        path = pathlib.Path(path)
        path.write_text(json.dumps(state, indent=1, sort_keys=True))
        return path

    def load_state(self, path: "str | pathlib.Path") -> None:
        """Restore a state written by :meth:`save_state`.

        The whole file is checked before anything is applied: a file
        that is not JSON, lacks the time slice or holds a malformed
        field raises :class:`~repro.errors.AggregationError` naming the
        field and leaves the session as it was.  Groups and positions
        referring to entities absent from the current trace are skipped
        silently (traces evolve).
        """
        tslice, collapsed, sliders, params, positions = self._read_state(path)
        self._tslice = tslice
        self.grouping.expand_all()
        for group in collapsed:
            try:
                self.grouping.collapse(group)
            except HierarchyError:
                continue
        for kind, position in sliders.items():
            self.scales.set_slider(kind, position)
        self.dynamic.set_params(params)
        # Rebuild the current view's layout, then pin down saved spots.
        self.view(settle=False)
        for key, position in positions.items():
            if key in self.dynamic.layout:
                self.dynamic.drag(key, position)

    def _read_state(self, path: "str | pathlib.Path") -> tuple:
        """The checked fields of the state file at *path*: the time
        slice, the collapsed group paths, the sliders, the layout
        parameters and the node positions."""
        try:
            state = json.loads(pathlib.Path(path).read_text())
        except ValueError as error:
            raise AggregationError(
                f"session state is not JSON: {error}"
            ) from None
        version = state.get("version") if isinstance(state, dict) else None
        if version != 1:
            raise AggregationError(
                f"unsupported session state version {version!r}"
            )

        def field(name: str, kind: type, parse):
            value = state.get(name, kind())
            try:
                if not isinstance(value, kind):
                    raise ValueError(f"{value!r} is not a {kind.__name__}")
                return parse(value)
            except (TypeError, ValueError, ReproError) as error:
                raise AggregationError(
                    f"session state field {name!r}: {error}"
                ) from None

        return (
            field("time_slice", list, lambda v: TimeSlice(*_numbers(v, 2))),
            field("collapsed", list, lambda v: [_path(group) for group in v]),
            field("sliders", dict, lambda v: {
                kind: _fraction(position) for kind, position in v.items()
            }),
            field("layout_params", dict,
                  lambda v: self.dynamic.params.with_(**v)),
            field("positions", dict, lambda v: {
                key: _numbers(xy, 2) for key, xy in v.items()
            }),
        )

    # ------------------------------------------------------------------
    # View production
    # ------------------------------------------------------------------
    def view(
        self,
        settle: bool = True,
        settle_steps: int | None = None,
        metrics: Sequence[str] | None = None,
    ) -> TopologyView:
        """Build the view for the current time slice and grouping."""
        aggregated = self._aggregator.view(
            self.grouping, self._tslice, metrics=metrics
        )
        if not aggregated.units:
            raise AggregationError("the trace has no entities to display")
        graph = build_visgraph(aggregated, self.mapping, self.scales)
        self.dynamic.sync(graph, self._seeds)
        if settle:
            self.dynamic.settle(max_steps=settle_steps)
        return TopologyView(
            graph=graph,
            positions=self.dynamic.positions(),
            tslice=self._tslice,
            aggregated=aggregated,
        )

    def _seeds(self, graph: VisGraph, spring_length: float):
        """Radial seeds of *graph*, asked for by the layout only when a
        view adds a node: the shared memo's, or a private call."""
        if self._shared is not None:
            return self._shared.layout_seeds(
                self.grouping.state_key, graph, spring_length
            )
        return radial_seeds(self.hierarchy, graph, spring_length=spring_length)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release layout kernel resources (the sharded worker pool).

        Idempotent; only a session with ``layout_workers`` above 1
        holds anything worth releasing, so plain sessions need not
        bother.
        """
        self.dynamic.close()

    def __enter__(self) -> "AnalysisSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _numbers(value, n: int) -> tuple[float, ...]:
    """*value*, a list of *n* finite JSON numbers, as floats."""
    if not (isinstance(value, list) and len(value) == n and all(
        type(v) in (int, float) and math.isfinite(v) for v in value
    )):
        raise ValueError(f"{value!r} is not a list of {n} finite numbers")
    return tuple(map(float, value))


def _fraction(value) -> float:
    """A slider position: a number in ``[0, 1]``."""
    (position,) = _numbers([value], 1)
    if not 0.0 <= position <= 1.0:
        raise ValueError(f"slider position {position} is not in [0, 1]")
    return position


def _path(value) -> Path:
    """A group path: a list of names."""
    if not isinstance(value, list) or not all(
        isinstance(part, str) for part in value
    ):
        raise ValueError(f"group path {value!r} is not a list of names")
    return tuple(value)
