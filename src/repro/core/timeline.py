"""Behavioral (Gantt-chart) timeline views.

The paper's related-work baseline: "the best well-known and intuitive
example of a behavioral representation is the timeline view, derived
from Gantt-charts [39]. It lists all the observed entities ... in the
vertical axis.  Their behavior is represented along time in the
horizontal axis: rectangles represent application states, while links
represent communications."

This module implements that classical view over the same traces the
topology view consumes: process-state point events (kind ``"state"``,
produced by :class:`~repro.simulation.monitors.UsageMonitor` with
``record_states=True``) become state spans; message events become
communication arrows.  Having both views in one library makes the
paper's comparison concrete — the timeline shows event causality, and
knows nothing about the network topology (see the ``topology_blind``
property).

Per-message arrows cannot scale (*Scalable Representations of
Communication in Gantt Charts*, PAPERS.md): a 10k-message trace means
10k ``<line>`` elements.  :meth:`Timeline.bands` therefore aggregates
the arrows into per-time-slice **communication bands** per source row
group and direction — message count as thickness, volume as opacity —
and :meth:`Timeline.render_svg` switches to them automatically above a
message-count threshold, bounding the SVG element count by
``O(groups x slices)`` no matter how many messages the trace holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.constants import AUTO_BAND_THRESHOLD
from repro.core.render.colors import category_palette
from repro.errors import RenderError, TraceError
from repro.trace.trace import Trace

__all__ = ["StateSpan", "CommArrow", "CommBand", "Timeline"]


@dataclass(frozen=True)
class StateSpan:
    """One rectangle of the Gantt chart: *row* is in *state* over [start, end)."""

    row: str
    state: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        """Length of the state span in trace time."""
        return self.end - self.start


@dataclass(frozen=True)
class CommArrow:
    """One communication drawn between two rows at a delivery time."""

    src: str
    dst: str
    sent_at: float
    delivered_at: float
    size: float


@dataclass(frozen=True)
class CommBand:
    """One aggregated communication band (*Scalable Representations of
    Communication in Gantt Charts*): every message sent from rows of
    *group* during time slice ``[t0, t1)`` toward *direction* (+1 =
    rows drawn lower, -1 = rows drawn higher), merged into one drawable
    element.  ``mean_src`` / ``mean_dst`` are the count-weighted mean
    source and destination row indices the band spans between."""

    group: str
    direction: int
    slice_index: int
    t0: float
    t1: float
    count: int
    volume: float
    mean_src: float
    mean_dst: float


@dataclass
class Timeline:
    """A behavioral view: rows of state spans plus communication arrows.

    ``groups`` maps each row to its row-group label (the host when rows
    are processes; the row itself otherwise) — the grouping
    :meth:`bands` aggregates communication between.
    """

    rows: list[str]
    spans: dict[str, list[StateSpan]]
    arrows: list[CommArrow] = field(default_factory=list)
    start: float = 0.0
    end: float = 0.0
    groups: dict[str, str] = field(default_factory=dict)

    #: The structural limitation the paper builds on: a timeline carries
    #: no topology information whatsoever.
    topology_blind = True

    @classmethod
    def from_trace(cls, trace: Trace, row_by: str = "process") -> "Timeline":
        """Build the timeline from a trace's state/message point events.

        Parameters
        ----------
        row_by:
            ``"process"`` — one row per traced process (classic Gantt);
            ``"host"`` — process states folded onto their host's row.
        """
        if row_by not in ("process", "host"):
            raise TraceError(f"unknown row_by {row_by!r}")
        state_events = trace.events_of_kind("state")
        if not state_events:
            raise TraceError(
                "trace has no 'state' events; run the simulation with "
                "UsageMonitor(record_states=True)"
            )
        start, end = trace.span()
        open_states: dict[str, tuple[str, float]] = {}
        spans: dict[str, list[StateSpan]] = {}
        host_of: dict[str, str] = {}
        for event in state_events:
            process = event.source
            host_of[process] = event.target
            row = event.target if row_by == "host" else process
            key = process  # states tracked per process even if folded
            if key in open_states:
                state, since = open_states[key]
                if event.time > since and state != "end":
                    spans.setdefault(row, []).append(
                        StateSpan(row, state, since, event.time)
                    )
            open_states[key] = (event.payload["state"], event.time)
        for process, (state, since) in open_states.items():
            if state != "end" and end > since:
                row = host_of[process] if row_by == "host" else process
                spans.setdefault(row, []).append(
                    StateSpan(row, state, since, end)
                )
        # Message events carry host endpoints; when rows are processes,
        # resolve a host to its process where that is unambiguous (one
        # traced process per host — the common deployment).
        processes_on: dict[str, list[str]] = {}
        for process, host in host_of.items():
            processes_on.setdefault(host, []).append(process)

        def row_of(host: str) -> str:
            if row_by == "host":
                return host
            candidates = processes_on.get(host, [])
            return candidates[0] if len(candidates) == 1 else host

        arrows = [
            CommArrow(
                src=row_of(m.source),
                dst=row_of(m.target),
                sent_at=float(m.payload.get("sent_at", m.time)),
                delivered_at=m.time,
                size=float(m.payload.get("size", 0.0)),
            )
            for m in trace.events_of_kind("message")
        ]
        rows = sorted(spans)
        groups = {row: host_of.get(row, row) for row in rows}
        return cls(
            rows=rows, spans=spans, arrows=arrows, start=start, end=end,
            groups=groups,
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def spans_of(self, row: str) -> list[StateSpan]:
        """The state spans of one row."""
        try:
            return self.spans[row]
        except KeyError:
            raise TraceError(f"unknown timeline row {row!r}") from None

    def time_in_state(self, row: str, state: str) -> float:
        """Total time *row* spent in *state*."""
        return sum(s.duration for s in self.spans_of(row) if s.state == state)

    def states(self) -> list[str]:
        """Every state label present, sorted."""
        return sorted(
            {s.state for spans in self.spans.values() for s in spans}
        )

    def busiest(self, state: str = "compute", n: int = 5) -> list[tuple[str, float]]:
        """Rows that spent the most time in *state* (slower processes and
        late senders are what timelines are good at spotting)."""
        totals = [
            (row, self.time_in_state(row, state)) for row in self.rows
        ]
        totals.sort(key=lambda pair: -pair[1])
        return totals[:n]

    # ------------------------------------------------------------------
    # Communication aggregation
    # ------------------------------------------------------------------
    def bands(self, slices: int = 64) -> list[CommBand]:
        """Aggregate the arrows into per-slice communication bands.

        The time span is cut into *slices* equal slices; within each,
        every cross-row message is merged into one band per ``(source
        row group, vertical direction)`` — at most ``2 x groups x
        slices`` bands in total, however many messages the trace holds.
        Same-row messages (self-reports) carry no vertical information
        and are skipped; arrows are assigned to the slice containing
        their send time, clamped into the timeline span.
        """
        if slices < 1:
            raise RenderError(f"bands needs slices >= 1, got {slices}")
        span = max(self.end - self.start, 1e-9)
        width = span / slices
        index_of = {row: i for i, row in enumerate(self.rows)}
        acc: dict[tuple[str, int, int], list] = {}
        for arrow in self.arrows:
            src = index_of.get(arrow.src)
            dst = index_of.get(arrow.dst)
            if src is None or dst is None or src == dst:
                continue
            t = min(max(arrow.sent_at, self.start), self.end)
            i = min(int((t - self.start) / width), slices - 1)
            group = self.groups.get(arrow.src, arrow.src)
            direction = 1 if dst > src else -1
            # count, volume, sum of src rows, sum of dst rows
            row = acc.setdefault((group, direction, i), [0, 0.0, 0.0, 0.0])
            row[0] += 1
            row[1] += arrow.size
            row[2] += src
            row[3] += dst
        return [
            CommBand(
                group=group,
                direction=direction,
                slice_index=i,
                t0=self.start + i * width,
                t1=self.start + (i + 1) * width,
                count=count,
                volume=volume,
                mean_src=src_sum / count,
                mean_dst=dst_sum / count,
            )
            for (group, direction, i), (count, volume, src_sum, dst_sum)
            in sorted(acc.items())
        ]

    def _clip_arrow(
        self, arrow: CommArrow
    ) -> tuple[tuple[float, float], tuple[float, float]] | None:
        """Clip one arrow's time endpoints to ``[start, end]``.

        Returns the clipped ``((t, row_fraction_src), (t, ...))``-style
        endpoint pair as ``((t0, s0), (t1, s1))`` where ``s`` is the
        interpolation parameter along the original arrow (0 at the
        send point, 1 at the delivery point), or ``None`` when the
        arrow lies entirely outside the window.
        """
        t0, t1 = arrow.sent_at, arrow.delivered_at
        if max(t0, t1) < self.start or min(t0, t1) > self.end:
            return None
        if t1 == t0:
            return ((t0, 0.0), (t1, 1.0))
        s_lo = (self.start - t0) / (t1 - t0)
        s_hi = (self.end - t0) / (t1 - t0)
        s0 = min(max(min(s_lo, s_hi), 0.0), 1.0)
        s1 = min(max(max(s_lo, s_hi), 0.0), 1.0)
        return ((t0 + s0 * (t1 - t0), s0), (t0 + s1 * (t1 - t0), s1))

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render_svg(
        self,
        path: str | Path | None = None,
        width: int = 900,
        row_height: int = 18,
        show_arrows: bool = True,
        mode: str = "auto",
        max_arrows: int = AUTO_BAND_THRESHOLD,
        slices: int = 64,
    ) -> str:
        """A Gantt-chart SVG; optionally written to *path*.

        Parameters
        ----------
        mode:
            How the communication layer is drawn: ``"arrows"`` (one
            ``<line>`` per message, clipped to the rendered window),
            ``"bands"`` (the aggregated :meth:`bands` — bounded element
            count) or ``"auto"`` (default: bands once the trace holds
            more than *max_arrows* messages).
        max_arrows:
            The ``"auto"`` switch-over threshold.
        slices:
            Time slices for ``"bands"``.
        """
        if width <= 0 or row_height <= 0:
            raise RenderError(f"bad timeline geometry {width}x{row_height}")
        if mode not in ("auto", "arrows", "bands"):
            raise RenderError(f"unknown timeline render mode {mode!r}")
        span = max(self.end - self.start, 1e-9)
        label_pad = 150
        plot_width = width - label_pad
        height = row_height * (len(self.rows) + 1)
        palette = category_palette(self.states())
        y_of = {row: (i + 0.5) * row_height for i, row in enumerate(self.rows)}

        def x_of(t: float) -> float:
            return label_pad + (t - self.start) / span * plot_width

        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}">',
            '<rect width="100%" height="100%" fill="#ffffff"/>',
        ]
        for row in self.rows:
            y = y_of[row]
            parts.append(
                f'<text x="4" y="{y + 4:.1f}" font-family="monospace" '
                f'font-size="10">{row}</text>'
            )
            for s in self.spans[row]:
                parts.append(
                    f'<rect x="{x_of(s.start):.1f}" '
                    f'y="{y - row_height * 0.35:.1f}" '
                    f'width="{max(x_of(s.end) - x_of(s.start), 0.5):.1f}" '
                    f'height="{row_height * 0.7:.1f}" '
                    f'fill="{palette[s.state]}">'
                    f"<title>{row}: {s.state} "
                    f"[{s.start:.3g}, {s.end:.3g}]</title></rect>"
                )
        if show_arrows:
            use_bands = mode == "bands" or (
                mode == "auto" and len(self.arrows) > max_arrows
            )
            if use_bands:
                parts.extend(
                    self._band_elements(
                        self.bands(slices=slices), x_of, row_height
                    )
                )
            else:
                for arrow in self.arrows:
                    if arrow.src not in y_of or arrow.dst not in y_of:
                        continue
                    clipped = self._clip_arrow(arrow)
                    if clipped is None:
                        continue
                    (ta, sa), (tb, sb) = clipped
                    ya = y_of[arrow.src]
                    yb = y_of[arrow.dst]
                    parts.append(
                        f'<line x1="{x_of(ta):.1f}" '
                        f'y1="{ya + sa * (yb - ya):.1f}" '
                        f'x2="{x_of(tb):.1f}" '
                        f'y2="{ya + sb * (yb - ya):.1f}" '
                        'stroke="#333333" stroke-width="0.7"/>'
                    )
        parts.append("</svg>")
        markup = "\n".join(parts)
        if path is not None:
            Path(path).write_text(markup, encoding="utf-8")
        return markup

    def _band_elements(
        self, bands: list[CommBand], x_of, row_height: float
    ) -> list[str]:
        """The ``<line>`` markup of the aggregated communication bands.

        One element per band: thickness grows with the log of the
        message count, opacity with the band's share of the heaviest
        band's byte volume — count and volume survive aggregation as
        visual variables, as the scalable-Gantt representation
        prescribes.
        """
        import math

        peak_volume = max((b.volume for b in bands), default=0.0)
        elements = []
        for band in bands:
            y1 = (band.mean_src + 0.5) * row_height
            y2 = (band.mean_dst + 0.5) * row_height
            thickness = 1.0 + math.log2(1.0 + band.count)
            opacity = 0.25 + (
                0.7 * band.volume / peak_volume if peak_volume > 0 else 0.0
            )
            elements.append(
                f'<line x1="{x_of(band.t0):.1f}" y1="{y1:.1f}" '
                f'x2="{x_of(band.t1):.1f}" y2="{y2:.1f}" '
                f'stroke="#335" stroke-width="{thickness:.2f}" '
                f'stroke-opacity="{opacity:.2f}">'
                f"<title>{band.group}: {band.count} msgs, "
                f"{band.volume:.3g} B [{band.t0:.3g}, {band.t1:.3g}]"
                f"</title></line>"
            )
        return elements

    def render_ascii(self, columns: int = 80) -> str:
        """A textual Gantt chart: one line per row, one char per bin."""
        if columns < 20:
            raise RenderError(f"timeline needs >= 20 columns, got {columns}")
        span = max(self.end - self.start, 1e-9)
        label_width = max((len(r) for r in self.rows), default=0) + 1
        bins = columns - label_width
        glyphs = {"compute": "#", "send": ">", "wait": ".", "sleep": "z"}
        lines = []
        for row in self.rows:
            cells = [" "] * bins
            for s in self.spans[row]:
                lo = int((s.start - self.start) / span * (bins - 1))
                hi = int((s.end - self.start) / span * (bins - 1))
                glyph = glyphs.get(s.state, "?")
                for i in range(lo, hi + 1):
                    cells[i] = glyph
            lines.append(f"{row:<{label_width}}" + "".join(cells))
        legend = "  ".join(f"{g}={s}" for s, g in sorted(
            (s, glyphs.get(s, "?")) for s in self.states()
        ))
        return "\n".join(lines) + f"\n[{legend}]"
