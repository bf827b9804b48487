"""Headless SVG rendering of topology views.

The original VIVA is an interactive GUI; the reproduction renders every
"screenshot" of the paper as a standalone SVG string/file instead, which
is testable and diffable.  Visual conventions follow Section 3.1:
squares/diamonds/circles sized by the scaled metric, with a proportional
fill — squares fill bottom-up (like a gauge, Fig. 2), diamonds and
circles fill with an inner shape of proportional area.
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import IO, Iterator

from repro.core.render.colors import (
    category_palette,
    darken,
    lighten,
    utilization_color,
)
from repro.core.view import TopologyView
from repro.core.visgraph import VisNode
from repro.errors import RenderError
from repro.obs.spans import span

__all__ = ["SvgRenderer", "render_svg"]


class SvgRenderer:
    """Renders :class:`TopologyView` frames to SVG markup.

    Parameters
    ----------
    width, height:
        Output size in pixels; the view's bounds are fit inside.
    show_labels:
        Draw the node labels under each shape.
    heat_fill:
        When true, the fill color encodes the fill fraction on a
        green-to-red ramp (instead of the mapping's base color), making
        saturation pop — used for the NAS-DT link views.
    """

    def __init__(
        self,
        width: int = 800,
        height: int = 600,
        show_labels: bool = False,
        heat_fill: bool = False,
        background: str = "#ffffff",
        legend: bool = False,
    ) -> None:
        if width <= 0 or height <= 0:
            raise RenderError(f"bad canvas size {width}x{height}")
        self.width = width
        self.height = height
        self.show_labels = show_labels
        self.heat_fill = heat_fill
        self.background = background
        self.legend = legend

    # ------------------------------------------------------------------
    def render(
        self, view: TopologyView, title: str = "", out: IO[str] | None = None
    ) -> str:
        """The SVG document for *view*.

        With *out*, the document is written to that text stream part by
        part as it is generated, never held whole in memory, and the
        empty string is returned.
        """
        with span("render.svg"):
            parts = self._parts(view, title)
            if out is None:
                return "\n".join(parts)
            out.write(next(parts))
            for part in parts:
                out.write("\n")
                out.write(part)
            return ""

    def _parts(self, view: TopologyView, title: str) -> Iterator[str]:
        """The document's parts, to be joined by newlines."""
        min_x, min_y, max_x, max_y = view.bounds()
        span_x = max(max_x - min_x, 1e-9)
        span_y = max(max_y - min_y, 1e-9)
        scale = min(self.width / span_x, self.height / span_y)

        def project(x: float, y: float) -> tuple[float, float]:
            px = (x - min_x) * scale + (self.width - span_x * scale) / 2.0
            py = (y - min_y) * scale + (self.height - span_y * scale) / 2.0
            return px, py

        yield (
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{self.width}" height="{self.height}" '
            f'viewBox="0 0 {self.width} {self.height}">'
        )
        yield f'<rect width="100%" height="100%" fill="{self.background}"/>'
        if title:
            yield (
                f'<text x="{self.width / 2:.1f}" y="18" text-anchor="middle" '
                f'font-family="sans-serif" font-size="14">'
                f"{html.escape(title)}</text>"
            )
        for edge in view.edges:
            xa, ya = project(*view.position(edge.a))
            xb, yb = project(*view.position(edge.b))
            stroke = min(1.0 + 0.4 * (edge.multiplicity - 1), 4.0)
            yield (
                f'<line x1="{xa:.1f}" y1="{ya:.1f}" x2="{xb:.1f}" '
                f'y2="{yb:.1f}" stroke="#b0b0b0" '
                f'stroke-width="{stroke:.1f}"/>'
            )
        for node in view.nodes():
            x, y = project(*view.position(node.key))
            yield self._shape(node, x, y)
            if self.show_labels:
                yield (
                    f'<text x="{x:.1f}" y="{y + node.size_px / 2 + 12:.1f}" '
                    f'text-anchor="middle" font-family="sans-serif" '
                    f'font-size="9" fill="#444">'
                    f"{html.escape(node.label)}</text>"
                )
        if self.legend:
            yield self._legend(view)
        yield "</svg>"

    def _legend(self, view: TopologyView) -> str:
        """A per-kind key: shape glyph, kind name, biggest value.

        Makes the independent per-type scales of Section 4.1 explicit:
        the biggest object of each kind reads with its metric value.
        """
        kinds: dict[str, tuple[str, str, float]] = {}
        for node in view.nodes():
            shape, color, peak = kinds.get(node.kind, ("", "", 0.0))
            if node.size_value >= peak:
                kinds[node.kind] = (node.shape, node.color, node.size_value)
        rows = []
        y = 16.0
        for kind in sorted(kinds):
            shape, color, peak = kinds[kind]
            glyph = self._legend_glyph(shape, 12.0, y, color)
            rows.append(glyph)
            rows.append(
                f'<text x="26" y="{y + 4:.1f}" font-family="sans-serif" '
                f'font-size="10" fill="#333">{html.escape(kind)} '
                f"(max {peak:g})</text>"
            )
            y += 18.0
        return "<g>" + "".join(rows) + "</g>"

    @staticmethod
    def _legend_glyph(shape: str, x: float, y: float, color: str) -> str:
        size = 10.0
        if shape == "square":
            return (
                f'<rect x="{x - size / 2:.1f}" y="{y - size / 2:.1f}" '
                f'width="{size}" height="{size}" fill="{color}"/>'
            )
        if shape == "diamond":
            return (
                f'<polygon points="{SvgRenderer._diamond_points(x, y, size)}" '
                f'fill="{color}"/>'
            )
        return f'<circle cx="{x}" cy="{y}" r="{size / 2}" fill="{color}"/>'

    def render_to_file(
        self, view: TopologyView, path: str | Path, title: str = ""
    ) -> Path:
        """Render to *path*, streaming the parts as they are generated;
        returns the path."""
        path = Path(path)
        with open(path, "w", encoding="utf-8") as stream:
            self.render(view, title, out=stream)
        return path

    # ------------------------------------------------------------------
    def _shape(self, node: VisNode, x: float, y: float) -> str:
        side = max(node.size_px, 2.0)
        frac = node.fill_fraction
        if self.heat_fill and frac is not None:
            fill_color = utilization_color(frac)
        else:
            fill_color = node.color
        outline = darken(node.color, 0.35)
        empty = lighten(node.color, 0.85)
        tooltip = (
            f"<title>{html.escape(node.label)} ({node.kind}, "
            f"{node.weight} member(s))</title>"
        )
        if node.shape == "square":
            half = side / 2.0
            base = (
                f'<rect x="{x - half:.1f}" y="{y - half:.1f}" '
                f'width="{side:.1f}" height="{side:.1f}" '
                f'fill="{empty}" stroke="{outline}" stroke-width="1"/>'
            )
            inner = ""
            if node.fill_parts:
                # Composite fill: stacked bottom-up segments, one color
                # per metric (Section 6's graphical-object extension).
                palette = category_palette([m for m, _ in node.fill_parts])
                cursor = y + half
                for metric, fraction in node.fill_parts:
                    if fraction <= 0:
                        continue
                    fh = side * fraction
                    cursor -= fh
                    inner += (
                        f'<rect x="{x - half:.1f}" y="{cursor:.1f}" '
                        f'width="{side:.1f}" height="{fh:.1f}" '
                        f'fill="{palette[metric]}"/>'
                    )
            elif frac is not None and frac > 0:
                # Bottom-up proportional fill, the gauge of Fig. 2.
                fh = side * frac
                inner = (
                    f'<rect x="{x - half:.1f}" y="{y + half - fh:.1f}" '
                    f'width="{side:.1f}" height="{fh:.1f}" '
                    f'fill="{fill_color}"/>'
                )
            return f"<g>{tooltip}{base}{inner}</g>"
        if node.shape == "diamond":
            return self._polygon_shape(
                self._diamond_points, x, y, side, frac, fill_color, empty,
                outline, tooltip, node.fill_parts,
            )
        if node.shape == "circle":
            r = side / 2.0
            base = (
                f'<circle cx="{x:.1f}" cy="{y:.1f}" r="{r:.1f}" '
                f'fill="{empty}" stroke="{outline}" stroke-width="1"/>'
            )
            inner = ""
            if node.fill_parts:
                inner = self._concentric(
                    node.fill_parts,
                    lambda radius, color: (
                        f'<circle cx="{x:.1f}" cy="{y:.1f}" '
                        f'r="{radius:.1f}" fill="{color}"/>'
                    ),
                    r,
                )
            elif frac is not None and frac > 0:
                # Inner disc of proportional *area*.
                ri = r * (frac ** 0.5)
                inner = (
                    f'<circle cx="{x:.1f}" cy="{y:.1f}" r="{ri:.1f}" '
                    f'fill="{fill_color}"/>'
                )
            return f"<g>{tooltip}{base}{inner}</g>"
        raise RenderError(f"unsupported shape {node.shape!r}")

    @staticmethod
    def _concentric(fill_parts, draw, full_radius) -> str:
        """Concentric proportional-area rings, outermost part last in
        the stacking order so every segment stays visible."""
        palette = category_palette([m for m, _ in fill_parts])
        cumulative = []
        running = 0.0
        for metric, fraction in fill_parts:
            running += max(0.0, fraction)
            cumulative.append((metric, min(1.0, running)))
        markup = ""
        for metric, cum in reversed(cumulative):
            if cum <= 0:
                continue
            markup += draw(full_radius * cum ** 0.5, palette[metric])
        return markup

    @staticmethod
    def _diamond_points(x: float, y: float, side: float) -> str:
        half = side / 2.0
        return (
            f"{x:.1f},{y - half:.1f} {x + half:.1f},{y:.1f} "
            f"{x:.1f},{y + half:.1f} {x - half:.1f},{y:.1f}"
        )

    def _polygon_shape(
        self, points_fn, x, y, side, frac, fill_color, empty, outline, tooltip,
        fill_parts=(),
    ) -> str:
        base = (
            f'<polygon points="{points_fn(x, y, side)}" '
            f'fill="{empty}" stroke="{outline}" stroke-width="1"/>'
        )
        inner = ""
        if fill_parts:
            inner = self._concentric(
                fill_parts,
                lambda s, color: (
                    f'<polygon points="{points_fn(x, y, s)}" fill="{color}"/>'
                ),
                side,
            )
        elif frac is not None and frac > 0:
            # Inner diamond of proportional area -> sqrt scaling.
            inner = (
                f'<polygon points="{points_fn(x, y, side * frac ** 0.5)}" '
                f'fill="{fill_color}"/>'
            )
        return f"<g>{tooltip}{base}{inner}</g>"


def render_svg(
    view: TopologyView,
    path: str | Path | None = None,
    title: str = "",
    **renderer_options,
) -> str:
    """One-shot convenience: render *view*, optionally writing to *path*."""
    renderer = SvgRenderer(**renderer_options)
    markup = renderer.render(view, title)
    if path is not None:
        Path(path).write_text(markup, encoding="utf-8")
    return markup
