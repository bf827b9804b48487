"""Tests for the SVG/ASCII renderers and color utilities."""

import io

import pytest

from repro.core import AnalysisSession, AsciiRenderer, SvgRenderer, render_ascii, render_svg
from repro.core.render.colors import (
    category_palette,
    darken,
    lighten,
    mix,
    parse_hex,
    to_hex,
    utilization_color,
)
from repro.errors import RenderError
from repro.trace.synthetic import figure1_trace, figure3_trace


@pytest.fixture()
def view():
    session = AnalysisSession(figure1_trace(), seed=1)
    return session.view()


class TestColors:
    def test_parse_and_format_roundtrip(self):
        assert to_hex(parse_hex("#4878a8")) == "#4878a8"
        assert parse_hex("#fff") == (255, 255, 255)

    def test_parse_errors(self):
        for bad in ("4878a8", "#12345", "#gggggg"):
            with pytest.raises(RenderError):
                parse_hex(bad)

    def test_mix_endpoints(self):
        assert mix("#000000", "#ffffff", 0.0) == "#000000"
        assert mix("#000000", "#ffffff", 1.0) == "#ffffff"
        assert mix("#000000", "#ffffff", 0.5) == "#808080"

    def test_mix_clamps_t(self):
        assert mix("#000000", "#ffffff", 5.0) == "#ffffff"

    def test_lighten_darken(self):
        assert lighten("#000000", 1.0) == "#ffffff"
        assert darken("#ffffff", 1.0) == "#000000"

    def test_utilization_ramp_monotone_red(self):
        low = parse_hex(utilization_color(0.0))
        mid = parse_hex(utilization_color(0.5))
        high = parse_hex(utilization_color(1.0))
        assert low[1] > low[0]  # green dominates when idle
        assert high[0] > high[1]  # red dominates when saturated
        assert mid[0] > low[0]

    def test_category_palette_stable(self):
        p1 = category_palette(["b", "a"])
        p2 = category_palette(["a", "b"])
        assert p1 == p2
        assert p1["a"] != p1["b"]


class TestSvgRenderer:
    def test_produces_valid_svg_skeleton(self, view):
        markup = SvgRenderer().render(view, title="fig")
        assert markup.startswith("<svg")
        assert markup.endswith("</svg>")
        assert "fig" in markup

    def test_all_shapes_present(self, view):
        markup = SvgRenderer().render(view)
        assert "<rect" in markup  # host squares
        assert "<polygon" in markup  # link diamond
        assert "<line" in markup  # edges

    def test_fill_fraction_drawn(self, view):
        # HostA has ~53% utilization: inner fill rect exists.
        markup = SvgRenderer().render(view)
        assert markup.count("<rect") >= 3  # background + 2 outlines + fills

    def test_labels_toggle(self, view):
        without = SvgRenderer(show_labels=False).render(view)
        with_labels = SvgRenderer(show_labels=True).render(view)
        # Tooltips always carry the name; visible <text> labels toggle.
        assert ">HostA</text>" not in without
        assert ">HostA</text>" in with_labels

    def test_heat_fill_changes_colors(self, view):
        plain = SvgRenderer().render(view)
        heat = SvgRenderer(heat_fill=True).render(view)
        assert plain != heat

    def test_bad_canvas_rejected(self):
        with pytest.raises(RenderError):
            SvgRenderer(width=0)

    def test_render_to_file(self, view, tmp_path):
        path = SvgRenderer().render_to_file(view, tmp_path / "out.svg")
        assert path.read_text().startswith("<svg")

    def test_streamed_file_is_the_rendered_string(self, view, tmp_path):
        """render_to_file writes the parts as they are generated; the
        file holds exactly the string render() returns."""
        renderer = SvgRenderer(show_labels=True, legend=True)
        path = renderer.render_to_file(view, tmp_path / "out.svg", title="t")
        assert path.read_bytes() == renderer.render(view, "t").encode("utf-8")
        assert renderer.render(view, "t", out=io.StringIO()) == ""

    def test_render_svg_shortcut(self, view, tmp_path):
        target = tmp_path / "x.svg"
        markup = render_svg(view, target, title="t", width=300, height=200)
        assert target.exists()
        assert 'width="300"' in markup

    def test_aggregated_view_renders(self):
        session = AnalysisSession(figure3_trace(), seed=2)
        session.aggregate(("GroupB", "GroupA"))
        markup = render_svg(session.view())
        assert "<polygon" in markup

    def test_escaping_of_labels(self):
        from repro.trace import TraceBuilder, CAPACITY

        b = TraceBuilder()
        b.declare_entity("a<b", "host", ("g", "a<b"))
        b.set_constant("a<b", CAPACITY, 1.0)
        b.set_meta("end_time", 1.0)
        session = AnalysisSession(b.build())
        markup = SvgRenderer(show_labels=True).render(session.view())
        assert "a<b" not in markup.replace("&lt;", "")
        assert "a&lt;b" in markup


class TestAsciiRenderer:
    def test_grid_dimensions(self, view):
        out = AsciiRenderer(columns=40, rows=10, legend=False).render(view)
        lines = out.splitlines()
        # Trailing blank rows are stripped by the join; never more than
        # the grid height, never wider than the grid.
        assert 0 < len(lines) <= 10
        assert all(len(line) <= 40 for line in lines)

    def test_glyphs_present(self, view):
        out = render_ascii(view, legend=False)
        assert "#" in out  # hosts
        assert "*" in out  # link

    def test_legend_lists_nodes(self, view):
        out = render_ascii(view)
        assert "HostA [host]" in out
        assert "fill=" in out
        assert "slice [0, 12]" in out

    def test_aggregate_uses_label_initial(self):
        session = AnalysisSession(figure3_trace(), seed=3)
        session.aggregate(("GroupB",))
        out = render_ascii(session.view(), legend=False)
        assert "G" in out

    def test_too_small_grid_rejected(self):
        with pytest.raises(RenderError):
            AsciiRenderer(columns=2, rows=2)


class TestLegend:
    def test_legend_lists_kinds_and_peaks(self, view):
        markup = SvgRenderer(legend=True).render(view)
        assert "host (max" in markup
        assert "link (max 10000)" in markup

    def test_legend_off_by_default(self, view):
        markup = SvgRenderer().render(view)
        assert "(max" not in markup
