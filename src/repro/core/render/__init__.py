"""Headless renderers: SVG files and terminal output."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".ascii": ("AsciiRenderer", "render_ascii"),
    ".html_export": ("export_animation_html",),
    ".colors": (
        "category_palette", "darken", "lighten", "mix", "parse_hex", "to_hex",
        "utilization_color",
    ),
    ".svg": ("SvgRenderer", "render_svg"),
})

__all__ = [
    "AsciiRenderer",
    "SvgRenderer",
    "category_palette",
    "darken",
    "export_animation_html",
    "lighten",
    "mix",
    "parse_hex",
    "render_ascii",
    "render_svg",
    "to_hex",
    "utilization_color",
]
