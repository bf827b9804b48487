"""The paper's contribution: scalable topology-based visualization.

Multi-scale space/time data aggregation (Section 3.2) combined with a
dynamic, interactive force-directed graph layout (Sections 3.3/4.2),
driven through :class:`AnalysisSession`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".aggengine": ("AggregationEngine", "SharedTraceData", "SliceCache"),
    ".aggregation": (
        "AggregatedEdge", "AggregatedUnit", "AggregatedView", "aggregate_view",
    ),
    ".hierarchy": ("GroupingState", "Hierarchy"),
    ".layout": (
        "ArrayQuadTree", "BarnesHutLayout", "DynamicLayout", "ForceLayout",
        "LayoutParams", "NaiveLayout", "ShardedBarnesHutLayout", "make_layout",
    ),
    ".matrix": ("CommMatrix",),
    ".mapping": ("SHAPES", "NodeStyle", "ShapeRule", "VisualMapping"),
    ".render": (
        "AsciiRenderer", "SvgRenderer", "export_animation_html",
        "render_ascii", "render_svg",
    ),
    ".scaling": ("ScaleSet",),
    ".session": ("AnalysisSession",),
    ".timeline": ("CommArrow", "CommBand", "StateSpan", "Timeline"),
    ".timeslice": ("TimeSlice", "animation_frames"),
    ".treemap": ("Treemap", "TreemapCell", "squarify"),
    ".view": ("TopologyView",),
    ".visgraph": ("VisGraph", "VisNode", "build_visgraph"),
})

__all__ = [
    "SHAPES",
    "AggregatedEdge",
    "AggregatedUnit",
    "AggregationEngine",
    "SharedTraceData",
    "ArrayQuadTree",
    "AggregatedView",
    "AnalysisSession",
    "AsciiRenderer",
    "BarnesHutLayout",
    "DynamicLayout",
    "ForceLayout",
    "GroupingState",
    "Hierarchy",
    "LayoutParams",
    "NaiveLayout",
    "NodeStyle",
    "ScaleSet",
    "ShapeRule",
    "SliceCache",
    "SvgRenderer",
    "CommArrow",
    "CommBand",
    "CommMatrix",
    "StateSpan",
    "TimeSlice",
    "Timeline",
    "Treemap",
    "TreemapCell",
    "TopologyView",
    "VisGraph",
    "VisNode",
    "VisualMapping",
    "aggregate_view",
    "animation_frames",
    "build_visgraph",
    "export_animation_html",
    "ShardedBarnesHutLayout",
    "make_layout",
    "render_ascii",
    "render_svg",
    "squarify",
]
