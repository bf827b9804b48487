"""Dynamic force-directed graph layout (Sections 3.3 and 4.2)."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".barneshut": ("BarnesHutLayout",),
    ".base": ("ForceLayout",),
    ".engine": ("ALGORITHMS", "DynamicLayout", "make_layout"),
    ".forces": ("LayoutParams",),
    ".naive": ("NaiveLayout",),
    ".quadtree": ("ArrayQuadTree",),
    ".seeding": ("radial_seeds",),
    ".sharded": ("ShardedBarnesHutLayout", "validate_workers"),
})

__all__ = [
    "ALGORITHMS",
    "ArrayQuadTree",
    "BarnesHutLayout",
    "DynamicLayout",
    "ForceLayout",
    "LayoutParams",
    "NaiveLayout",
    "ShardedBarnesHutLayout",
    "make_layout",
    "radial_seeds",
    "validate_workers",
]
