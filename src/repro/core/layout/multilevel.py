"""Multilevel layout seeding over the aggregation hierarchy.

*A Distributed Multilevel Force-directed Algorithm* (PAPERS.md) lays
large graphs out as coarsen → layout → interpolate → refine.  This
repository already owns the perfect coarsening: the trace's resource
hierarchy (grid → site → cluster → host), the same tree the
aggregation engine collapses views along.  So instead of a generic
graph-matching coarsener:

1. **coarsen** — project the target graph onto each hierarchy depth:
   the depth-*d* coarse node of a graph node is its members' path
   prefix of length *d*; coarse weights are member sums and coarse
   edges the deduplicated projections of the fine edges;
2. **layout** — relax the coarsest level (a handful of sites) with the
   existing array kernel from the hierarchical radial seeds;
3. **interpolate** — every node one level finer starts at its coarse
   parent's converged position plus a small deterministic jitter;
4. **refine** — a short relaxation at each level polishes the
   interpolated placement before it seeds the next one.

The payoff is twofold.  A million-host layout only ever runs a few
refine steps at full size instead of converging from scratch, and the
seeds are *by construction* consistent with the aggregated views: a
collapsed cluster node and its expanded members derive from the same
coarse position, which deepens the paper's aggregation-smoothness
story (Fig. 8) — expanding a group spills its members around the spot
the analyst was already looking at.

Each call counts into the ``layout.level`` stats namespace, times each
level's relaxation in a ``layout.mlevel`` span, and returns the
per-level detail alongside the seeds.
"""

from __future__ import annotations

import random

from repro.core.hierarchy import Hierarchy
from repro.core.layout.barneshut import BarnesHutLayout
from repro.core.layout.forces import LayoutParams
from repro.core.layout.seeding import radial_seeds
from repro.core.visgraph import VisGraph
from repro.errors import LayoutError
from repro.obs.registry import registry
from repro.obs.spans import span

__all__ = ["multilevel_seeds"]

#: Process-wide multilevel counters, folded into
#: ``registry.snapshot()`` under ``layout.level.*``.  Module-level so
#: they accumulate across calls (the registry only keeps weak
#: references to live groups).
LEVEL_STATS = registry.group(
    "layout.level",
    {"runs": 0, "levels": 0, "coarse_steps": 0, "refine_steps": 0},
)


def _prefix_of(hierarchy: Hierarchy, members: tuple[str, ...]) -> tuple:
    """The full hierarchy path shared by one graph node's members.

    For a plain entity this is its own path; for an aggregate it is the
    group path every member lives under (the longest common prefix).
    """
    paths = [hierarchy.path_of(m) for m in members if m in hierarchy]
    if not paths:
        return ()
    prefix = paths[0]
    for path in paths[1:]:
        limit = min(len(prefix), len(path))
        i = 0
        while i < limit and prefix[i] == path[i]:
            i += 1
        prefix = prefix[:i]
    return tuple(prefix)


def multilevel_seeds(
    hierarchy: Hierarchy,
    graph: VisGraph,
    params: LayoutParams | None = None,
    seed: int = 0,
    coarse_steps: int = 120,
    refine_steps: int = 15,
    tolerance: float = 0.5,
) -> tuple[dict[str, tuple[float, float]], list[dict]]:
    """Seed positions for *graph* via hierarchy-coarsened relaxation.

    Returns ``(seeds, levels)``: one ``(x, y)`` per graph node key, and
    one stats dict per level (coarsest first) with ``depth``, ``nodes``,
    ``edges`` and ``steps``.  The last level *is* the target graph —
    its refined positions are the seeds.  Every level relaxes on the
    single-process array kernel.
    """
    params = params or LayoutParams()
    if coarse_steps < 0 or refine_steps < 0:
        raise LayoutError(
            f"step counts must be >= 0, got coarse={coarse_steps} "
            f"refine={refine_steps}"
        )
    # The target partition: graph node -> its full hierarchy prefix.
    prefix: dict[str, tuple] = {
        node.key: _prefix_of(hierarchy, node.members) for node in graph
    }
    max_depth = max((len(p) for p in prefix.values()), default=0)
    rng = random.Random(seed ^ 0x9E3779B9)
    stats = LEVEL_STATS

    levels: list[dict] = []
    coarse_done = False
    parent_pos: dict[tuple, tuple[float, float]] = {}
    # Depth d < max_depth lays out coarse prefix graphs; the final pass
    # (d == max_depth) lays out the real graph keys.
    for depth in range(1, max_depth + 1):
        final = depth == max_depth
        # Graph node -> its name at this level and at the level above.
        def level_key(key: str, d: int = depth):
            p = prefix[key]
            if final and d == depth:
                return key
            return p[: min(d, len(p))]

        if final:
            nodes: dict = {n.key: float(max(1.0, n.weight)) for n in graph}
            edges = {
                (e.a, e.b) if e.a <= e.b else (e.b, e.a)
                for e in graph.edges
                if e.a != e.b
            }
        else:
            nodes = {}
            for node in graph:
                c = level_key(node.key)
                nodes[c] = nodes.get(c, 0.0) + float(max(1.0, node.weight))
            edges = set()
            for e in graph.edges:
                a, b = level_key(e.a), level_key(e.b)
                if a != b:
                    edges.add((a, b) if a <= b else (b, a))
        up = {
            level_key(node.key): prefix[node.key][: min(depth - 1,
                                                        len(prefix[node.key]))]
            for node in graph
        }
        layout = BarnesHutLayout(params, seed + depth)
        names = sorted(nodes, key=repr)
        if depth == 1:
            # Coarsest level: hierarchical radial arcs, the same
            # initial condition the flat path uses (Section 3.3).
            arcs = radial_seeds(
                hierarchy, graph, spring_length=params.spring_length
            )
            acc: dict = {}
            for node in graph:
                spot = arcs.get(node.key)
                if spot is not None:
                    acc.setdefault(level_key(node.key), []).append(spot)
            positions = []
            for name in names:
                spots = acc.get(name)
                if spots:
                    positions.append((
                        sum(s[0] for s in spots) / len(spots),
                        sum(s[1] for s in spots) / len(spots),
                    ))
                else:
                    positions.append(
                        (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
                    )
        else:
            # Interpolate: children fan out around their coarse parent
            # with a deterministic jitter so siblings do not stack.
            positions = []
            for name in names:
                px, py = parent_pos.get(up[name], (0.0, 0.0))
                positions.append((
                    px + rng.uniform(-1.0, 1.0) * params.spring_length / 4.0,
                    py + rng.uniform(-1.0, 1.0) * params.spring_length / 4.0,
                ))
        # The full coarse budget goes to the first level that actually
        # has something to untangle; a degenerate single-root level
        # (every path starts at "grid") should not consume it.
        is_coarse = not coarse_done and len(names) > 1
        if is_coarse:
            steps_budget = coarse_steps
            coarse_done = True
        else:
            steps_budget = refine_steps
        layout.add_nodes(
            names,
            weights=[nodes[name] for name in names],
            positions=positions,
        )
        layout.set_edges(list(edges))
        with span("layout.mlevel", depth=depth, nodes=len(names)):
            steps = layout.run(steps_budget, tolerance)
        parent_pos = dict(zip(names, (layout.position(n) for n in names)))
        levels.append({
            "depth": depth,
            "nodes": len(names),
            "edges": len(edges),
            "steps": steps,
        })
        stats["coarse_steps" if is_coarse else "refine_steps"] += steps

    seeds = {
        key: parent_pos[key] for key in (n.key for n in graph)
        if key in parent_pos
    }
    stats["runs"] += 1
    stats["levels"] += len(levels)
    return seeds, levels
