"""Fig. 8 — four spatial aggregation levels of the Grid'5000 scenario.

Paper series: the same time slice shown at host / cluster / site / grid
level.  "Although none of the three expected phenomena is visible in
the host level representation, they are very visible at the cluster and
site level":

1. the CPU-bound application achieves better overall resource usage;
2. the communication-bound application exhibits locality (tasks go to
   high-bandwidth workers first);
3. the two applications interfere on computing resources.
"""

from collections import Counter

import pytest

from repro.core import AnalysisSession, TimeSlice
from repro.core.aggregation import aggregate_view
from repro.core.hierarchy import GroupingState, Hierarchy
from repro.trace import USAGE

LEVEL_NAMES = {1: "grid", 2: "sites", 3: "clusters", 4: "hosts"}


@pytest.fixture(scope="module")
def levels(grid_run):
    """Aggregated views of the same slice at the four levels of Fig. 8."""
    trace = grid_run["trace"]
    hierarchy = Hierarchy.from_trace(trace)
    start, end = trace.span()
    tslice = TimeSlice(start, start + (end - start) / 3.0)
    views = {}
    for depth in (4, 3, 2, 1):
        grouping = GroupingState(hierarchy)
        if depth < 4:
            grouping.collapse_depth(depth)
        views[depth] = aggregate_view(trace, grouping, tslice)
    return views, tslice


def test_fig8_view_sizes(levels, report, grid_run):
    views, tslice = levels
    lines = [f"slice {tslice}", "level     nodes"]
    for depth in (4, 3, 2, 1):
        lines.append(f"{LEVEL_NAMES[depth]:>8}  {len(views[depth]):6d}")
    report("fig8_levels", lines)
    # Host level shows thousands of units; grid level a handful.
    assert len(views[4]) > 2000
    assert len(views[3]) < len(views[4]) / 5
    assert len(views[2]) < 60
    assert len(views[1]) <= 5
    # Totals preserved across all levels (what makes Fig. 8 honest).
    total = sum(u.value(USAGE) for u in views[4].units.values())
    for depth in (3, 2, 1):
        level_total = sum(u.value(USAGE) for u in views[depth].units.values())
        assert level_total == pytest.approx(total, rel=1e-9)


def test_fig8_phenomenon1_cpu_bound_wins(grid_run, report):
    trace = grid_run["trace"]
    start, end = trace.span()
    ts = TimeSlice(start, end)
    work = {}
    for app in ("app1", "app2"):
        work[app] = sum(
            ts.value_of(e.signal_or(f"usage_{app}")) * ts.width
            for e in trace.entities("host")
        )
    report(
        "fig8_phenomenon1",
        [
            f"app1 (CPU-bound) total compute: {work['app1'] / 1e12:.1f} Tflop",
            f"app2 (comm-heavy) total compute: {work['app2'] / 1e12:.1f} Tflop",
        ],
    )
    assert work["app1"] > work["app2"]


def test_fig8_phenomenon2_app2_locality(grid_run, report):
    platform = grid_run["platform"]
    result = grid_run["result"]
    served = result.app("app2").served_per_worker
    by_site = Counter()
    for worker, count in served.items():
        by_site[platform.host(worker).path[1]] += count
    total = sum(by_site.values())
    shares = {site: count / total for site, count in by_site.most_common()}
    report(
        "fig8_phenomenon2",
        [f"{site:>12}: {share:.1%}" for site, share in shares.items()],
    )
    # Locality: app2's tasks concentrate on a preferred subset of sites
    # (more than half on the top three) while several of the ten sites
    # receive nothing at all.
    top3 = sum(list(shares.values())[:3])
    assert top3 > 0.5
    assert len(by_site) < 8


def test_fig8_phenomenon3_interference(grid_run, report):
    trace = grid_run["trace"]
    start, end = trace.span()
    ts = TimeSlice(start, end)
    shared = [
        e.name
        for e in trace.entities("host")
        if ts.value_of(e.signal_or("usage_app1")) > 0
        and ts.value_of(e.signal_or("usage_app2")) > 0
    ]
    report(
        "fig8_phenomenon3",
        [f"hosts computing for BOTH applications: {len(shared)}"],
    )
    assert shared


def test_fig8_site_level_makes_phenomena_visible(levels, grid_run):
    """At host level per-node app2 fills are minute; at site level the
    app2-heavy sites clearly stand out — the paper's core argument for
    multi-scale aggregation."""
    views, tslice = levels

    def shares(view):
        values = [
            u.value("usage_app2") for u in view.units_of_kind("host")
        ]
        total = sum(values)
        return [v / total for v in values] if total else []

    host_shares = shares(views[4])
    site_shares = shares(views[2])
    # Host level: app2's usage is shattered over thousands of nodes —
    # no single square carries a visible share.
    assert max(host_shares) < 0.02
    quiet_hosts = sum(1 for s in host_shares if s == 0.0) / len(host_shares)
    assert quiet_hosts > 0.5
    # Site level: a couple of aggregates concentrate most of it — the
    # locality pattern jumps out.
    assert sum(sorted(site_shares, reverse=True)[:2]) > 0.5


def test_fig8_site_view_with_layout_stays_small(grid_run):
    """Session view at site level incl. Barnes-Hut settling."""
    session = AnalysisSession(grid_run["trace"], seed=1)
    session.aggregate_depth(2)
    view = session.view(settle_steps=50)
    assert len(view) < 100
