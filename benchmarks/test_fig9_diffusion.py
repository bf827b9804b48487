"""Fig. 9 — evolution of platform usage across time at several scales.

Paper series: animating the site-level view through slices t0..t3 shows
"workload diffusion across time": "site B is filled quickly in [t0, t2]
whereas site C has to wait until time t2 before starting to receive
work units" — a direct consequence of the bandwidth-centric strategy.
A FIFO server "would not exhibit such locality and would exhibit an
(inefficient) uniform resource usage".
"""

import pytest

from repro.apps import Policy, network_bound_app, run_master_worker
from repro.core import AnalysisSession, TimeSlice, VisualMapping
from repro.platform import (
    GRID5000_SITES,
    ClusterSpec,
    SiteSpec,
    grid5000_platform,
)
from repro.trace import CAPACITY


@pytest.fixture(scope="module")
def site_frames(grid_run):
    """app1 fill per site across 4 consecutive slices (t0..t3)."""
    trace = grid_run["trace"]
    session = AnalysisSession(trace, seed=3)
    session.aggregate_depth(2)
    session.set_mapping(
        VisualMapping.paper_default().with_metrics("host", CAPACITY, "usage_app1")
    )
    start, end = grid_run["diffusion_window"]
    frames = list(
        session.animate(
            width=(end - start) / 4.0, start=start, end=end, settle_steps=5
        )
    )
    fills = {}
    for frame in frames:
        for node in frame.nodes():
            if node.kind == "host" and node.is_aggregate:
                fills.setdefault(node.key, []).append(node.fill_fraction or 0.0)
    return fills


def test_fig9_diffusion_series(site_frames, report):
    lines = ["site                      t0     t1     t2     t3"]
    for key in sorted(site_frames):
        row = " ".join(f"{fill:6.1%}" for fill in site_frames[key])
        lines.append(f"{key.split('::')[0]:<24} {row}")
    report("fig9_diffusion", lines)
    # Diffusion: at t0 sites are unevenly loaded — some nearly full,
    # others untouched (site B vs site C of the paper).
    t0 = [fills[0] for fills in site_frames.values()]
    assert max(t0) > 0.5
    assert min(t0) < 0.1


def test_fig9_late_sites_exist(site_frames):
    """Some site only starts receiving work in a later slice (site C)."""
    started_late = [
        key
        for key, fills in site_frames.items()
        if fills[0] < 0.02 and max(fills) > 0.02
    ]
    early = [key for key, fills in site_frames.items() if fills[0] > 0.3]
    assert early, "some site must fill quickly (site B)"
    # At half-platform task supply, at least the ordering differs: the
    # latest-starting site starts strictly after the earliest.
    firsts = {
        key: next((i for i, f in enumerate(fills) if f > 0.02), len(fills))
        for key, fills in site_frames.items()
    }
    assert max(firsts.values()) > min(firsts.values())


def contrast_platform():
    """A compact grid for the FIFO contrast (needs several rounds)."""
    sites = tuple(
        SiteSpec(
            site.name,
            tuple(
                ClusterSpec(c.name, max(2, c.n_hosts // 24), c.host_power)
                for c in site.clusters
            ),
        )
        for site in GRID5000_SITES
    )
    return grid5000_platform(sites=sites)


def gini(counts):
    ordered = sorted(counts)
    n = len(ordered)
    if n == 0 or sum(ordered) == 0:
        return 0.0
    cumulative = sum((i + 1) * c for i, c in enumerate(ordered))
    return (2.0 * cumulative) / (n * sum(ordered)) - (n + 1.0) / n


def test_fig9_fifo_uniform_vs_bandwidth_centric(report):
    platform = contrast_platform()
    master = platform.hosts[0].name
    app = network_bound_app(master, n_tasks=4 * (len(platform.hosts) - 1))
    rows = []
    ginis = {}
    for policy in (Policy.BANDWIDTH_CENTRIC, Policy.FIFO):
        result = run_master_worker(platform, [app], policy=policy)
        served = result.app("app2").served_per_worker
        ginis[policy] = gini(served.values())
        rows.append(
            f"{policy:>17}: gini={ginis[policy]:.2f}, "
            f"max/worker={max(served.values())}, "
            f"workers={len(served)}"
        )
    report("fig9_fifo_contrast", rows)
    # Bandwidth-centric concentrates work (locality); FIFO spreads it
    # uniformly — the paper's closing contrast.
    assert ginis[Policy.BANDWIDTH_CENTRIC] > ginis[Policy.FIFO] + 0.2
    assert ginis[Policy.FIFO] < 0.2
