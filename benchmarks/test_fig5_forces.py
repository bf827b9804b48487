"""Fig. 5 — how the charge and spring sliders reshape the layout.

Paper series: three situations — decreasing charge brings all nodes
closer; decreasing spring (here: increasing stiffness) brings only the
connected nodes closer.  Reproduced as dispersion / mean-edge-length
sweeps on the two-cluster topology.
"""

import pytest

from repro.core import LayoutParams, make_layout


def two_cluster_graph(layout):
    """Two 8-node stars joined by one bridge edge."""
    for cluster in ("a", "b"):
        layout.add_node(f"{cluster}-hub")
        for i in range(7):
            layout.add_node(f"{cluster}{i}")
            layout.add_edge(f"{cluster}-hub", f"{cluster}{i}")
    layout.add_edge("a-hub", "b-hub")


def settle(charge=800.0, spring=0.06, seed=3):
    layout = make_layout(
        "barneshut", LayoutParams(charge=charge, spring=spring), seed=seed
    )
    two_cluster_graph(layout)
    layout.run(max_steps=500, tolerance=0.05)
    return layout


def test_fig5_charge_series(report):
    charges = (100.0, 400.0, 1600.0, 6400.0)
    dispersions = [settle(charge=c).dispersion() for c in charges]
    report(
        "fig5_charge",
        ["charge  dispersion(px)"]
        + [f"{c:6.0f}  {d:10.1f}" for c, d in zip(charges, dispersions)],
    )
    # Higher charge -> more disperse nodes (Fig. 5 A vs B).
    assert dispersions == sorted(dispersions)


def test_fig5_spring_series(report):
    springs = (0.01, 0.04, 0.16, 0.64)
    lengths = [settle(spring=s).mean_edge_length() for s in springs]
    report(
        "fig5_spring",
        ["spring  mean edge length(px)"]
        + [f"{s:6.2f}  {l:10.1f}" for s, l in zip(springs, lengths)],
    )
    # Stronger springs -> connected nodes closer (Fig. 5 C).
    assert lengths == sorted(lengths, reverse=True)


def test_fig5_damping_controls_convergence(report):
    rows = []
    for damping in (0.3, 0.6, 0.9):
        layout = make_layout(
            "barneshut", LayoutParams(damping=damping), seed=3
        )
        two_cluster_graph(layout)
        steps = layout.run(max_steps=3000, tolerance=0.5)
        rows.append((damping, steps))
    report(
        "fig5_damping",
        ["damping  steps to converge"]
        + [f"{d:7.1f}  {s:17d}" for d, s in rows],
    )
    assert all(steps < 3000 for _, steps in rows)


def test_fig5_step_stats_attribution(report):
    """The per-step counts attribute layout work to build/traverse.

    The vectorized kernel counts ``evals``/``builds``/``cells``/
    ``p2p_pairs`` on every repulsion evaluation, so benches can tell
    tree construction from force evaluation without profiling; the
    ``layout.build``/``layout.traverse`` spans carry the time.
    """
    layout = settle()
    stats = layout.stats
    assert stats["evals"] > 0
    assert 1 <= stats["builds"] <= stats["evals"]
    assert stats["cells"] > 0
    assert stats["p2p_pairs"] > 0
    report(
        "fig5_step_stats",
        [
            "counter            value",
            f"evals              {stats['evals']}",
            f"builds             {stats['builds']}",
            f"cells (last)       {stats['cells']}",
            f"p2p_pairs (last)   {stats['p2p_pairs']}",
        ],
    )


def test_fig5_charge_series_matches_naive_oracle():
    """The Fig. 5 monotonicity holds on the exact O(n^2) layout too —
    the Barnes-Hut approximation did not change the physics."""
    charges = (100.0, 6400.0)
    dispersions = []
    for charge in charges:
        layout = make_layout("naive", LayoutParams(charge=charge), seed=3)
        two_cluster_graph(layout)
        layout.run(max_steps=500, tolerance=0.05)
        dispersions.append(layout.dispersion())
    assert dispersions[0] < dispersions[1]


def test_fig5_settled_layout_keeps_every_body():
    """Settling the two-cluster layout from scratch."""
    layout = make_layout("barneshut", LayoutParams(), seed=3)
    two_cluster_graph(layout)
    layout.run(max_steps=200, tolerance=0.5)
    assert len(layout) == 16
