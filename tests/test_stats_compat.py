"""Back-compat tests for the stats surfaces migrated onto repro.obs.

PR 3 moved ``ForceLayout.stats``, ``AggregationEngine.stats`` and the
simulation counters onto :data:`repro.obs.registry` as
:class:`~repro.obs.StatGroup` instances.  These tests pin the historical
contract: same key sets, plain-dict behavior, per-instance counting —
plus the new property that one ``registry.snapshot()`` sees them all.
"""

from repro.core import AnalysisSession
from repro.core.aggengine import AggregationEngine
from repro.core.layout import DynamicLayout, make_layout
from repro.obs import StatGroup, registry
from repro.platform import Host, Link, Platform, Router
from repro.simulation import Simulator
from repro.trace.synthetic import figure3_trace

# Counts only: durations live in the layout.build/traverse spans.
LAYOUT_KEYS = {"evals", "builds", "cells", "p2p_pairs"}
SHARD_KEYS = {
    "workers",
    "supersteps",
    "rebuilds",
    "inproc_evals",
    "halo_bytes",
    "force_bytes",
}

AGG_KEYS = {
    "views",
    "slice_hits",
    "slice_delta",
    "slice_full",
    "advance_rounds",
    "combine_full",
    # Multi-session sharing (PR 7): cross-session result-cache traffic.
    "shared_hits",
    "shared_puts",
}

SIM_KEYS = {"events", "turns", "settles", "resumes", "spawns", "messages"}


def _populate(layout, n=6):
    for i in range(n):
        layout.add_node(f"n{i}")
    for i in range(n - 1):
        layout.add_edge(f"n{i}", f"n{i + 1}")
    return layout


def _platform():
    p = Platform("test")
    p.add_router(Router("r"))
    p.add_host(Host("h0", 100.0))
    p.add_link(Link("l0", 1000.0, 0.0), "h0", "r")
    return p


class TestForceLayoutStats:
    def test_key_set_unchanged(self):
        layout = make_layout(seed=1)
        assert set(layout.stats) == LAYOUT_KEYS

    def test_is_plain_dict_semantics(self):
        layout = make_layout(seed=1)
        assert isinstance(layout.stats, dict)
        assert isinstance(layout.stats, StatGroup)
        layout.stats["evals"] += 3
        assert layout.stats["evals"] == 3
        assert dict(layout.stats)["evals"] == 3

    def test_counters_move_after_steps(self):
        layout = _populate(make_layout(seed=1))
        for _ in range(5):
            layout.step()
        assert layout.stats["evals"] > 0
        assert layout.stats["builds"] >= 1

    def test_per_instance_counting(self):
        a = _populate(make_layout(seed=1))
        b = _populate(make_layout(seed=1))
        for _ in range(3):
            a.step()
        assert b.stats["evals"] == 0
        assert a.stats["evals"] > 0

    def test_sharded_kernel_same_keys(self):
        layout = make_layout(seed=1, workers=2)
        assert set(layout.stats) == LAYOUT_KEYS
        assert set(layout.shard_stats) == SHARD_KEYS
        layout.close()


class TestDynamicLayoutStats:
    def test_delegates_to_force_layout(self):
        dyn = DynamicLayout(seed=1)
        assert dyn.stats is dyn.layout.stats
        assert set(dyn.stats) == LAYOUT_KEYS


class TestAggregationStats:
    def test_key_set_unchanged(self):
        engine = AggregationEngine(figure3_trace())
        assert set(engine.stats) == AGG_KEYS

    def test_session_property_shape(self):
        session = AnalysisSession(figure3_trace())
        session.view(settle_steps=2)
        stats = session.aggregation_stats
        assert isinstance(stats, dict)
        assert set(stats) == AGG_KEYS
        assert stats["views"] >= 1

    def test_view_agg_stats_snapshot(self):
        session = AnalysisSession(figure3_trace())
        view = session.view(settle_steps=2)
        assert set(view.agg_stats) == AGG_KEYS

    def test_delta_counters_still_move(self):
        """The differential-oracle contract: scrubbing a slice takes the
        delta path, not full recomputation (PR 2 behavior preserved)."""
        trace = figure3_trace()
        session = AnalysisSession(trace)
        start, end = trace.span()
        width = (end - start) / 4
        session.set_time_slice(start, start + width)
        session.view(settle_steps=1)
        session.set_time_slice(start + width / 8, start + width + width / 8)
        session.view(settle_steps=1)
        assert session.aggregation_stats["slice_delta"] > 0


class TestSimulationStats:
    def test_key_set(self):
        sim = Simulator(_platform())
        assert set(sim.stats) == SIM_KEYS

    def test_counters_move_after_run(self):
        sim = Simulator(_platform())

        def job(ctx):
            yield ctx.execute(500.0)

        sim.spawn(job, "h0")
        sim.run()
        assert sim.stats["spawns"] == 1
        assert sim.stats["events"] > 0
        assert sim.stats["turns"] > 0
        assert sim.stats["settles"] > 0

    def test_per_instance_counting(self):
        a = Simulator(_platform())
        b = Simulator(_platform())

        def job(ctx):
            yield ctx.execute(500.0)

        a.spawn(job, "h0")
        a.run()
        assert a.stats["events"] > 0
        assert b.stats["events"] == 0


class TestRegistryView:
    def test_snapshot_spans_all_namespaces(self):
        layout = _populate(make_layout(seed=1))
        layout.step()
        session = AnalysisSession(figure3_trace())
        session.view(settle_steps=1)
        sim = Simulator(_platform())
        snap = registry.snapshot()
        assert any(k.startswith("layout.") for k in snap)
        assert any(k.startswith("agg.") for k in snap)
        assert any(k.startswith("sim.") for k in snap)
        assert snap["agg.views"] >= 1
        del layout, session, sim
