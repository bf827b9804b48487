"""Tests for the repro.obs observability layer.

Covers the metrics registry (counters/gauges/timers/stat groups), the
span instrumentation switch, and the self-tracing profiler — including
the dogfood loop: a profiled run serializes to a valid repro-format
trace that the normal pipeline can read and render.
"""

import gc

import pytest

from repro import obs
from repro.core import AnalysisSession, render_ascii
from repro.obs import (
    MetricsRegistry,
    Profiler,
    StatGroup,
    attached_profiler,
    disable,
    enable,
    enabled,
    registry,
    span,
)
from repro.obs.profiler import PIPELINE_STAGES
from repro.trace import dumps, loads
from repro.trace.synthetic import figure3_trace


@pytest.fixture(autouse=True)
def _restore_obs_state():
    """Leave the process-wide switch and registry as we found them."""
    was = enabled()
    yield
    (enable if was else disable)()
    registry.reset()


# ----------------------------------------------------------------------
# Registry primitives
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_get_or_create(self):
        reg = MetricsRegistry()
        c = reg.counter("events")
        assert reg.counter("events") is c
        c.add()
        c.add(2.5)
        assert c.value == 3.5
        c.reset()
        assert c.value == 0.0

    def test_counter_rejects_negative_delta(self):
        reg = MetricsRegistry()
        c = reg.counter("events")
        c.add(2.0)
        with pytest.raises(ValueError, match="monotonic"):
            c.add(-1.0)
        # The failed add must not have corrupted the total.
        assert c.value == 2.0
        c.add(0.0)  # zero is allowed by the >= 0 contract
        assert c.value == 2.0

    def test_counter_labels_distinct(self):
        reg = MetricsRegistry()
        a = reg.counter("reads", kind="paje")
        b = reg.counter("reads", kind="repro")
        assert a is not b
        a.add()
        assert b.value == 0.0

    def test_timer_summary(self):
        reg = MetricsRegistry()
        t = reg.timer("stage")
        assert t.mean_s == 0.0
        t.observe(0.2)
        t.observe(0.4)
        assert t.count == 2
        assert t.total_s == pytest.approx(0.6)
        assert t.mean_s == pytest.approx(0.3)
        assert t.min_s == pytest.approx(0.2)
        assert t.max_s == pytest.approx(0.4)
        t.reset()
        assert t.count == 0 and t.total_s == 0.0

    def test_group_is_a_dict(self):
        reg = MetricsRegistry()
        stats = reg.group("layout", {"evals": 0})
        assert isinstance(stats, dict)
        stats["evals"] += 5
        assert stats == {"evals": 5}
        assert reg.groups("layout") == [stats]

    def test_group_weakly_referenced(self):
        reg = MetricsRegistry()
        stats = reg.group("layout", {"evals": 0})
        assert len(reg.groups("layout")) == 1
        del stats
        gc.collect()
        assert reg.groups("layout") == []

    def test_snapshot_flattens_everything(self):
        reg = MetricsRegistry()
        reg.counter("reads").add(2)
        reg.timer("stage").observe(0.5)
        g1 = reg.group("agg", {"views": 1, "label": "not-a-number"})
        g2 = reg.group("agg", {"views": 2})
        snap = reg.snapshot()
        assert snap["reads"] == 2.0
        assert snap["stage.count"] == 1
        assert snap["stage.total_s"] == pytest.approx(0.5)
        # Groups sum across live instances; non-numeric values skipped.
        assert snap["agg.views"] == 3
        assert "agg.label" not in snap
        del g1, g2

    def test_snapshot_aggregates_same_name_labeled_timers(self):
        """Two labeled timers under one name: counts/totals sum, the
        mean derives from the sums, and the max is the max of maxes —
        regardless of registration order."""
        reg = MetricsRegistry()
        a = reg.timer("stage", kernel="array")
        b = reg.timer("stage", kernel="scalar")
        a.observe(0.1)
        a.observe(0.3)
        b.observe(0.8)  # the slower instance registered second
        snap = reg.snapshot()
        assert snap["stage.count"] == 3
        assert snap["stage.total_s"] == pytest.approx(1.2)
        assert snap["stage.mean_s"] == pytest.approx(1.2 / 3)
        assert snap["stage.max_s"] == pytest.approx(0.8)
        # And with the slow instance first, the max must not regress
        # to the last-written timer's max.
        reg2 = MetricsRegistry()
        slow = reg2.timer("stage", kernel="scalar")
        fast = reg2.timer("stage", kernel="array")
        slow.observe(0.8)
        fast.observe(0.1)
        snap2 = reg2.snapshot()
        assert snap2["stage.max_s"] == pytest.approx(0.8)
        assert snap2["stage.mean_s"] == pytest.approx(0.45)

    def test_snapshot_prefix_filter(self):
        reg = MetricsRegistry()
        reg.counter("agg.hits").add()
        reg.counter("layout.evals").add()
        assert set(reg.snapshot(prefix="agg.")) == {"agg.hits"}

    def test_reset_keeps_groups(self):
        reg = MetricsRegistry()
        reg.counter("reads").add(9)
        stats = reg.group("agg", {"views": 3})
        reg.reset()
        assert reg.counter("reads").value == 0.0
        assert stats["views"] == 3

    def test_clear_forgets_registrations(self):
        reg = MetricsRegistry()
        reg.counter("reads").add()
        reg.group("agg", {})
        reg.clear()
        assert reg.snapshot() == {}


# ----------------------------------------------------------------------
# Spans and the enable switch
# ----------------------------------------------------------------------
class TestSpans:
    def test_disabled_span_is_shared_noop(self):
        disable()
        a = span("layout.build")
        b = span("agg.slice", cached=True)
        assert a is b  # one singleton, zero allocation per call
        with a:
            pass

    def test_disabled_span_records_nothing(self):
        disable()
        registry.timer("layout.build").reset()
        with span("layout.build"):
            pass
        assert registry.timer("layout.build").count == 0

    def test_enabled_span_observes_timer(self):
        enable()
        registry.timer("test.stage").reset()
        with span("test.stage"):
            pass
        with span("test.stage"):
            pass
        t = registry.timer("test.stage")
        assert t.count == 2
        assert t.total_s >= 0.0

    def test_span_exception_counted_never_swallowed(self):
        enable()
        registry.timer("test.fail").reset()
        registry.counter("test.fail.errors").reset()
        with pytest.raises(KeyError):
            with span("test.fail"):
                raise KeyError("boom")
        assert registry.counter("test.fail.errors").value == 1.0
        # The duration is still observed for the failed span.
        assert registry.timer("test.fail").count == 1
        # A clean span does not touch the error counter.
        with span("test.fail"):
            pass
        assert registry.counter("test.fail.errors").value == 1.0

    def test_span_exception_flags_profiler_record(self):
        with Profiler() as profiler:
            with pytest.raises(RuntimeError):
                with span("agg.slice", depth=2):
                    raise RuntimeError("boom")
            with span("agg.slice", depth=2):
                pass
        attrs = [a for _, _, a in profiler.intervals["agg.slice"]]
        assert attrs[0]["error"] == "RuntimeError"
        assert attrs[0]["depth"] == 2
        assert "error" not in attrs[1]

    def test_env_opt_in(self, monkeypatch):
        from repro.obs.spans import _env_enabled

        assert _env_enabled("1")
        assert _env_enabled("yes")
        assert not _env_enabled("0")
        assert not _env_enabled("false")
        assert not _env_enabled("")
        assert not _env_enabled(None)


# ----------------------------------------------------------------------
# Profiler
# ----------------------------------------------------------------------
class TestProfiler:
    def test_install_enables_and_uninstall_restores(self):
        disable()
        profiler = Profiler()
        with profiler:
            assert enabled()
            assert attached_profiler() is profiler
        assert not enabled()
        assert attached_profiler() is None

    def test_uninstall_keeps_preexisting_enable(self):
        enable()
        with Profiler():
            pass
        assert enabled()

    def test_records_intervals_and_rows(self):
        with Profiler() as profiler:
            with span("agg.slice"):
                pass
            with span("agg.slice"):
                pass
            with span("layout.build"):
                pass
        rows = {r.name: r for r in profiler.stage_rows()}
        assert rows["agg.slice"].calls == 2
        assert rows["layout.build"].calls == 1
        assert rows["agg.slice"].total_s >= 0.0
        table = profiler.format_table()
        assert "agg.slice" in table and "wall" in table

    def test_rows_follow_pipeline_order(self):
        with Profiler() as profiler:
            with span("render.svg"):
                pass
            with span("trace.read"):
                pass
        names = [r.name for r in profiler.stage_rows()]
        assert names == ["trace.read", "render.svg"]

    def test_build_trace_structure(self):
        with Profiler() as profiler:
            with span("agg.slice"):
                with span("agg.spatial"):
                    pass
            with span("layout.build"):
                pass
        trace = profiler.build_trace()
        names = {e.name for e in trace}
        assert names == {"agg.slice", "agg.spatial", "layout.build"}
        for entity in trace:
            assert entity.kind == "stage"
            assert entity.path[0] == "self"
            assert entity.metrics["capacity"].value_at(0.0) == 1.0
            assert "usage" in entity.metrics
        assert trace.meta["generator"] == "repro.obs.profiler"
        # Stages chain along the canonical pipeline order.
        assert len(trace.edges) == len(names) - 1

    def test_busy_signal_integrates_to_span_time(self):
        with Profiler() as profiler:
            with span("layout.build"):
                for _ in range(1000):
                    pass
        trace = profiler.build_trace()
        entity = trace.entity("layout.build")
        start, end = trace.span()
        busy = entity.metrics["usage"].integrate(0.0, max(end, 1e-9))
        total = sum(
            ended - began
            for began, ended, _ in profiler.intervals["layout.build"]
        )
        assert busy == pytest.approx(total, rel=1e-6, abs=1e-9)

    def test_self_trace_round_trips(self):
        with Profiler() as profiler:
            with span("trace.read"):
                pass
            with span("sim.step"):
                pass
        text = dumps(profiler.build_trace())
        again = loads(text)
        assert {e.name for e in again} == {"trace.read", "sim.step"}
        assert all(e.kind == "stage" for e in again)

    def test_self_trace_renders(self):
        """The dogfood loop: the profiler's own output goes through the
        full aggregation/layout/render pipeline like any other trace."""
        with Profiler() as profiler:
            session = AnalysisSession(figure3_trace())
            session.view(settle_steps=5)
        self_trace = loads(dumps(profiler.build_trace()))
        self_session = AnalysisSession(self_trace)
        view = self_session.view(settle_steps=5)
        assert len(view) > 0
        assert "stage" in render_ascii(view)

    def test_point_event_cap(self):
        with Profiler(max_points=3) as profiler:
            for _ in range(5):
                with span("agg.slice"):
                    pass
        trace = profiler.build_trace()
        assert len(trace.events) == 3
        assert trace.meta["dropped_points"] == 2

    def test_pipeline_stage_names_are_canonical(self):
        assert PIPELINE_STAGES == (
            "trace.read",
            "sim.step",
            "agg.slice",
            "agg.spatial",
            "layout.build",
            "layout.traverse",
            "render.svg",
        )


# ----------------------------------------------------------------------
# Package surface
# ----------------------------------------------------------------------
class TestPackage:
    def test_all_exports_resolve(self):
        for name in obs.__all__:
            assert getattr(obs, name) is not None

    def test_stat_group_repr_roundtrip(self):
        group = StatGroup("x", {"a": 1})
        assert dict(group) == {"a": 1}
