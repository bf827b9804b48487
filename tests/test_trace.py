"""Unit tests for the trace container, builder and text round-trip."""

import io

import pytest

from repro.errors import TraceError
from repro.trace import (
    CAPACITY,
    USAGE,
    Entity,
    PointEvent,
    Trace,
    TraceBuilder,
    TraceEdge,
    VariableEvent,
    dumps,
    loads,
    read_trace,
    write_trace,
)
from repro.trace.signal import Signal, constant
from repro.trace.synthetic import (
    figure1_trace,
    figure3_trace,
    figure4_trace,
    random_hierarchical_trace,
    sine_usage_trace,
)


class TestEntity:
    def test_default_path_is_own_name(self):
        e = Entity("h1", "host")
        assert e.path == ("h1",)
        assert e.group_path == ()

    def test_path_must_end_with_name(self):
        with pytest.raises(TraceError):
            Entity("h1", "host", path=("grid", "h2"))

    def test_empty_name_or_kind_rejected(self):
        with pytest.raises(TraceError):
            Entity("", "host")
        with pytest.raises(TraceError):
            Entity("h1", "")

    def test_signal_lookup(self):
        e = Entity("h1", "host", metrics={"capacity": constant(5.0)})
        assert e.signal("capacity")(0.0) == 5.0
        with pytest.raises(TraceError):
            e.signal("nope")

    def test_signal_or_default(self):
        e = Entity("h1", "host")
        assert e.signal_or("usage", 7.0)(0.0) == 7.0


class TestTraceContainer:
    def make_trace(self):
        a = Entity("a", "host", metrics={"capacity": constant(1.0)})
        b = Entity("b", "host")
        l = Entity("l", "link")
        return Trace([a, b, l], [TraceEdge("a", "b", via="l")])

    def test_duplicate_entity_rejected(self):
        with pytest.raises(TraceError):
            Trace([Entity("x", "host"), Entity("x", "host")])

    def test_edge_endpoint_must_exist(self):
        with pytest.raises(TraceError):
            Trace([Entity("a", "host")], [TraceEdge("a", "ghost")])

    def test_edge_via_must_exist(self):
        with pytest.raises(TraceError):
            Trace(
                [Entity("a", "host"), Entity("b", "host")],
                [TraceEdge("a", "b", via="ghost")],
            )

    def test_lookup_and_iteration(self):
        t = self.make_trace()
        assert "a" in t
        assert len(t) == 3
        assert t.entity("a").kind == "host"
        with pytest.raises(TraceError):
            t.entity("ghost")
        assert {e.name for e in t} == {"a", "b", "l"}

    def test_entities_by_kind(self):
        t = self.make_trace()
        assert [e.name for e in t.entities("link")] == ["l"]
        assert t.kinds() == ["host", "link"]

    def test_edges_of(self):
        t = self.make_trace()
        assert len(t.edges_of("a")) == 1
        assert t.edges_of("l") == []  # 'via' is not an endpoint

    def test_edge_key_canonical(self):
        assert TraceEdge("b", "a").key() == ("a", "b")
        assert TraceEdge("a", "b").key() == ("a", "b")

    def test_span_requires_timestamped_data(self):
        with pytest.raises(TraceError):
            self.make_trace().span()

    def test_span_covers_signals_events_and_meta(self):
        e = Entity("a", "host", metrics={"u": Signal([1.0, 4.0], [1.0, 2.0])})
        t = Trace([e], events=[PointEvent(0.5, "msg", "a")], meta={"end_time": 9.0})
        assert t.span() == (0.5, 9.0)

    def test_metric_names_and_info(self):
        t = self.make_trace()
        assert t.metric_names() == ["capacity"]
        assert t.metric_info("capacity").name == "capacity"
        assert t.metric_info("unknown").unit == ""


class TestVariableEvent:
    def test_events_sort_by_time(self):
        evs = [
            VariableEvent(3.0, "a", "m", 1.0),
            VariableEvent(1.0, "b", "m", 2.0),
        ]
        assert sorted(evs)[0].time == 1.0


class TestTraceBuilder:
    def test_record_requires_declaration(self):
        b = TraceBuilder()
        with pytest.raises(TraceError):
            b.record("ghost", "m", 0.0, 1.0)

    def test_redeclare_same_kind_is_noop(self):
        b = TraceBuilder()
        b.declare_entity("h", "host")
        b.declare_entity("h", "host")
        assert len(b.build()) == 1

    def test_redeclare_other_kind_rejected(self):
        b = TraceBuilder()
        b.declare_entity("h", "host")
        with pytest.raises(TraceError):
            b.declare_entity("h", "link")

    def test_build_produces_signals_and_constants(self):
        b = TraceBuilder()
        b.declare_entity("h", "host", ("g", "h"))
        b.set_constant("h", CAPACITY, 100.0)
        b.record("h", USAGE, 0.0, 10.0)
        b.record("h", USAGE, 5.0, 20.0)
        t = b.build()
        h = t.entity("h")
        assert h.signal(CAPACITY)(3.0) == 100.0
        assert h.signal(USAGE)(6.0) == 20.0
        assert h.path == ("g", "h")

    def test_record_event_wrapper(self):
        b = TraceBuilder()
        b.declare_entity("h", "host")
        b.record_event(VariableEvent(1.0, "h", USAGE, 4.0))
        assert b.build().entity("h").signal(USAGE)(2.0) == 4.0

    def test_point_events_collected_sorted(self):
        b = TraceBuilder()
        b.declare_entity("h", "host")
        b.point(5.0, "msg", "h", size=10)
        b.point(1.0, "msg", "h")
        t = b.build()
        assert [ev.time for ev in t.events] == [1.0, 5.0]
        assert t.events[1].payload["size"] == 10


class TestSyntheticTraces:
    def test_figure1_has_expected_entities(self):
        t = figure1_trace()
        assert {e.name for e in t} == {"HostA", "HostB", "LinkA"}
        assert t.entity("LinkA").kind == "link"
        # Values at the paper's cursors: HostA shrinks, HostB grows.
        a = t.entity("HostA").signal(CAPACITY)
        bsig = t.entity("HostB").signal(CAPACITY)
        assert a(2.0) > a(10.0)
        assert bsig(2.0) < bsig(10.0)

    def test_figure1_usage_below_capacity(self):
        t = figure1_trace()
        for name in ("HostA", "HostB", "LinkA"):
            e = t.entity(name)
            cap, use = e.signal(CAPACITY), e.signal(USAGE)
            for time in [0.0, 1.0, 3.0, 5.0, 7.0, 9.0, 11.0]:
                assert use(time) <= cap(time)

    def test_figure3_grouping_paths(self):
        t = figure3_trace()
        assert t.entity("h1").path == ("GroupB", "GroupA", "h1")
        assert t.entity("h3").path == ("GroupB", "h3")
        assert len(t.edges) == 3

    def test_figure4_slice_values_match_paper(self):
        t = figure4_trace()
        a = t.entity("HostA").signal(CAPACITY)
        b = t.entity("HostB").signal(CAPACITY)
        assert a.mean(0.0, 5.0) == 100.0 and b.mean(0.0, 5.0) == 25.0
        assert a.mean(5.0, 10.0) == 10.0 and b.mean(5.0, 10.0) == 40.0

    def test_random_hierarchical_deterministic(self):
        t1 = random_hierarchical_trace(seed=3)
        t2 = random_hierarchical_trace(seed=3)
        assert {e.name for e in t1} == {e.name for e in t2}
        name = sorted(e.name for e in t1.entities("host"))[0]
        assert t1.entity(name).signal(USAGE) == t2.entity(name).signal(USAGE)

    def test_random_hierarchical_counts(self):
        t = random_hierarchical_trace(n_sites=2, clusters_per_site=2, hosts_per_cluster=3)
        assert len(t.entities("host")) == 12
        # 4 cluster uplinks + 1 backbone
        assert len(t.entities("link")) == 5

    def test_sine_trace_mean_is_half_capacity(self):
        t = sine_usage_trace(n_hosts=4, end_time=10.0, samples=200, capacity=80.0)
        for e in t.entities("host"):
            assert e.signal(USAGE).mean(0.0, 10.0) == pytest.approx(40.0, rel=0.05)


class TestTextRoundTrip:
    def roundtrip(self, trace):
        return loads(dumps(trace))

    @pytest.mark.parametrize(
        "factory", [figure1_trace, figure3_trace, figure4_trace]
    )
    def test_roundtrip_preserves_entities_and_signals(self, factory):
        original = factory()
        back = self.roundtrip(original)
        assert {e.name for e in back} == {e.name for e in original}
        for e in original:
            for metric, sig in e.metrics.items():
                got = back.entity(e.name).signal(metric)
                for t in [0.0, 1.0, 3.0, 6.0, 9.0]:
                    assert got(t) == pytest.approx(sig(t))
            assert back.entity(e.name).path == e.path

    def test_roundtrip_preserves_edges_and_meta(self):
        back = self.roundtrip(figure1_trace())
        assert back.edges[0].via == "LinkA"
        assert back.meta["end_time"] == 12.0

    def test_roundtrip_preserves_events(self):
        b = TraceBuilder()
        b.declare_entity("h", "host")
        b.point(1.5, "message", "h", "", size=100, app="x")
        back = self.roundtrip(b.build())
        ev = back.events[0]
        assert ev.time == 1.5
        assert ev.payload == {"size": 100, "app": "x"}

    def test_roundtrip_preserves_initial_values(self):
        e = Entity("h", "host", metrics={"u": Signal([5.0], [3.0], initial=1.5)})
        back = self.roundtrip(Trace([e]))
        assert back.entity("h").signal("u")(0.0) == 1.5
        assert back.entity("h").signal("u")(6.0) == 3.0

    def test_initial_values_land_on_their_own_entity_and_metric(self):
        """Many entities with INITs on several metrics: each value is
        re-threaded onto exactly its (entity, metric) signal."""
        metrics = ("a", "b", "c")
        entities = [
            Entity(
                f"h{i}", "host",
                metrics={
                    m: Signal([5.0 + i], [i + 0.5], initial=100.0 * i + k + 1)
                    for k, m in enumerate(metrics)
                },
            )
            for i in range(60)
        ]
        # One signal per entity without an INIT (initial 0).
        entities.append(Entity("plain", "host",
                               metrics={"a": Signal([1.0], [2.0])}))
        back = self.roundtrip(Trace(entities))
        for i in range(60):
            entity = back.entity(f"h{i}")
            for k, m in enumerate(metrics):
                assert entity.signal(m).initial == 100.0 * i + k + 1
                assert entity.signal(m)(6.0 + i) == i + 0.5
        assert back.entity("plain").signal("a").initial == 0.0

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "trace.txt"
        write_trace(figure1_trace(), path)
        back = read_trace(path)
        assert len(back) == 3

    def test_stream_roundtrip(self):
        buf = io.StringIO()
        write_trace(figure1_trace(), buf)
        buf.seek(0)
        assert len(read_trace(buf)) == 3

    def test_missing_header_rejected(self):
        with pytest.raises(TraceError):
            loads("ENTITY h host h\n")

    def test_unknown_tag_rejected(self):
        with pytest.raises(TraceError):
            loads("#repro-trace 1\nBOGUS x y\n")

    def test_malformed_records_rejected(self):
        for bad in [
            "ENTITY h host",  # missing path
            "CONST h capacity",  # missing value
            "VAR h m 1.0",  # missing value
            "EDGE a b",  # missing via/source
            "POINT 1.0 msg",  # missing source
            "META just_a_key",
        ]:
            with pytest.raises(TraceError):
                loads(f"#repro-trace 1\n{bad}\n")

    def test_bad_number_rejected(self):
        with pytest.raises(TraceError):
            loads("#repro-trace 1\nENTITY h host h\nCONST h m abc\n")

    def test_whitespace_in_names_rejected_at_write(self):
        e = Entity("bad name", "host")
        with pytest.raises(TraceError):
            dumps(Trace([e]))

    def test_out_of_order_var_lines_are_sorted(self):
        text = (
            "#repro-trace 1\n"
            "ENTITY h host h\n"
            "VAR h m 5.0 50\n"
            "VAR h m 1.0 10\n"
        )
        t = loads(text)
        assert t.entity("h").signal("m")(2.0) == 10.0
        assert t.entity("h").signal("m")(6.0) == 50.0
