"""The server observability plane, end to end.

Request accounting (:mod:`repro.server.telemetry`), the typed error
counters, the ``/metrics`` Prometheus exposition, the ``/healthz``
readiness payload, the ``stats_stream`` push op and the
:class:`~repro.server.telemetry.ServerRecorder` self-trace — everything
the observability tentpole promises, checked against a real in-process
server wherever the wire matters.
"""

import asyncio
import json
import math

import pytest

from repro.core import AnalysisSession
from repro.core.timeline import Timeline
from repro.obs import parse_exposition, registry
from repro.obs.expo import histogram_series, prom_name
from repro.server.app import ReproServer
from repro.server.client import WsClient, http_get
from repro.server.protocol import ERROR_CODES
from repro.server.state import ServerConfig, SharedServerState
from repro.server.telemetry import (
    CACHE_TIERS,
    REQUEST_HISTOGRAM,
    RequestRecord,
    ServerRecorder,
    ServerTelemetry,
    format_breakdown,
)
from repro.server.ws import WebSocketError
from repro.trace import loads as trace_loads
from repro.trace.synthetic import figure3_trace
from repro.trace.writer import dumps as trace_dumps

REQUEST_FAMILY = prom_name(REQUEST_HISTOGRAM)


@pytest.fixture(autouse=True)
def _clean_registry():
    yield
    registry.reset()


def _shared_state(**kwargs) -> SharedServerState:
    return SharedServerState(
        figure3_trace(), ServerConfig(settle_steps=0, **kwargs)
    )


def _record(op="scrub", wall=0.002, **kwargs) -> RequestRecord:
    defaults = dict(
        session="s1",
        op=op,
        began_s=0.1,
        wall_s=wall,
        bytes_in=40,
        bytes_out=900,
        tier="fresh",
        ok=True,
        code="",
    )
    defaults.update(kwargs)
    return RequestRecord(**defaults)


# ----------------------------------------------------------------------
# Typed error counters
# ----------------------------------------------------------------------
class TestErrorCounters:
    def test_every_code_is_preseeded_to_zero(self):
        stats = _shared_state().stats
        assert {f"errors.{code}" for code in ERROR_CODES} <= set(stats)
        assert all(stats[f"errors.{code}"] == 0 for code in ERROR_CODES)

    def test_parity_with_error_codes_exactly(self):
        """The per-code key set mirrors ERROR_CODES — no extras, none
        missing — so a new code without accounting fails loudly here."""
        stats = _shared_state().stats
        seeded = {
            key.split(".", 1)[1]
            for key in stats
            if key.startswith("errors.")
        }
        assert seeded == set(ERROR_CODES)

    def test_record_error_increments_total_and_code(self):
        state = _shared_state()
        state.record_error("bad_slice")
        state.record_error("bad_slice")
        state.record_error("unknown_op")
        assert state.stats["errors"] == 3
        assert state.stats["errors.bad_slice"] == 2
        assert state.stats["errors.unknown_op"] == 1

    def test_unknown_code_folds_into_server_error(self):
        state = _shared_state()
        state.record_error("not_a_real_code")
        assert state.stats["errors.server_error"] == 1

    def test_each_dispatch_failure_lands_on_its_code(self):
        state = _shared_state()
        session = state.create_session()
        provocations = {
            "bad_json": "{nope",
            "bad_request": '{"id": 1, "op": "view", "metrics": "x"}',
            "unknown_op": '{"id": 2, "op": "frobnicate"}',
            "bad_slice": '{"id": 3, "op": "scrub", "start": 5, "end": 1}',
            "unknown_group": '{"id": 4, "op": "group", "path": ["no"]}',
            "unknown_metric":
                '{"id": 5, "op": "view", "metrics": ["nope"]}',
            "bad_depth": '{"id": 6, "op": "depth", "depth": -2}',
        }
        for code, frame in provocations.items():
            envelope, meta = state.handle_frame(session, frame)
            assert envelope["ok"] is False
            assert envelope["error"]["code"] == code
            assert meta["code"] == code
            assert state.stats[f"errors.{code}"] == 1, code
        assert state.stats["errors"] == len(provocations)


# ----------------------------------------------------------------------
# The telemetry funnel
# ----------------------------------------------------------------------
class TestServerTelemetry:
    def test_observe_feeds_histogram_stats_and_recorder(self):
        stats = {"bytes_in": 0, "bytes_out": 0}
        telemetry = ServerTelemetry(stats)
        telemetry.recorder = ServerRecorder()
        telemetry.observe(_record(op="scrub", wall=0.003))
        telemetry.observe(_record(op="hello", wall=0.0005, bytes_out=120))
        assert stats["bytes_in"] == 80
        assert stats["bytes_out"] == 1020
        assert stats["ops.scrub"] == 1 and stats["ops.hello"] == 1
        h = registry.histogram(REQUEST_HISTOGRAM, op="scrub")
        assert h.count == 1 and h.sum == pytest.approx(0.003)
        assert len(telemetry.recorder.records) == 2

    def test_no_records_are_kept_without_a_recorder(self):
        """Without a self-trace to build, a storm leaves no records."""
        async def scenario(server, config):
            client = await WsClient.connect(config.host, server.port)
            try:
                await client.request("hello")
                for i in range(20):
                    await client.request(
                        "scrub", start=i / 40, end=0.5 + i / 40
                    )
            finally:
                await client.close()
            assert server.state.stats["ops.scrub"] == 20
            assert server.state.telemetry.recorder is None

        _run_live(scenario)

    def test_access_log_lines_follow_the_schema(self, tmp_path):
        path = tmp_path / "access.jsonl"
        telemetry = ServerTelemetry({}, access_log=path)
        telemetry.observe(_record(op="scrub", tier="shared"))
        telemetry.observe(_record(op="bad", ok=False, code="bad_request",
                                  tier="none"))
        telemetry.close()
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(lines) == 2
        for line in lines:
            assert set(line) == {
                "v", "ts_s", "session", "op", "wall_s",
                "bytes_in", "bytes_out", "tier", "ok", "code",
            }
            assert line["v"] == 1
            assert line["tier"] in CACHE_TIERS
        assert lines[0]["tier"] == "shared" and lines[0]["ok"] is True
        assert lines[1]["code"] == "bad_request" and lines[1]["ok"] is False

    def test_breakdown_reports_only_this_servers_interval(self):
        # A previous server in the same process already observed scrubs
        # on the process-global registry; a new telemetry instance must
        # baseline them away.
        earlier = ServerTelemetry({})
        for _ in range(5):
            earlier.observe(_record(op="scrub", wall=0.5))
        fresh = ServerTelemetry({})
        fresh.observe(_record(op="scrub", wall=0.001))
        breakdown = fresh.breakdown()
        assert breakdown["scrub"]["count"] == 1
        assert breakdown["scrub"]["mean_s"] == pytest.approx(0.001)

    def test_format_breakdown_is_a_table(self):
        telemetry = ServerTelemetry({})
        telemetry.observe(_record(op="scrub"))
        text = format_breakdown(telemetry.breakdown())
        assert "scrub" in text and "p95" in text
        assert format_breakdown({}) == "  (no requests observed)"


# ----------------------------------------------------------------------
# Cache-tier attribution
# ----------------------------------------------------------------------
class TestTierAttribution:
    def test_fresh_then_local_then_shared(self):
        state = _shared_state()
        first = state.create_session()
        scrub = '{"id": 1, "op": "scrub", "start": 0.25, "end": 0.75}'
        _, meta = state.handle_frame(first, scrub)
        assert meta["tier"] == "fresh"  # nobody computed this yet
        _, meta = state.handle_frame(
            first, '{"id": 2, "op": "scrub", "start": 0.25, "end": 0.75}'
        )
        assert meta["tier"] == "local"  # own memo table
        second = state.create_session()
        _, meta = state.handle_frame(second, scrub)
        assert meta["tier"] == "shared"  # cross-session cache hit

    def test_revisiting_an_own_earlier_window_is_local(self):
        """A hit on the session's own result-cache entry is ``local``,
        even when the window is not the session's latest one."""
        state = _shared_state()
        session = state.create_session()
        frames = [
            '{"id": 1, "op": "scrub", "start": 0.25, "end": 0.75}',
            '{"id": 2, "op": "scrub", "start": 0.5, "end": 1.0}',
        ]
        for frame in frames:
            _, meta = state.handle_frame(session, frame)
            assert meta["tier"] == "fresh"
        _, meta = state.handle_frame(
            session, '{"id": 3, "op": "scrub", "start": 0.25, "end": 0.75}'
        )
        assert meta["tier"] == "local"

    def test_viewless_ops_attribute_none(self):
        state = _shared_state()
        session = state.create_session()
        for frame in ('{"id": 1, "op": "hello"}', '{"id": 2, "op": "stats"}'):
            _, meta = state.handle_frame(session, frame)
            assert meta["ok"] is True
            assert meta["tier"] == "none"


# ----------------------------------------------------------------------
# Live endpoints: /metrics, /healthz, stats_stream
# ----------------------------------------------------------------------
def _run_live(scenario):
    config = ServerConfig(settle_steps=0)
    with ReproServer(figure3_trace(), config) as server:
        asyncio.run(scenario(server, config))


class TestMetricsEndpoint:
    def test_exposition_is_valid_and_covers_the_registry(self):
        async def scenario(server, config):
            client = await WsClient.connect(config.host, server.port)
            try:
                await client.request("hello")
                await client.request("scrub", start=0.25, end=0.75)
            finally:
                await client.close()
            # Scrape twice: the first scrape itself mints the
            # `http.metrics` op metrics, which the second then carries.
            await http_get(config.host, server.port, "/metrics")
            status, body = await http_get(config.host, server.port,
                                          "/metrics")
            assert status == 200
            samples = parse_exposition(body.decode("utf-8"))
            names = {s.name for s in samples}
            # Every request-histogram family part is present...
            assert f"{REQUEST_FAMILY}_bucket" in names
            assert f"{REQUEST_FAMILY}_count" in names
            assert f"{REQUEST_FAMILY}_sum" in names
            # ...and every metric registered at render time made it
            # into the exposition under its prometheus-sanitized name.
            for metric in registry:
                kind = type(metric).__name__
                family = prom_name(metric.name)
                if kind == "Timer":
                    expected = f"{family}_seconds_count"
                elif kind == "Histogram":
                    expected = f"{family}_bucket"
                else:  # Counter / Gauge
                    expected = family
                assert expected in names, (
                    f"{kind} {metric.name!r} missing from /metrics"
                )
            for group_name in registry.group_names():
                for group in registry.groups(group_name):
                    for key, value in group.items():
                        if not isinstance(value, (int, float)):
                            continue
                        family = prom_name(f"{group_name}.{key}")
                        assert family in names, (
                            f"stat-group key {group_name}.{key} "
                            "missing from /metrics"
                        )

            by_op = {}
            for s in samples:
                if s.name == f"{REQUEST_FAMILY}_bucket":
                    by_op.setdefault(s.label("op"), []).append(s)
            for op in ("hello", "scrub"):
                assert op in by_op, f"no buckets for op {op!r}"
                series = sorted(by_op[op], key=lambda s: float(
                    "inf" if s.label("le") == "+Inf" else s.label("le")))
                values = [s.value for s in series]
                # Cumulative buckets are monotone and end at +Inf==count.
                assert values == sorted(values)
                assert series[-1].label("le") == "+Inf"
                count = [s for s in samples
                         if s.name == f"{REQUEST_FAMILY}_count"
                         and s.label("op") == op][0]
                assert series[-1].value == count.value

        _run_live(scenario)

    def test_histogram_series_reassembles_per_op(self):
        async def scenario(server, config):
            client = await WsClient.connect(config.host, server.port)
            try:
                for i in range(3):
                    await client.request("scrub", start=0.0, end=1.0 + i)
            finally:
                await client.close()
            _, body = await http_get(config.host, server.port, "/metrics")
            series = histogram_series(
                parse_exposition(body.decode()), REQUEST_FAMILY, by="op"
            )
            bounds, counts = series["scrub"]
            assert sum(counts) == 3
            assert len(counts) == len(bounds) + 1

        _run_live(scenario)

    def test_no_metrics_flag_turns_the_endpoint_off(self):
        config = ServerConfig(settle_steps=0, metrics=False)
        with ReproServer(figure3_trace(), config) as server:
            status, _ = asyncio.run(
                http_get(config.host, server.port, "/metrics")
            )
            assert status == 404
            assert server.state.stats["errors.bad_request"] >= 1


class TestHealthz:
    def test_readiness_payload(self):
        async def scenario(server, config):
            client = await WsClient.connect(config.host, server.port)
            try:
                status, body = await http_get(config.host, server.port,
                                              "/healthz")
                assert status == 200
                payload = json.loads(body)
                assert payload["ok"] is True
                assert payload["sessions"] == 1
                assert payload["max_sessions"] == config.max_sessions
                assert payload["uptime_s"] >= 0
                assert {"cache_entries", "requests"} <= set(payload)
            finally:
                await client.close()

        _run_live(scenario)


class TestStatsStream:
    def test_pushes_arrive_with_sequence_numbers(self):
        async def scenario(server, config):
            client = await WsClient.connect(config.host, server.port)
            try:
                await client.request("scrub", start=0.25, end=0.75)
                pushes = await client.stream_stats(interval=0.01, count=3)
            finally:
                await client.close()
            assert [p["seq"] for p in pushes] == [0, 1, 2]
            for push in pushes:
                assert push["push"] == "stats"
                assert "id" not in push  # pushes are not replies
                assert push["data"]["uptime_s"] >= 0
                assert isinstance(push["data"]["stats"], dict)
                assert all(
                    math.isfinite(v)
                    for v in push["data"]["stats"].values()
                )

        _run_live(scenario)

    def test_bad_subscription_is_refused_typed(self):
        async def scenario(server, config):
            client = await WsClient.connect(config.host, server.port)
            try:
                envelope = await client.request(
                    "stats_stream", interval=-1.0
                )
                assert envelope["ok"] is False
                assert envelope["error"]["code"] == "bad_request"
                with pytest.raises(WebSocketError, match="refused"):
                    await client.stream_stats(count=10**9)
            finally:
                await client.close()

        _run_live(scenario)


# ----------------------------------------------------------------------
# The self-trace
# ----------------------------------------------------------------------
class TestServerRecorder:
    def _populated(self) -> ServerRecorder:
        recorder = ServerRecorder()
        t = 0.0
        for i in range(4):
            recorder.record(_record(
                op="scrub", began_s=t, wall=0.01,
                tier="shared" if i % 2 else "fresh",
                session=f"s{i % 2 + 1}",
            ))
            t += 0.05
        recorder.record(_record(op="hello", began_s=t, wall=0.001,
                                tier="none", session="s1"))
        return recorder

    def test_trace_has_session_and_tier_entities(self):
        trace = self._populated().build_trace()
        kinds = {e.kind for e in trace}
        assert kinds == {"session", "tier"}
        sessions = [e for e in trace if e.kind == "session"]
        tiers = [e for e in trace if e.kind == "tier"]
        assert {e.name for e in sessions} == {"s1", "s2"}
        assert {e.name for e in tiers} <= set(CACHE_TIERS)
        assert trace.meta["generator"] == "repro.server.telemetry"
        assert trace.meta["requests"] == 5

    def test_round_trips_and_renders(self):
        from repro.core.render.svg import SvgRenderer

        trace = self._populated().build_trace()
        reloaded = trace_loads(trace_dumps(trace))
        session = AnalysisSession(reloaded, seed=0)
        view = session.view(settle_steps=1)
        markup = SvgRenderer().render(view)
        assert markup.startswith("<svg") and len(view) > 0

    def test_states_feed_the_timeline(self):
        trace = self._populated().build_trace()
        timeline = Timeline.from_trace(trace)
        assert {"s1", "s2"} <= set(timeline.rows)
        assert timeline.time_in_state("s1", "scrub") > 0

    def test_full_recorder_keeps_the_latest_records(self):
        recorder = ServerRecorder(max_records=3)
        for i in range(7):
            recorder.record(_record(began_s=float(i)))
        assert [r.began_s for r in recorder.records] == [4.0, 5.0, 6.0]
        assert recorder.dropped == 4

    def test_ring_bound_drops_oldest_but_keeps_counting(self):
        recorder = ServerRecorder(max_records=3)
        for i in range(7):
            recorder.record(_record(began_s=float(i)))
        assert len(recorder.records) == 3
        assert recorder.dropped == 4
        trace = recorder.build_trace()
        assert trace.meta["dropped_records"] == 4
