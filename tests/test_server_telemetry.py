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
from repro.errors import ReproError
from repro.obs import parse_exposition, registry
from repro.obs.expo import histogram_series, prom_name
from repro.obs.registry import latency_summary
from repro.server.app import ReproServer
from repro.server.client import WsClient, http_get, scrape_breakdown
from repro.server.load import default_group_paths, make_storm, run_load
from repro.server.protocol import ERROR_CODES
from repro.server.state import ServerConfig, SharedServerState
from repro.server.telemetry import (
    CACHE_TIERS,
    REQUEST_HISTOGRAM,
    RequestRecord,
    ServerRecorder,
    ServerTelemetry,
    _breakdown_between,
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


def _request_states() -> dict:
    """``{op: (bounds, histogram state)}`` of the registry's per-op
    request histograms, the shape a ``/metrics`` scrape reads."""
    return {
        dict(h.labels)["op"]: (h.bounds, h.state())
        for h in registry.histograms()
        if h.name == REQUEST_HISTOGRAM
    }


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
            reply, meta = state.handle_frame(session, frame)
            envelope = json.loads(reply)
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
        assert stats == {"bytes_in": 80, "bytes_out": 1020}
        h = registry.histogram(REQUEST_HISTOGRAM, op="scrub")
        assert h.count == 1 and h.sum == pytest.approx(0.003)
        assert registry.histogram(REQUEST_HISTOGRAM, op="hello").count == 1
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
            scrubs = registry.histogram(REQUEST_HISTOGRAM, op="scrub")
            assert scrubs.count == 20
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

    def test_format_breakdown_is_a_table(self):
        telemetry = ServerTelemetry({})
        telemetry.observe(_record(op="scrub"))
        text = format_breakdown(_breakdown_between({}, _request_states()))
        assert "scrub" in text and "p95" in text
        assert format_breakdown({}) == "  (no requests observed)"

    def test_server_stat_group_has_no_per_op_keys(self):
        """The per-op request histogram is the one per-op request count;
        the ``server`` stat group keeps none beside it."""
        async def scenario(server, config):
            client = await WsClient.connect(config.host, server.port)
            try:
                await client.request("hello")
                await client.request("scrub", start=0.0, end=1.0)
            finally:
                await client.close()
            _, body = await http_get(config.host, server.port, "/stats")
            stats = json.loads(body)["server"]
            assert stats["requests"] == 2
            assert not [key for key in stats if key.startswith("ops.")]

        _run_live(scenario)


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
                else:  # Counter
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

    def test_scrape_agrees_with_the_in_process_breakdown(self):
        """One latency summary on both sides of the wire: the per-op
        rows between two /metrics scrapes equal ``latency_summary`` over
        the registry's histogram states taken around the same requests,
        because the exposition prints bucket bounds that round-trip."""

        async def scenario(server, config):
            before = await scrape_breakdown(config.host, server.port)
            states_before = _request_states()
            client = await WsClient.connect(config.host, server.port)
            try:
                await client.request("hello")
                for i in range(5):
                    await client.request("scrub", start=0.1 * i, end=1.0)
                await client.request("bye")
            finally:
                await client.close()
            states_after = _request_states()
            after = await scrape_breakdown(config.host, server.port)
            scraped = _breakdown_between(before, after)
            for op in ("hello", "scrub", "bye"):
                bounds, state = states_after[op]
                since = states_before.get(op, (None, None))[1]
                assert scraped[op] == latency_summary(bounds, state, since)
            assert scraped["scrub"]["count"] == 5

        _run_live(scenario)


class TestLoadReport:
    """``run_load`` reads the server only over its endpoints: counters
    from one ``GET /stats`` after the storm, per-op latency from two
    ``/metrics`` scrapes around it, however the server is hosted."""

    def test_in_process_report_is_a_stats_reading(self, monkeypatch):
        """The report's ``cache`` and ``server`` equal a ``GET /stats``
        taken right after the run, but for the two HTTP requests that
        follow the run's own reading: its closing ``/metrics`` scrape
        and that ``GET``."""
        later = {}
        real_exit = ReproServer.__exit__

        def read_stats_then_exit(self, *exc):
            _, body = asyncio.run(
                http_get(self.config.host, self.port, "/stats")
            )
            later.update(json.loads(body))
            real_exit(self, *exc)

        monkeypatch.setattr(ReproServer, "__exit__", read_stats_then_exit)
        report = run_load(
            trace=figure3_trace(), sessions=2, moves=6, settle_steps=0
        )
        assert report["cache"] == later["cache"]
        assert set(report["server"]) == set(later["server"])
        http_moved = {"http_requests", "bytes_in", "bytes_out"}
        for key in set(later["server"]) - http_moved:
            assert report["server"][key] == later["server"][key], key
        assert later["server"]["http_requests"] == (
            report["server"]["http_requests"] + 2
        )

    def test_consecutive_runs_report_their_own_interval(self):
        """Runs in one process share the registry's request histograms;
        each run reports only its own requests, its opening ``/metrics``
        scrape and its ``/stats`` reading among them."""
        trace = figure3_trace()
        for moves in (6, 10):
            storm = make_storm(
                trace.span(), moves=moves, seed=7,
                group_paths=default_group_paths(trace),
            )
            report = run_load(
                trace=trace, sessions=2, moves=moves, settle_steps=0
            )
            ops = report["server_ops"]
            scrubs = sum(move["op"] == "scrub" for move in storm)
            assert ops["scrub"]["count"] == 2 * scrubs
            assert ops["hello"]["count"] == ops["bye"]["count"] == 2
            assert ops["http.metrics"]["count"] == 1
            assert ops["http.stats"]["count"] == 1

    def test_in_process_and_url_reports_have_the_same_keys(self):
        trace = figure3_trace()
        load = dict(trace=trace, sessions=2, moves=6, settle_steps=0)
        in_process = run_load(**load)
        with ReproServer(trace, ServerConfig(settle_steps=0)) as server:
            by_url = run_load(url=server.url, **load)
        assert set(in_process) == set(by_url)
        assert set(in_process["server"]) == set(by_url["server"])
        assert set(in_process["server_ops"]) == set(by_url["server_ops"])
        assert in_process["server_ops"]["scrub"]["count"] == (
            by_url["server_ops"]["scrub"]["count"]
        )

    def test_no_sessions_is_refused_before_a_server_starts(
        self, monkeypatch
    ):
        def no_server(*args, **kwargs):
            raise AssertionError("a server was started")

        monkeypatch.setattr("repro.server.load.ReproServer", no_server)
        for sessions in (0, -1):
            with pytest.raises(ReproError, match="at least 1 session"):
                run_load(trace=figure3_trace(), sessions=sessions, moves=3)


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
