"""Tests for the command-line interface (python -m repro ...)."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.trace import read_trace, write_trace
from repro.trace.synthetic import figure1_trace, random_hierarchical_trace


@pytest.fixture()
def trace_file(tmp_path):
    path = tmp_path / "trace.txt"
    write_trace(figure1_trace(), path)
    return path


@pytest.fixture()
def grid_file(tmp_path):
    path = tmp_path / "grid.txt"
    write_trace(random_hierarchical_trace(n_sites=3, seed=1), path)
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestInfo:
    def test_info_summary(self, trace_file, capsys):
        assert main(["info", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "entities : 3" in out
        assert "host" in out and "link" in out
        assert "span     : [0, 12]" in out

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        assert main(["info", str(tmp_path / "missing.txt")]) == 1
        assert "error:" in capsys.readouterr().err


class TestRender:
    def test_ascii_to_stdout(self, trace_file, capsys):
        assert main(["render", str(trace_file), "--steps", "20"]) == 0
        out = capsys.readouterr().out
        assert "HostA [host]" in out

    def test_svg_to_file(self, trace_file, tmp_path, capsys):
        out_path = tmp_path / "view.svg"
        code = main(
            ["render", str(trace_file), "--out", str(out_path),
             "--labels", "--heat", "--steps", "20"]
        )
        assert code == 0
        assert out_path.read_text().startswith("<svg")
        assert "3 nodes" in capsys.readouterr().out

    def test_slice_option(self, trace_file, capsys):
        assert main(
            ["render", str(trace_file), "--slice", "0", "4", "--steps", "5"]
        ) == 0
        assert "slice [0, 4]" in capsys.readouterr().out

    def test_depth_option(self, grid_file, tmp_path):
        out_path = tmp_path / "sites.svg"
        assert main(
            ["render", str(grid_file), "--depth", "2", "--out", str(out_path),
             "--steps", "20"]
        ) == 0
        assert out_path.exists()


class TestAnimate:
    def test_frames_written(self, trace_file, tmp_path, capsys):
        out_dir = tmp_path / "frames"
        code = main(
            ["animate", str(trace_file), "--out-dir", str(out_dir),
             "--frames", "3"]
        )
        assert code == 0
        frames = sorted(out_dir.glob("frame_*.svg"))
        assert len(frames) == 3


class TestAnomalies:
    def test_no_findings(self, trace_file, capsys):
        assert main(["anomalies", str(trace_file)]) == 0
        assert "no anomalies" in capsys.readouterr().out

    def test_findings_printed(self, tmp_path, capsys):
        from repro.trace import CAPACITY, USAGE, TraceBuilder

        b = TraceBuilder()
        for c in range(6):
            for h in range(2):
                name = f"c{c}h{h}"
                b.declare_entity(name, "host", ("g", f"c{c}", name))
                b.set_constant(name, CAPACITY, 100.0)
                b.set_constant(name, USAGE, 95.0 if c == 5 else 10.0)
        b.set_meta("end_time", 1.0)
        path = tmp_path / "hot.txt"
        write_trace(b.build(), path)
        assert main(["anomalies", str(path), "--z", "1.5"]) == 0
        assert "g/c5" in capsys.readouterr().out


class TestTimelineCommand:
    @pytest.fixture()
    def state_trace_file(self, tmp_path):
        from repro.platform import Host, Link, Platform
        from repro.simulation import Simulator, UsageMonitor

        p = Platform()
        p.add_host(Host("a", 100.0))
        p.add_host(Host("b", 100.0))
        p.add_link(Link("l", 1000.0), "a", "b")
        monitor = UsageMonitor(p, record_states=True, record_messages=True)
        sim = Simulator(p, monitor)

        def producer(ctx):
            yield ctx.execute(100.0)
            yield ctx.send("b", 500.0, "m")

        def consumer(ctx):
            yield ctx.recv("m")

        sim.spawn(producer, "a", "prod")
        sim.spawn(consumer, "b", "cons")
        sim.run()
        path = tmp_path / "states.txt"
        write_trace(monitor.build_trace(), path)
        return path

    def test_ascii_timeline(self, state_trace_file, capsys):
        assert main(["timeline", str(state_trace_file)]) == 0
        out = capsys.readouterr().out
        assert "prod" in out and "#" in out

    def test_svg_timeline(self, state_trace_file, tmp_path):
        out = tmp_path / "gantt.svg"
        assert main(["timeline", str(state_trace_file), "--out", str(out)]) == 0
        assert out.read_text().startswith("<svg")

    def test_by_host_rows(self, state_trace_file, capsys):
        assert main(["timeline", str(state_trace_file), "--by-host"]) == 0
        assert "a " in capsys.readouterr().out

    def test_timeline_without_states_errors(self, trace_file, capsys):
        assert main(["timeline", str(trace_file)]) == 1
        assert "error:" in capsys.readouterr().err


class TestTreemapCommand:
    def test_treemap_svg(self, grid_file, tmp_path, capsys):
        out = tmp_path / "tm.svg"
        assert main(["treemap", str(grid_file), "--out", str(out)]) == 0
        assert out.read_text().startswith("<svg")
        assert "cells" in capsys.readouterr().out

    def test_treemap_usage_metric(self, grid_file, tmp_path):
        out = tmp_path / "tm.svg"
        code = main(
            ["treemap", str(grid_file), "--out", str(out),
             "--metric", "usage", "--max-depth", "2"]
        )
        assert code == 0


class TestAnimateHtml:
    def test_html_page(self, trace_file, tmp_path, capsys):
        out = tmp_path / "anim.html"
        code = main(
            ["animate", str(trace_file), "--html", str(out), "--frames", "3"]
        )
        assert code == 0
        assert out.read_text().startswith("<!DOCTYPE html>")
        assert "3 frames" in capsys.readouterr().out

    def test_requires_exactly_one_target(self, trace_file, tmp_path, capsys):
        assert main(["animate", str(trace_file)]) == 2
        assert main(
            ["animate", str(trace_file), "--html", str(tmp_path / "a.html"),
             "--out-dir", str(tmp_path / "d")]
        ) == 2


class TestPajeInput:
    def test_info_on_paje_file(self, tmp_path, capsys):
        from repro.trace.paje import write_paje

        path = tmp_path / "t.paje"
        write_paje(figure1_trace(), path)
        assert main(["--paje", "info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "host" in out


class TestProfile:
    @pytest.fixture()
    def fig3_file(self, tmp_path):
        from repro.trace.synthetic import figure3_trace

        path = tmp_path / "fig3.txt"
        write_trace(figure3_trace(), path)
        return path

    def test_profile_writes_self_trace(self, fig3_file, tmp_path, capsys):
        out = tmp_path / "self.trace"
        code = main(
            ["profile", str(fig3_file), "--scrub", "4", "--out", str(out)]
        )
        assert code == 0
        text = capsys.readouterr().out
        for stage in ("trace.read", "agg.slice", "layout.build",
                      "layout.traverse", "render.svg", "wall"):
            assert stage in text
        assert out.exists()

    def test_self_trace_round_trips_and_renders(self, fig3_file, tmp_path,
                                                capsys):
        from repro.trace import read_trace

        out = tmp_path / "self.trace"
        assert main(
            ["profile", str(fig3_file), "--scrub", "4", "--out", str(out)]
        ) == 0
        capsys.readouterr()
        self_trace = read_trace(out)
        assert all(e.kind == "stage" for e in self_trace)
        assert self_trace.meta["generator"] == "repro.obs.profiler"
        # The dogfood loop: the self-trace renders like any other trace.
        assert main(["render", str(out)]) == 0
        assert "stage" in capsys.readouterr().out

    def test_profile_svg_output(self, fig3_file, tmp_path, capsys):
        out = tmp_path / "self.trace"
        svg = tmp_path / "view.svg"
        assert main(
            ["profile", str(fig3_file), "--scrub", "2",
             "--out", str(out), "--svg", str(svg)]
        ) == 0
        assert svg.read_text().startswith("<svg")

    def test_profile_chrome_export(self, fig3_file, tmp_path, capsys):
        import json

        chrome = tmp_path / "trace.json"
        assert main(
            ["profile", str(fig3_file), "--scrub", "2",
             "--out", str(tmp_path / "s.trace"), "--chrome", str(chrome)]
        ) == 0
        assert "Perfetto" in capsys.readouterr().out
        payload = json.loads(chrome.read_text())
        complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert complete, "no complete events exported"
        stages = {e["name"] for e in complete}
        assert "layout.build" in stages and "render.svg" in stages
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in complete)

    def test_profile_jsonl_and_snapshot_export(self, fig3_file, tmp_path,
                                               capsys):
        from repro.obs import read_jsonl_spans

        jsonl = tmp_path / "spans.jsonl"
        snap = tmp_path / "snap.txt"
        assert main(
            ["profile", str(fig3_file), "--scrub", "2",
             "--out", str(tmp_path / "s.trace"),
             "--jsonl", str(jsonl), "--snapshot", str(snap)]
        ) == 0
        out = capsys.readouterr().out
        assert "streamed" in out
        spans = read_jsonl_spans(jsonl)
        assert {s["name"] for s in spans} >= {"agg.slice", "layout.build"}
        assert all(s["dur_s"] >= 0.0 for s in spans)
        text = snap.read_text()
        assert "layout.build.count" in text
        assert "agg.views" in text  # stat groups fold into the dump

    def test_profile_leaves_obs_disabled(self, fig3_file, tmp_path):
        from repro.obs import enabled

        was = enabled()
        main(["profile", str(fig3_file), "--scrub", "2",
              "--out", str(tmp_path / "s.trace")])
        assert enabled() == was


class TestCausal:
    def test_master_worker_summary(self, capsys):
        assert main(["causal", "master-worker", "--workers", "2",
                     "--tasks", "4"]) == 0
        out = capsys.readouterr().out
        assert "causal trace of master-worker" in out
        assert "causal edges" in out
        assert "critical path" in out
        assert "top" in out and "latency edges" in out

    def test_stencil_summary(self, capsys):
        assert main(["causal", "stencil", "--grid", "3", "3",
                     "--iterations", "2", "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "causal trace of stencil" in out
        assert "top 2 latency edges:" in out

    def test_chrome_export_has_matched_flow_pairs(self, tmp_path, capsys):
        import json

        chrome = tmp_path / "causal.json"
        assert main(["causal", "master-worker", "--workers", "2",
                     "--tasks", "2", "--chrome", str(chrome)]) == 0
        payload = json.loads(chrome.read_text())
        events = payload["traceEvents"]
        start_ids = sorted(e["id"] for e in events if e.get("ph") == "s")
        end_ids = sorted(e["id"] for e in events if e.get("ph") == "f")
        assert start_ids and start_ids == end_ids
        assert any(e.get("ph") == "X" for e in events)
        assert str(chrome) in capsys.readouterr().out

    def test_trace_export_round_trips(self, tmp_path, capsys):
        out = tmp_path / "causal.trace"
        assert main(["causal", "stencil", "--iterations", "2",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["info", str(out)]) == 0
        info = capsys.readouterr().out
        assert "process : 9" in info.replace("  ", " ")
        assert main(["timeline", str(out)]) == 0


class TestLatency:
    def test_master_worker_tables(self, capsys):
        assert main(["latency", "master-worker", "--workers", "2",
                     "--tasks", "4"]) == 0
        out = capsys.readouterr().out
        assert "latency attribution of master-worker" in out
        assert "conservation" in out
        assert "processes by caused latency:" in out
        assert "links by caused latency:" in out
        assert "path 1:" in out

    def test_stencil_tables(self, capsys):
        assert main(["latency", "stencil", "--grid", "3", "3",
                     "--iterations", "2", "--top", "3", "--paths", "2"]) == 0
        out = capsys.readouterr().out
        assert "latency attribution of stencil" in out
        assert "top 3 processes by caused latency:" in out

    def test_svg_topology_colored_by_attribution(self, tmp_path, capsys):
        svg = tmp_path / "latency.svg"
        assert main(["latency", "master-worker", "--workers", "2",
                     "--tasks", "2", "--svg", str(svg)]) == 0
        out = capsys.readouterr().out
        assert str(svg) in out and "caused-latency rate range" in out
        markup = svg.read_text()
        assert markup.startswith("<svg")
        assert "caused latency" in markup  # the title

    def test_bands_timeline(self, tmp_path, capsys):
        svg = tmp_path / "bands.svg"
        assert main(["latency", "master-worker", "--workers", "2",
                     "--tasks", "4", "--bands", str(svg),
                     "--slices", "16"]) == 0
        assert "bands over" in capsys.readouterr().out
        assert "<line" in svg.read_text()

    def test_derived_trace_export_round_trips(self, tmp_path, capsys):
        out = tmp_path / "attribution.trace"
        assert main(["latency", "master-worker", "--workers", "2",
                     "--tasks", "2", "--out", str(out),
                     "--bins", "8"]) == 0
        capsys.readouterr()
        trace = read_trace(out)
        assert trace.entities("host") and trace.entities("link")
        assert "caused_latency" in trace.metric_names()

    def test_bad_workers_is_usage_error(self, capsys):
        assert main(["latency", "master-worker", "--workers", "0"]) == 2
        assert "--workers" in capsys.readouterr().err

    def test_invalid_workers_is_an_error(self, capsys):
        assert main(["causal", "master-worker", "--workers", "0"]) == 2
        assert "workers" in capsys.readouterr().err


class TestConvert:
    def test_convert_then_info_round_trip(self, trace_file, tmp_path, capsys):
        """convert writes an .rtrace that every reading command accepts."""
        out = tmp_path / "t.rtrace"
        assert main(["convert", str(trace_file), str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "wrote" in stdout and "entities" in stdout
        assert out.stat().st_size > 0
        # The store is sniffed by magic: info works without any flag.
        assert main(["info", str(out)]) == 0
        assert "entities : 3" in capsys.readouterr().out

    def test_convert_render_from_store(self, trace_file, tmp_path, capsys):
        out = tmp_path / "t.rtrace"
        assert main(["convert", str(trace_file), str(out)]) == 0
        capsys.readouterr()
        assert main(["render", str(out), "--steps", "5"]) == 0
        assert "HostA [host]" in capsys.readouterr().out

    def test_convert_paje_input(self, tmp_path, capsys):
        from repro.trace.paje import write_paje
        from repro.trace.store import open_store

        src = tmp_path / "t.paje"
        write_paje(figure1_trace(), src)
        out = tmp_path / "t.rtrace"
        assert main(["convert", str(src), str(out)]) == 0
        assert sorted(open_store(out).entity_names()) == sorted(
            e.name for e in figure1_trace()
        ) + ["root"]

    def test_convert_explicit_input_format(self, trace_file, tmp_path):
        out = tmp_path / "t.rtrace"
        assert main(
            ["convert", str(trace_file), str(out), "--input-format", "repro"]
        ) == 0
        assert out.stat().st_size > 0

    def test_convert_missing_input_is_an_error(self, tmp_path, capsys):
        code = main(
            ["convert", str(tmp_path / "no.trace"), str(tmp_path / "o.rtrace")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_converted_values_match_text_parse(self, grid_file, tmp_path):
        from repro.trace import read_trace
        from repro.trace.store import open_store

        out = tmp_path / "grid.rtrace"
        assert main(["convert", str(grid_file), str(out)]) == 0
        original = read_trace(grid_file)
        mirror = open_store(out).open_trace()
        for entity in original:
            twin = mirror.entity(entity.name)
            for metric, signal in entity.metrics.items():
                assert twin.metrics[metric] == signal


class TestServe:
    def test_selfcheck_passes(self, grid_file, capsys):
        """--selfcheck runs a concurrent load + differential and exits 0."""
        code = main(
            ["serve", str(grid_file), "--selfcheck", "--settle-steps", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "differential        OK" in out
        assert "selfcheck: OK" in out

    def test_selfcheck_from_store(self, grid_file, tmp_path, capsys):
        """serve sniffs .rtrace input like every other subcommand."""
        store = tmp_path / "grid.rtrace"
        assert main(["convert", str(grid_file), str(store)]) == 0
        capsys.readouterr()
        assert main(
            ["serve", str(store), "--selfcheck", "--settle-steps", "1"]
        ) == 0
        assert "selfcheck: OK" in capsys.readouterr().out

    def test_missing_trace_is_an_error(self, tmp_path, capsys):
        assert main(["serve", str(tmp_path / "no.trace"), "--selfcheck"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve", "t.trace"])
        assert args.port == 8722
        assert args.max_sessions == 64
        assert not args.selfcheck
        assert args.access_log is None
        assert args.metrics is True
        assert args.self_trace is None

    def test_parser_observability_flags(self):
        args = build_parser().parse_args(
            ["serve", "t.trace", "--access-log", "a.jsonl",
             "--no-metrics", "--self-trace", "self.trace"]
        )
        assert str(args.access_log) == "a.jsonl"
        assert args.metrics is False
        assert str(args.self_trace) == "self.trace"

    def test_selfcheck_exercises_observability(self, grid_file, capsys):
        """--selfcheck probes /metrics and stats_stream on a live
        instance, and the report carries the per-op breakdown."""
        code = main(
            ["serve", str(grid_file), "--selfcheck", "--settle-steps", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "observability selfcheck (/metrics + stats_stream): OK" in out
        assert "per-op server latency" in out
        assert "scrub" in out

    def test_daemon_writes_access_log_and_self_trace(
        self, grid_file, tmp_path
    ):
        """A real daemon, terminated with SIGTERM, leaves behind the
        JSONL access log and a renderable self-trace."""
        import asyncio
        import json
        import os
        import re
        import signal
        import subprocess
        import sys

        from repro.server.client import http_get

        access = tmp_path / "access.jsonl"
        self_trace = tmp_path / "self.trace"
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{src}{os.pathsep}" + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(grid_file),
             "--port", "0", "--settle-steps", "0",
             "--access-log", str(access), "--self-trace", str(self_trace)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        try:
            line = proc.stdout.readline()
            assert "serving" in line, line
            match = re.search(r"http://[\d.]+:(\d+)", line)
            assert match is not None, line
            port = int(match.group(1))
            status, _ = asyncio.run(http_get("127.0.0.1", port, "/healthz"))
            assert status == 200
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        lines = [json.loads(l) for l in access.read_text().splitlines()]
        assert lines and lines[0]["op"] == "http.healthz"
        trace = read_trace(self_trace)
        assert trace.meta["generator"] == "repro.server.telemetry"
        assert any(e.kind == "session" for e in trace)

    def test_sigterm_with_an_open_session_exits_cleanly(
        self, trace_file, tmp_path
    ):
        """SIGTERM while a WebSocket session is open: the server sends
        the client a close frame, closes the session, exits 0 without a
        traceback and still writes its self-trace."""
        import asyncio
        import os
        import re
        import signal
        import subprocess
        import sys

        from repro.server import WsClient

        self_trace = tmp_path / "self.trace"
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{src}{os.pathsep}" + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(trace_file),
             "--port", "0", "--settle-steps", "0",
             "--self-trace", str(self_trace)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env,
        )

        async def hold_a_session(port: int) -> str | None:
            client = await WsClient.connect("127.0.0.1", port)
            try:
                await client.request("hello")
                proc.send_signal(signal.SIGTERM)
                return await client.ws.recv_text()  # None: closed by peer
            finally:
                await client.close()

        try:
            line = proc.stdout.readline()
            match = re.search(r"http://[\d.]+:(\d+)", line)
            assert match is not None, line
            assert asyncio.run(hold_a_session(int(match.group(1)))) is None
            _, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)
        assert proc.returncode == 0
        assert "Traceback" not in err, err
        assert any(e.kind == "session" for e in read_trace(self_trace))


class TestTop:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["top", "http://127.0.0.1:8722"])
        assert args.interval == 1.0
        assert args.iterations == 0

    def test_unreachable_server_is_an_error(self, capsys):
        assert main(["top", "http://127.0.0.1:9", "--iterations", "1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_polls_metrics_into_a_per_op_table(self, grid_file, capsys):
        import asyncio

        from repro.server import ReproServer, ServerConfig, WsClient

        trace = read_trace(grid_file)
        config = ServerConfig(settle_steps=0)

        async def drive(port):
            client = await WsClient.connect(config.host, port)
            try:
                await client.request("hello")
                await client.request("scrub", start=0.0, end=1.0)
                await client.request("bye")
            finally:
                await client.close()

        with ReproServer(trace, config) as server:
            asyncio.run(drive(server.port))
            code = main(
                ["top", f"http://127.0.0.1:{server.port}",
                 "--interval", "0.05", "--iterations", "2"]
            )
        assert code == 0
        out = capsys.readouterr().out
        assert "poll 1" in out and "poll 2" in out
        assert "p95_ms" in out
        assert "scrub" in out and "hello" in out


class TestLoadtest:
    def test_in_process_load_with_report(self, grid_file, tmp_path, capsys):
        import json

        report_path = tmp_path / "load.json"
        code = main(
            ["loadtest", str(grid_file), "--sessions", "2", "--moves", "6",
             "--settle-steps", "1", "--differential",
             "--report", str(report_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "latency p95" in out
        assert "differential        OK" in out
        report = json.loads(report_path.read_text())
        assert report["sessions"] == 2
        assert report["differential"]["ok"] is True
        assert report["cache"]["cross_hits"] > 0
        assert report["latency"]["p50_s"] <= report["latency"]["p95_s"]

    def test_differential_failure_exits_4(self, grid_file, monkeypatch, capsys):
        """A diverging payload must fail loudly, not average out."""
        import repro.cli as cli_module
        import repro.server as server_module

        real_run_load = server_module.run_load

        def poisoned_run_load(*args_, **kwargs):
            report = real_run_load(*args_, **kwargs)
            report["differential"] = {"checked": 1, "mismatches": 1,
                                      "ok": False}
            return report

        monkeypatch.setattr(server_module, "run_load", poisoned_run_load)
        code = main(
            ["loadtest", str(grid_file), "--sessions", "1", "--moves", "3",
             "--settle-steps", "1", "--differential"]
        )
        assert code == 4
        assert "FAILED" in capsys.readouterr().err
