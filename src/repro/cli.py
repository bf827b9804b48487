"""Command-line interface: render and inspect traces without code.

Usage (``python -m repro <command> ...``):

* ``info <trace>`` — entities, kinds, metrics and time span;
* ``render <trace>`` — one SVG (or ASCII) view with a chosen time slice
  and aggregation depth;
* ``animate <trace>`` — SVG frames sliding a time slice, or a single
  interactive HTML page (``--html``);
* ``timeline <trace>`` — the behavioral Gantt view (needs state events);
* ``treemap <trace>`` — the squarified treemap of one metric;
* ``anomalies <trace>`` — the multi-scale utilization outlier scan;
* ``profile <trace>`` — run a scripted view loop over the trace with
  the :mod:`repro.obs` instrumentation on, print a per-stage timing
  table and write a repro-format *self-trace* (which ``render`` can
  then visualize — the tool profiling itself).  ``--chrome``/
  ``--jsonl``/``--snapshot`` export the same run as Chrome trace-event
  JSON (Perfetto-loadable), streaming span JSONL, and a flat metrics
  dump;
* ``bench`` — run the calibrated performance suites over the hot paths
  and write schema-versioned ``BENCH_<suite>.json`` files;
  ``--compare BASELINE.json`` applies the noise-aware regression gate
  and exits 3 when a median regresses beyond
  ``max(rel_tol * base, k * IQR)``;
* ``causal <app>`` — run a built-in simulated application
  (``master-worker`` or ``stencil``) with the causal tracer attached
  and print the span-DAG summary: span counts, DAG depth, the
  critical-path decomposition and the top-k latency edges.
  ``--chrome`` exports Chrome/Perfetto flow events (message causality
  as arrows), ``--out`` writes the span DAG as an ordinary repro trace
  that ``render``/``timeline`` can visualize;
* ``latency <app>`` — run the same built-in applications and print the
  latency-propagation analysis (:mod:`repro.obs.latency`): per-process
  and per-link latency/queueing-slack attribution with its
  conservation report, plus the top-k propagation paths through the
  causal DAG.  ``--svg`` renders the topology colored by *caused
  latency* (the derived metrics flow through Equation 1, so ``--depth``
  aggregates them like any other metric), ``--bands`` renders the
  band-mode timeline (aggregated communication bands instead of
  per-message arrows), ``--out`` writes the attribution as a repro
  trace whose ``caused_latency`` / ``queue_slack`` / ``msg_count``
  signals every other subcommand (and the server) can aggregate;
* ``convert <trace> <out.rtrace>`` — convert a text trace to the binary
  columnar store format (:mod:`repro.trace.store`); every other
  subcommand then opens the ``.rtrace`` file through ``numpy.memmap``
  instead of re-parsing text;
* ``serve <trace>`` — the multi-session analysis server
  (:mod:`repro.server`): load the trace once, serve many concurrent
  WebSocket sessions (slice scrubs, group/ungroup, SVG tiles) plus the
  ``/healthz`` / ``/info`` / ``/stats`` / ``/metrics`` / ``/render``
  HTTP endpoints.  ``--access-log`` appends one JSON line per request,
  ``--self-trace`` writes the server's own request activity as a repro
  trace on shutdown (render it with ``repro render``), and
  ``--selfcheck`` runs a small in-process concurrent load with the
  differential byte-comparison plus a live probe of ``/metrics`` and
  the ``stats_stream`` push op instead of serving (exit 4 on failure);
* ``loadtest <trace>`` — drive a server (in-process by default, or a
  running one via ``--url``) with N concurrent scrub-storm sessions;
  prints p50/p95/p99 latency, the shared-cache counters and the
  per-op server-side latency breakdown from the request histograms,
  ``--differential`` byte-compares every concurrent payload against
  fresh isolated sessions (exit 4 on mismatch), ``--report`` writes
  the JSON report;
* ``top <url>`` — live per-op latency table for a running server:
  polls ``GET /metrics``, reassembles the request histograms from the
  exposition and prints count / request rate / p50 / p95 / p99 per op
  every ``--interval`` seconds (``--iterations`` bounds the loop).

Traces are files in the ``repro`` text format (see
:mod:`repro.trace.writer`), in the binary columnar store format
(``.rtrace``, recognized by its magic bytes) or in the Paje format used
by the original tool ecosystem (a ``.paje`` suffix or a ``%EventDef``
preamble, :func:`repro.trace.store.is_paje_file`).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.constants import AUTO_BAND_THRESHOLD
from repro.errors import ReproError

# Each command imports the library code it needs, so a command loads
# only its own part of the pipeline (``convert`` never loads the trace
# model or the aggregation, layout or analysis code).

__all__ = ["main", "build_parser"]


def _add_app_flags(p: argparse.ArgumentParser) -> None:
    """The built-in traced-application flags shared by ``causal`` and
    ``latency``."""
    p.add_argument("app", choices=("master-worker", "stencil"),
                   help="which simulated application to trace")
    p.add_argument("--workers", type=int, default=4,
                   help="master-worker: number of worker hosts")
    p.add_argument("--tasks", type=int, default=8,
                   help="master-worker: bag-of-tasks size")
    p.add_argument("--grid", nargs=2, type=int, default=(3, 3),
                   metavar=("NX", "NY"),
                   help="stencil: logical rank grid (>= 3x3)")
    p.add_argument("--iterations", type=int, default=4,
                   help="stencil: number of halo-exchange iterations")


def _add_layout_workers(p: argparse.ArgumentParser) -> None:
    """``--layout-workers``, shared by the single-user view commands."""
    p.add_argument(
        "--layout-workers", type=int, default=1, metavar="N",
        help="Barnes-Hut processes (default 1, this process; a power of "
             "two above 1 splits repulsion across worker processes and "
             "gives the same positions bit for bit)")


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for the repro CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Scalable topology-based visualization of distributed-"
        "system traces (ISPASS 2013 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="summarize a trace file")
    info.add_argument("trace", type=Path)

    render = sub.add_parser("render", help="render one topology view")
    render.add_argument("trace", type=Path)
    render.add_argument("--out", type=Path, default=None,
                        help="SVG output path (default: ASCII to stdout)")
    render.add_argument("--slice", nargs=2, type=float, metavar=("START", "END"),
                        default=None, help="time slice (default: whole trace)")
    render.add_argument("--depth", type=int, default=0,
                        help="collapse every group at this hierarchy depth")
    render.add_argument("--labels", action="store_true")
    render.add_argument("--heat", action="store_true",
                        help="color fills on a green-to-red utilization ramp")
    render.add_argument("--seed", type=int, default=0)
    render.add_argument("--steps", type=int, default=300,
                        help="max layout settle steps")
    _add_layout_workers(render)

    animate = sub.add_parser("animate", help="render sliding-slice frames")
    animate.add_argument("trace", type=Path)
    animate.add_argument("--out-dir", type=Path, default=None,
                         help="directory for per-frame SVGs")
    animate.add_argument("--html", type=Path, default=None,
                         help="write ONE interactive HTML page instead")
    animate.add_argument("--frames", type=int, default=4)
    animate.add_argument("--depth", type=int, default=0)
    animate.add_argument("--heat", action="store_true")
    animate.add_argument("--seed", type=int, default=0)
    _add_layout_workers(animate)

    timeline = sub.add_parser(
        "timeline", help="behavioral Gantt view (needs state events)"
    )
    timeline.add_argument("trace", type=Path)
    timeline.add_argument("--out", type=Path, default=None,
                          help="SVG output (default: ASCII to stdout)")
    timeline.add_argument("--by-host", action="store_true",
                          help="fold process rows onto their hosts")
    timeline.add_argument("--mode", choices=("auto", "arrows", "bands"),
                          default="auto",
                          help="communication layer: per-message arrows, "
                          "aggregated bands, or auto (bands above "
                          f"{AUTO_BAND_THRESHOLD} messages)")
    timeline.add_argument("--slices", type=int, default=64,
                          help="time slices for band aggregation")

    treemap = sub.add_parser("treemap", help="squarified treemap view")
    treemap.add_argument("trace", type=Path)
    treemap.add_argument("--out", type=Path, required=True)
    treemap.add_argument("--metric", default="capacity")
    treemap.add_argument("--max-depth", type=int, default=None)

    anomalies = sub.add_parser("anomalies", help="multi-scale outlier scan")
    anomalies.add_argument("trace", type=Path)
    anomalies.add_argument("--z", type=float, default=2.0,
                           help="z-score threshold")

    profile = sub.add_parser(
        "profile",
        help="profile the tool's own view loop; write a self-trace",
    )
    profile.add_argument("trace", type=Path)
    profile.add_argument("--scrub", type=int, default=24,
                         help="number of time-slice moves to replay")
    profile.add_argument("--out", type=Path, default=Path("self.trace"),
                         help="self-trace output path")
    profile.add_argument("--depth", type=int, default=0,
                         help="collapse every group at this hierarchy depth")
    profile.add_argument("--steps", type=int, default=300,
                         help="max layout convergence steps")
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument("--svg", type=Path, default=None,
                         help="also write the final rendered SVG here")
    profile.add_argument("--chrome", type=Path, default=None, metavar="OUT.json",
                         help="export spans as Chrome trace-event JSON "
                         "(loads in Perfetto / chrome://tracing)")
    profile.add_argument("--jsonl", type=Path, default=None, metavar="OUT.jsonl",
                         help="stream spans to a JSONL file as they complete")
    profile.add_argument("--snapshot", type=Path, default=None, metavar="OUT.txt",
                         help="dump the flat metrics snapshot after the run")
    _add_layout_workers(profile)

    bench = sub.add_parser(
        "bench",
        help="run calibrated performance suites; write BENCH_<suite>.json",
    )
    bench.add_argument("--suites", default="all",
                       help="comma-separated suite subset (default: all; "
                       "see --list)")
    bench.add_argument("--list", action="store_true",
                       help="list available suites and exit")
    bench.add_argument("--quick", action="store_true",
                       help="small sizes / few repeats (CI smoke mode; "
                       "REPRO_BENCH_QUICK=1 is equivalent)")
    bench.add_argument("--out-dir", type=Path, default=Path("."),
                       help="directory for BENCH_<suite>.json files "
                       "(default: current directory)")
    bench.add_argument("--compare", nargs="+", type=Path, default=None,
                       metavar="BASELINE",
                       help="baseline BENCH_*.json files (or directories "
                       "holding them) to gate against; exit 3 on regression")
    bench.add_argument("--rel-tol", type=float, default=0.5,
                       help="relative regression tolerance on the median "
                       "(default 0.5 = flag beyond +50%%)")
    bench.add_argument("--iqr-k", type=float, default=3.0,
                       help="noise gate: also require the regression to "
                       "exceed k * IQR (default 3.0)")

    causal = sub.add_parser(
        "causal",
        help="causally trace a built-in simulated app; print the span DAG",
    )
    _add_app_flags(causal)
    causal.add_argument("--top", type=int, default=5,
                        help="latency edges to list in the summary")
    causal.add_argument("--chrome", type=Path, default=None,
                        metavar="OUT.json",
                        help="export Chrome trace-event JSON with flow "
                        "events (causal arrows in Perfetto)")
    causal.add_argument("--out", type=Path, default=None,
                        metavar="OUT.trace",
                        help="write the span DAG as a repro-format trace "
                        "(then: repro render/timeline OUT.trace)")

    latency = sub.add_parser(
        "latency",
        help="latency attribution + propagation paths for a built-in app",
    )
    _add_app_flags(latency)
    latency.add_argument("--top", type=int, default=5,
                         help="rows in the process/link attribution tables")
    latency.add_argument("--paths", type=int, default=3,
                         help="propagation paths to extract (edge-disjoint)")
    latency.add_argument("--bins", type=int, default=32,
                         help="time bins for the derived rate signals")
    latency.add_argument("--depth", type=int, default=0,
                         help="aggregation depth for the --svg topology")
    latency.add_argument("--svg", type=Path, default=None,
                         metavar="OUT.svg",
                         help="render the topology colored by caused "
                         "latency (hosts + links, heat ramp)")
    latency.add_argument("--bands", type=Path, default=None,
                         metavar="OUT.svg",
                         help="render the band-mode timeline (aggregated "
                         "communication bands, bounded element count)")
    latency.add_argument("--slices", type=int, default=64,
                         help="time slices for --bands aggregation")
    latency.add_argument("--out", type=Path, default=None,
                         metavar="OUT.trace",
                         help="write the attribution as a repro-format "
                         "trace carrying the derived metrics")

    convert = sub.add_parser(
        "convert",
        help="convert a text trace to the binary columnar store (.rtrace)",
    )
    convert.add_argument("trace", type=Path,
                         help="input text trace (repro or Paje format)")
    convert.add_argument("out", type=Path,
                         help="output path (conventionally .rtrace)")

    serve = sub.add_parser(
        "serve",
        help="serve the trace to many concurrent analysis sessions",
    )
    serve.add_argument("trace", type=Path)
    serve.add_argument("--host", default="127.0.0.1",
                       help="interface to bind (default: loopback)")
    serve.add_argument("--port", type=int, default=8722,
                       help="TCP port (0 picks a free one; default 8722)")
    serve.add_argument("--max-sessions", type=int, default=64,
                       help="concurrent session ceiling")
    serve.add_argument("--settle-steps", type=int, default=2,
                       help="layout relaxation steps per returned view")
    serve.add_argument("--seed", type=int, default=0,
                       help="layout determinism seed for every session")
    serve.add_argument("--cache-entries", type=int, default=4096,
                       help="shared result-cache capacity, in metric "
                       "results held (a four-metric view takes four)")
    serve.add_argument("--selfcheck", action="store_true",
                       help="run a small in-process concurrent load with "
                       "the differential check, then exercise /metrics and "
                       "the stats_stream push op against a live instance; "
                       "print the report and exit 4 on any failure instead "
                       "of serving")
    serve.add_argument("--access-log", type=Path, default=None,
                       metavar="OUT.jsonl",
                       help="append one JSON line per served request here")
    serve.add_argument("--self-trace", type=Path, default=None,
                       metavar="OUT.trace",
                       help="on shutdown, write the server's own request "
                       "activity as a repro trace (sessions and cache "
                       "tiers as entities) that `repro render` can draw")

    loadtest = sub.add_parser(
        "loadtest",
        help="concurrent scrub-storm load test against a server",
    )
    loadtest.add_argument("trace", type=Path)
    loadtest.add_argument("--url", default=None, metavar="http://HOST:PORT",
                          help="a running server to drive (default: start "
                          "an in-process one)")
    loadtest.add_argument("--sessions", type=int, default=8,
                          help="concurrent WebSocket sessions")
    loadtest.add_argument("--moves", type=int, default=100,
                          help="storm length per session")
    loadtest.add_argument("--seed", type=int, default=7,
                          help="storm determinism seed")
    loadtest.add_argument("--settle-steps", type=int, default=2,
                          help="layout steps per view (must match the "
                          "server's when --url is used)")
    loadtest.add_argument("--differential", action="store_true",
                          help="byte-compare every concurrent payload "
                          "against fresh isolated sessions; exit 4 on "
                          "any mismatch")
    loadtest.add_argument("--report", type=Path, default=None,
                          metavar="OUT.json",
                          help="write the full JSON report here")

    top = sub.add_parser(
        "top",
        help="live per-op latency table for a running server "
        "(polls GET /metrics)",
    )
    top.add_argument("url", metavar="http://HOST:PORT",
                     help="base URL of a running `repro serve` instance")
    top.add_argument("--interval", type=float, default=1.0,
                     help="seconds between /metrics polls (default 1)")
    top.add_argument("--iterations", type=int, default=0, metavar="N",
                     help="stop after N polls (default: until Ctrl-C)")
    return parser


def _read(args):
    from repro.trace.store import is_paje_file, is_store_file, open_store

    if is_store_file(args.trace):
        return open_store(args.trace).open_trace()
    if is_paje_file(args.trace):
        from repro.trace.paje import read_paje

        return read_paje(args.trace)
    from repro.trace.reader import read_trace

    return read_trace(args.trace)


def _session(args):
    from repro.core import AnalysisSession

    session = AnalysisSession(
        _read(args),
        seed=args.seed,
        layout_workers=args.layout_workers,
    )
    if args.depth:
        session.aggregate_depth(args.depth)
    return session


def _cmd_info(args) -> int:
    trace = _read(args)
    start, end = trace.span()
    print(f"trace    : {args.trace}")
    print(f"entities : {len(trace)}")
    for kind in trace.kinds():
        print(f"  {kind:>8} : {len(trace.entities(kind))}")
    print(f"edges    : {len(trace.edges)}")
    print(f"events   : {len(trace.events)}")
    print(f"metrics  : {', '.join(trace.metric_names())}")
    print(f"span     : [{start:g}, {end:g}]")
    return 0


def _cmd_render(args) -> int:
    from repro.core import SvgRenderer, render_ascii

    session = _session(args)
    if args.slice:
        session.set_time_slice(args.slice[0], args.slice[1])
    view = session.view(settle_steps=args.steps)
    if args.out:
        renderer = SvgRenderer(show_labels=args.labels, heat_fill=args.heat)
        renderer.render_to_file(view, args.out, title=str(session.time_slice))
        print(f"wrote {args.out} ({len(view)} nodes)")
    else:
        print(render_ascii(view))
    session.close()
    return 0


def _cmd_animate(args) -> int:
    if (args.out_dir is None) == (args.html is None):
        print("error: pass exactly one of --out-dir or --html", file=sys.stderr)
        return 2
    from repro.core import SvgRenderer, export_animation_html

    session = _session(args)
    trace = session.trace
    start, end = trace.span()
    width = (end - start) / args.frames
    if args.html is not None:
        frames = list(session.animate(width=width))
        export_animation_html(
            frames, args.html, renderer=SvgRenderer(heat_fill=args.heat)
        )
        print(f"wrote {args.html} ({len(frames)} frames)")
        session.close()
        return 0
    args.out_dir.mkdir(parents=True, exist_ok=True)
    renderer = SvgRenderer(heat_fill=args.heat)
    for index, frame in enumerate(session.animate(width=width)):
        path = args.out_dir / f"frame_{index:03d}.svg"
        renderer.render_to_file(frame, path, title=str(frame.tslice))
        print(f"wrote {path}")
    session.close()
    return 0


def _cmd_timeline(args) -> int:
    from repro.core import Timeline

    timeline = Timeline.from_trace(
        _read(args), row_by="host" if args.by_host else "process"
    )
    if args.out:
        timeline.render_svg(args.out, mode=args.mode, slices=args.slices)
        print(f"wrote {args.out} ({len(timeline.rows)} rows, "
              f"{len(timeline.arrows)} messages, mode {args.mode})")
    else:
        print(timeline.render_ascii())
    return 0


def _cmd_treemap(args) -> int:
    from repro.core import Treemap

    treemap = Treemap.build(
        _read(args), metric=args.metric, max_depth=args.max_depth
    )
    treemap.render_svg(args.out)
    print(f"wrote {args.out} ({len(treemap)} cells)")
    return 0


def _cmd_anomalies(args) -> int:
    from repro.analysis import scan_anomalies
    from repro.core import TimeSlice

    trace = _read(args)
    start, end = trace.span()
    findings = scan_anomalies(trace, TimeSlice(start, end), z_threshold=args.z)
    if not findings:
        print("no anomalies found")
        return 0
    for finding in findings:
        print(finding)
    return 0


def _cmd_profile(args) -> int:
    from repro.core import AnalysisSession, SvgRenderer
    from repro.obs import (
        JsonlSpanSink,
        Profiler,
        write_chrome_trace,
        write_snapshot,
    )
    from repro.obs.registry import registry
    from repro.trace.writer import write_trace

    sink = JsonlSpanSink(args.jsonl) if args.jsonl else None
    with Profiler(sink=sink) as profiler:
        if sink is not None:
            sink.t0 = profiler.t0  # one clock for every export format
        trace = _read(args)
        session = AnalysisSession(
            trace, seed=args.seed, layout_workers=args.layout_workers
        )
        if args.depth:
            session.aggregate_depth(args.depth)
        start, end = trace.span()
        width = max((end - start) / 4.0, 1e-9)
        step = max((end - start - width) / max(args.scrub, 1), 1e-9)
        for move in range(args.scrub):
            lo = min(start + move * step, end - width)
            session.set_time_slice(lo, lo + width)
            session.view(settle_steps=5)
        session.set_time_slice(start, end)
        view = session.view(settle_steps=args.steps)
        markup = SvgRenderer().render(view, title=str(session.time_slice))
        if args.svg:
            args.svg.write_text(markup, encoding="utf-8")
        session.close()
    if sink is not None:
        sink.close()
        print(f"wrote {args.jsonl} ({sink.count} spans, streamed)")
    print(profiler.format_table())
    write_trace(profiler.build_trace(), args.out)
    print(f"wrote self-trace {args.out} "
          f"(render it: repro render {args.out})")
    if args.chrome:
        write_chrome_trace(profiler, args.chrome)
        print(f"wrote {args.chrome} (open in Perfetto / chrome://tracing)")
    if args.snapshot:
        write_snapshot(registry.snapshot(), args.snapshot)
        print(f"wrote {args.snapshot}")
    if args.svg:
        print(f"wrote {args.svg} ({len(view)} nodes)")
    return 0


def _bench_baselines(paths) -> dict:
    """Load --compare baseline files (or directories) keyed by suite."""
    from repro.obs import bench

    baselines = {}
    for path in paths:
        files = sorted(path.glob("BENCH_*.json")) if path.is_dir() else [path]
        if not files:
            print(f"warning: no BENCH_*.json under {path}", file=sys.stderr)
        for file in files:
            payload = bench.load_result(file)
            baselines[payload["suite"]] = payload
    return baselines


def _cmd_bench(args) -> int:
    from repro.obs import bench

    if args.list:
        for name in bench.available_suites():
            print(name)
        return 0
    if args.suites == "all":
        suites = bench.available_suites()
    else:
        suites = [s.strip() for s in args.suites.split(",") if s.strip()]
        unknown = [s for s in suites if s not in bench.available_suites()]
        if unknown:
            print(f"error: unknown suite(s): {', '.join(unknown)} "
                  f"(have: {', '.join(bench.available_suites())})",
                  file=sys.stderr)
            return 2
    quick = bench.quick_mode(args.quick)
    baselines = _bench_baselines(args.compare) if args.compare else {}
    regressed = False
    for name in suites:
        result = bench.run_suite(name, quick=quick)
        path = bench.write_result(result, args.out_dir)
        print(f"suite [{name}] ({'quick' if quick else 'full'} mode)")
        print(bench.format_result(result))
        print(f"wrote {path}")
        if args.compare:
            baseline = baselines.get(name)
            if baseline is None:
                print(f"warning: no baseline for suite {name!r}; skipping "
                      f"comparison", file=sys.stderr)
                continue
            try:
                comparisons = bench.compare_results(
                    result, baseline, rel_tol=args.rel_tol, iqr_k=args.iqr_k
                )
            except ValueError as error:
                print(f"error: {error}", file=sys.stderr)
                return 2
            print(bench.format_comparison(name, comparisons))
            if bench.has_regression(comparisons):
                regressed = True
    if regressed:
        print("performance regression detected", file=sys.stderr)
        return 3
    return 0


def _run_traced_app(args):
    """Run the chosen built-in app with a causal tracer; return the
    built :class:`~repro.obs.causal.CausalTrace` (or None after
    printing a usage error)."""
    from repro.simulation.tracing import CausalTracer

    tracer = CausalTracer()
    if args.app == "master-worker":
        from repro.apps.masterworker import AppSpec, run_master_worker
        from repro.platform.cluster import add_cluster
        from repro.platform.topology import Platform

        if args.workers < 1:
            print("error: --workers must be >= 1", file=sys.stderr)
            return None
        platform = Platform()
        add_cluster(platform, "c", args.workers + 1)
        hosts = [h.name for h in platform.hosts]
        spec = AppSpec(name="app", master=hosts[0], n_tasks=args.tasks,
                       input_bytes=1e6, task_flops=1e8)
        run_master_worker(platform, [spec], tracer=tracer)
    else:
        from repro.apps.stencil import run_stencil
        from repro.platform.regular import torus_platform

        nx, ny = args.grid
        platform = torus_platform((nx, ny))
        hosts = [h.name for h in platform.hosts]
        run_stencil(platform, hosts, (nx, ny),
                    iterations=args.iterations, tracer=tracer)
    return tracer.build()


def _cmd_causal(args) -> int:
    from repro.obs.causal import format_summary
    from repro.obs.export import write_causal_chrome_trace
    from repro.trace.writer import write_trace

    causal = _run_traced_app(args)
    if causal is None:
        return 2
    print(f"causal trace of {args.app}")
    print(format_summary(causal, top=args.top))
    if args.chrome:
        write_causal_chrome_trace(causal, args.chrome)
        print(f"wrote {args.chrome} (open in Perfetto; "
              f"arrows are causal message edges)")
    if args.out:
        write_trace(causal.to_trace(), args.out)
        print(f"wrote {args.out} (render it: repro render {args.out})")
    return 0


def _cmd_latency(args) -> int:
    from repro.core import AnalysisSession, SvgRenderer, Timeline
    from repro.obs.latency import (
        LatencyAttribution,
        format_attribution,
        format_paths,
        propagation_paths,
    )
    from repro.trace.writer import write_trace

    causal = _run_traced_app(args)
    if causal is None:
        return 2
    attribution = LatencyAttribution(causal)
    print(f"latency attribution of {args.app}")
    print(format_attribution(attribution, top=args.top))
    print(format_paths(propagation_paths(causal, k=args.paths)))
    derived = None
    if args.out or args.svg:
        derived = attribution.to_trace(bins=args.bins)
    if args.out:
        write_trace(derived, args.out)
        print(f"wrote {args.out} (aggregate it: repro render {args.out})")
    if args.svg:
        session = AnalysisSession(derived, seed=0)
        if args.depth:
            session.aggregate_depth(args.depth)
        view = session.view(settle_steps=120)
        SvgRenderer(heat_fill=True, show_labels=True).render_to_file(
            view, args.svg, title=f"caused latency — {args.app}"
        )
        lo, hi = view.metric_range("caused_latency")
        print(f"wrote {args.svg} ({len(view)} nodes, caused-latency "
              f"rate range [{lo:.4g}, {hi:.4g}] s/s)")
        session.close()
    if args.bands:
        timeline = Timeline.from_trace(causal.to_trace())
        bands = timeline.bands(slices=args.slices)
        timeline.render_svg(args.bands, mode="bands", slices=args.slices)
        print(f"wrote {args.bands} ({len(bands)} bands over "
              f"{len(timeline.rows)} rows, {len(timeline.arrows)} messages)")
    return 0


def _cmd_convert(args) -> int:
    from repro.trace.store import convert

    store = convert(args.trace, args.out)
    size = args.out.stat().st_size
    print(f"wrote {args.out} ({size} bytes, "
          f"{len(store.entity_names())} entities, "
          f"{store.total_breakpoints} breakpoints)")
    return 0


def _selfcheck_observability(trace, config) -> list[str]:
    """Exercise the observability plane against a live server.

    Starts one in-process instance on a free port, drives a couple of
    requests, then asserts that ``GET /metrics`` parses as Prometheus
    text with non-zero per-op request buckets and that ``stats_stream``
    delivers its promised push frames.  Returns failure descriptions
    (empty list = pass) so ``repro serve --selfcheck`` can exit 4.
    """
    import asyncio
    import dataclasses

    from repro.server import ReproServer, WsClient
    from repro.server.client import scrape_breakdown

    failures: list[str] = []
    live = dataclasses.replace(config, port=0)

    async def probe(port: int) -> None:
        client = await WsClient.connect(live.host, port)
        try:
            start, end = trace.span()
            await client.request("hello")
            await client.request("scrub", start=start, end=end)
            pushes = await client.stream_stats(interval=0.01, count=2)
            if len(pushes) != 2:
                failures.append(
                    f"stats_stream: expected 2 push frames, "
                    f"got {len(pushes)}"
                )
            elif not all(
                frame.get("push") == "stats" and "data" in frame
                for frame in pushes
            ):
                failures.append(
                    "stats_stream: malformed push frames "
                    f"{[sorted(f) for f in pushes]}"
                )
            await client.request("bye")
        finally:
            await client.close()
        try:
            scraped = await scrape_breakdown(live.host, port)
        except ValueError as err:
            failures.append(f"GET /metrics: {err}")
            return
        if scraped is None:
            failures.append("GET /metrics: endpoint unavailable")
            return
        counts = {op: state[1] for op, (_, state) in scraped.items()}
        for op in ("hello", "scrub", "stats_stream"):
            if counts.get(op, 0) < 1:
                failures.append(
                    f"GET /metrics: no {op!r} request observations "
                    f"(ops seen: {sorted(scraped)})"
                )

    with ReproServer(trace, live) as server:
        asyncio.run(probe(server.port))
    return failures


def _cmd_serve(args) -> int:
    import signal

    from repro.server import ReproServer, ServerConfig

    trace = _read(args)
    config = ServerConfig(
        host=args.host,
        port=args.port,
        max_sessions=args.max_sessions,
        settle_steps=args.settle_steps,
        seed=args.seed,
        cache_entries=args.cache_entries,
        access_log=str(args.access_log) if args.access_log else None,
    )
    if args.selfcheck:
        from repro.server import format_report, run_load

        report = run_load(
            trace=trace,
            sessions=4,
            moves=12,
            settle_steps=args.settle_steps,
            layout_seed=args.seed,
            differential=True,
            cache_entries=args.cache_entries,
        )
        print(format_report(report))
        ok = report["differential"]["ok"]
        failures = _selfcheck_observability(trace, config)
        for failure in failures:
            print(f"observability selfcheck: {failure}")
        obs_ok = not failures
        print(
            "observability selfcheck (/metrics + stats_stream): "
            f"{'OK' if obs_ok else 'FAILED'}"
        )
        ok = ok and obs_ok
        print(f"selfcheck: {'OK' if ok else 'FAILED'}")
        return 0 if ok else 4

    server = ReproServer(trace, config)
    if args.self_trace is not None:
        from repro.server.telemetry import ServerRecorder

        server.state.telemetry.recorder = ServerRecorder()
    try:
        server.start()
        print(f"serving {args.trace} on {server.url} "
              f"(WebSocket at {server.url}/ws; Ctrl-C to stop)")
        sys.stdout.flush()
        signal.signal(signal.SIGTERM, lambda signum, frame: server.shutdown())
        server.serve_forever()
        print("stopped")
    except KeyboardInterrupt:
        print("stopped")
    finally:
        server.state.telemetry.close()
        if args.self_trace is not None:
            from repro.trace.writer import write_trace

            write_trace(
                server.state.telemetry.recorder.build_trace(),
                args.self_trace,
            )
            print(f"wrote self-trace {args.self_trace}")
    return 0


def _cmd_loadtest(args) -> int:
    import json

    from repro.server import format_report, run_load

    trace = _read(args)
    report = run_load(
        trace=trace,
        url=args.url,
        sessions=args.sessions,
        moves=args.moves,
        seed=args.seed,
        settle_steps=args.settle_steps,
        differential=args.differential,
    )
    print(format_report(report))
    if args.report:
        args.report.write_text(
            json.dumps(report, indent=1, sort_keys=True), encoding="utf-8"
        )
        print(f"wrote {args.report}")
    if args.differential and not report["differential"]["ok"]:
        print("differential check FAILED: concurrent sessions diverged "
              "from isolated sessions", file=sys.stderr)
        return 4
    return 0


def _cmd_top(args) -> int:
    import asyncio
    import time
    from urllib.parse import urlsplit

    from repro.obs.registry import latency_summary
    from repro.server.client import scrape_breakdown

    url = args.url if "//" in args.url else f"//{args.url}"
    parts = urlsplit(url)
    host = parts.hostname or "127.0.0.1"
    port = parts.port or 8722

    previous: dict[str, float] = {}
    iteration = 0
    try:
        while True:
            scraped = asyncio.run(scrape_breakdown(host, port))
            if scraped is None:
                raise ReproError(
                    f"GET /metrics on {host}:{port} failed "
                    "(is a repro server listening there?)"
                )
            rows = {
                op: latency_summary(bounds, state)
                for op, (bounds, state) in scraped.items()
            }
            iteration += 1
            print(f"--- poll {iteration}  {host}:{port}  "
                  f"({len(rows)} ops)")
            print(f"  {'op':<16} {'count':>8} {'req/s':>8} "
                  f"{'p50_ms':>9} {'p95_ms':>9} {'p99_ms':>9}")
            totals = {op: row["count"] for op, row in rows.items()}
            for op in sorted(rows, key=lambda o: totals[o], reverse=True):
                row = rows[op]
                delta = totals[op] - previous.get(op, 0.0)
                rate = (
                    f"{delta / args.interval:8.1f}" if op in previous
                    else f"{'-':>8}"
                )
                print(f"  {op:<16} {int(totals[op]):>8} {rate} "
                      f"{row['p50_s'] * 1e3:>9.2f} "
                      f"{row['p95_s'] * 1e3:>9.2f} "
                      f"{row['p99_s'] * 1e3:>9.2f}")
            sys.stdout.flush()
            previous = totals
            if args.iterations and iteration >= args.iterations:
                break
            time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    return 0


_COMMANDS = {
    "info": _cmd_info,
    "render": _cmd_render,
    "animate": _cmd_animate,
    "timeline": _cmd_timeline,
    "treemap": _cmd_treemap,
    "anomalies": _cmd_anomalies,
    "profile": _cmd_profile,
    "bench": _cmd_bench,
    "causal": _cmd_causal,
    "latency": _cmd_latency,
    "convert": _cmd_convert,
    "serve": _cmd_serve,
    "loadtest": _cmd_loadtest,
    "top": _cmd_top,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
