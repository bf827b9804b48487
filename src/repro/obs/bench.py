"""Calibrated benchmark harness + the suites behind ``repro bench``.

The ROADMAP's "as fast as the hardware allows" is a claim about a
trajectory, and a trajectory needs comparable points: the ad-hoc
``benchmarks/results/*.txt`` files each had their own shape, so nothing
could diff run *N* against run *N-1*.  This module fixes the substrate:

* :func:`measure` — one calibrated measurement: warmup calls, an inner
  loop auto-sized so each sample is long enough to trust the clock, an
  auto-chosen repeat count, and *robust* statistics (median / IQR /
  MAD) that a single OS scheduling hiccup cannot drag around the way a
  mean can;
* :func:`machine_fingerprint` — the context that makes a number
  meaningful later (python, platform, CPU count, numpy version);
* named **suites** over the real hot paths — ``layout`` (Barnes-Hut
  build+traverse at several *n*), ``aggregation`` (slice-scrub, the
  paper's interactive loop), ``signals`` (batch signal ops),
  ``render`` (SVG generation), ``sim`` (discrete-event engine),
  ``store`` (columnar trace-store convert / cold-open / mmap scrub),
  ``server`` (multi-session scrub-storm round trips, solo vs 8-way
  concurrent, with p50/p95/p99 percentiles), ``causal`` (latency
  attribution, propagation-path extraction and communication-band
  aggregation on a causal DAG) — each serialized as one
  schema-versioned ``BENCH_<suite>.json``;
* :func:`compare_results` — the noise-aware regression gate: a case
  fails only when its median exceeds the baseline median by more than
  ``max(rel_tol * baseline, iqr_k * IQR)``, so real slowdowns trip CI
  while timer jitter does not.

Quick mode (``REPRO_BENCH_QUICK=1`` or ``repro bench --quick``) shrinks
sizes and repeats for smoke runs; the mode is recorded in the payload
and :func:`compare_results` refuses to compare across modes.
"""

from __future__ import annotations

import json
import math
import os
import platform as platform_module
import random
import sys
import time
from pathlib import Path
from time import perf_counter
from typing import Callable, Mapping

from repro.obs.registry import sample_quantile

__all__ = [
    "SCHEMA",
    "BenchCase",
    "available_suites",
    "compare_results",
    "format_comparison",
    "format_result",
    "has_regression",
    "load_result",
    "machine_fingerprint",
    "measure",
    "quick_mode",
    "result_path",
    "robust_stats",
    "run_suite",
    "write_result",
]

#: Version tag stamped into every BENCH_<suite>.json payload; bump on
#: any incompatible change to the result shape.
SCHEMA = "repro-bench/1"


def quick_mode(flag: bool | None = None) -> bool:
    """Whether quick (smoke) mode is in effect.

    An explicit *flag* wins; otherwise the ``REPRO_BENCH_QUICK``
    environment switch decides, exactly as the pytest benches read it.
    """
    if flag is not None and flag:
        return True
    return bool(os.environ.get("REPRO_BENCH_QUICK"))


def machine_fingerprint() -> dict:
    """The environment context stamped into every result payload."""
    import numpy

    return {
        "python": platform_module.python_version(),
        "implementation": platform_module.python_implementation(),
        "platform": platform_module.platform(),
        "machine": platform_module.machine(),
        "cpu_count": os.cpu_count() or 0,
        "numpy": numpy.__version__,
    }


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def robust_stats(samples: list[float]) -> dict:
    """Median / IQR / MAD (plus mean, min, max) of per-call *samples*.

    Median, quartiles and MAD come from
    :func:`~repro.obs.registry.sample_quantile` (linear interpolation);
    MAD is the raw median absolute deviation (unscaled).  All values are
    seconds per call.
    """
    if not samples:
        raise ValueError("robust_stats needs at least one sample")
    ordered = sorted(samples)
    median = sample_quantile(ordered, 0.5)
    iqr = sample_quantile(ordered, 0.75) - sample_quantile(ordered, 0.25)
    return {
        "median_s": median,
        "iqr_s": iqr,
        "mad_s": sample_quantile([abs(s - median) for s in ordered], 0.5),
        "mean_s": sum(ordered) / len(ordered),
        "min_s": ordered[0],
        "max_s": ordered[-1],
    }


def measure(
    fn: Callable[[], object],
    *,
    quick: bool = False,
    warmup: int | None = None,
    repeats: int | None = None,
    min_sample_s: float | None = None,
    max_total_s: float | None = None,
) -> dict:
    """One calibrated measurement of *fn* (a no-argument callable).

    The protocol: run ``warmup`` throwaway calls, double the inner-loop
    count until one sample takes at least ``min_sample_s`` (so the
    perf-counter quantization disappears), then collect samples.  The
    repeat count is auto-chosen to fit ``max_total_s`` but never drops
    below 5 (quick: 3) — robust statistics need a population.

    Returns the :func:`robust_stats` dict extended with ``repeats``,
    ``inner_loops``, ``warmup`` and the raw per-call ``samples_s``.
    """
    if warmup is None:
        warmup = 1 if quick else 2
    if min_sample_s is None:
        min_sample_s = 0.004 if quick else 0.01
    if max_total_s is None:
        max_total_s = 0.4 if quick else 2.0
    floor_repeats = 5 if quick else 7
    cap_repeats = 9 if quick else 30

    for _ in range(warmup):
        fn()

    # Calibrate the inner loop: one sample must outlast clock jitter.
    loops = 1
    while True:
        began = perf_counter()
        for _ in range(loops):
            fn()
        sample_s = perf_counter() - began
        if sample_s >= min_sample_s or loops >= 1 << 20:
            break
        loops *= 2

    if repeats is None:
        repeats = int(max_total_s / max(sample_s, 1e-9))
        repeats = max(floor_repeats, min(cap_repeats, repeats))

    samples = [sample_s / loops]  # the calibration run is sample 0
    for _ in range(repeats - 1):
        began = perf_counter()
        for _ in range(loops):
            fn()
        samples.append((perf_counter() - began) / loops)

    out = robust_stats(samples)
    out["repeats"] = repeats
    out["inner_loops"] = loops
    out["warmup"] = warmup
    out["samples_s"] = samples
    return out


class BenchCase:
    """One named, parameterized benchmark case inside a suite.

    ``make`` runs the (untimed) setup and returns the no-argument
    callable that :func:`measure` times; ``params`` documents the
    workload shape in the result payload so baselines are only ever
    compared like-for-like.

    Cases whose samples are not repeated calls of one closure — e.g.
    the ``server`` suite, where each sample is one request round trip
    inside a concurrent storm — pass ``runner`` instead: a callable
    taking the quick flag and returning a complete stats dict (at
    least the :func:`robust_stats` keys plus ``repeats`` /
    ``inner_loops`` / ``warmup`` / ``samples_s``, so the comparison
    gate and formatters treat both kinds identically).
    """

    __slots__ = ("name", "make", "params", "runner")

    def __init__(
        self,
        name: str,
        make: Callable[[], Callable[[], object]] | None = None,
        params: Mapping | None = None,
        runner: Callable[[bool], dict] | None = None,
    ) -> None:
        if (make is None) == (runner is None):
            raise ValueError(
                f"case {name!r} needs exactly one of make or runner"
            )
        self.name = name
        self.make = make
        self.params = dict(params or {})
        self.runner = runner


# ----------------------------------------------------------------------
# Suites
# ----------------------------------------------------------------------
_SUITES: dict[str, Callable[[bool], list[BenchCase]]] = {}


def _suite(name: str):
    """Register a suite builder under *name* (decorator)."""

    def register(builder):
        _SUITES[name] = builder
        return builder

    return register


def available_suites() -> list[str]:
    """The registered suite names, in definition order."""
    return list(_SUITES)


def _clustered_layout(
    n: int,
    seed: int = 2,
    workers: int = 1,
    settle_steps: int = 5,
):
    """A settled Barnes-Hut layout over the benches' clustered topology
    (sqrt(n) star clusters chained by bridges)."""
    from repro.core import LayoutParams, make_layout

    layout = make_layout(
        "barneshut", LayoutParams(), seed=seed, workers=workers
    )
    n_clusters = max(1, int(math.sqrt(n)))
    hubs = []
    names: list[str] = []
    edges: list[tuple[str, str]] = []
    count = 0
    for c in range(n_clusters):
        hub = f"hub{c}"
        names.append(hub)
        hubs.append(hub)
        count += 1
        while count < (c + 1) * n // n_clusters:
            name = f"n{count}"
            names.append(name)
            edges.append((hub, name))
            count += 1
    # Bulk insertion (O(n), identical placement to per-node add_node
    # calls in the same order) keeps million-node construction linear.
    layout.add_nodes(names)
    for a, b in edges:
        layout.add_edge(a, b)
    for a, b in zip(hubs, hubs[1:]):
        layout.add_edge(a, b)
    layout.run(max_steps=settle_steps, tolerance=0.0)
    return layout


@_suite("layout")
def _layout_suite(quick: bool) -> list[BenchCase]:
    """Barnes-Hut relaxation steps (build + traverse) at several *n*."""
    sizes = (128, 512) if quick else (256, 1024, 4096)

    def stepper(n: int):
        def make():
            """Build the layout once; time whole relaxation steps."""
            layout = _clustered_layout(n)
            layout.step()  # warm tree/caches outside the timing
            return layout.step

        return make

    cases = [
        BenchCase(f"step_n{n}", stepper(n), {"n": n, "kernel": "array"})
        for n in sizes
    ]

    # The sharded kernel's flagship case: 100k bodies split across 4
    # worker processes (quick mode shrinks to 1024 bodies / 2 workers
    # so CI smoke runs stay seconds, as the other suites do).
    shard_n = 1024 if quick else 100_000
    shard_workers = 2 if quick else 4

    def sharded_stepper():
        layout = _clustered_layout(
            shard_n, workers=shard_workers, settle_steps=2
        )
        layout.step()  # fork the pool + build replicas outside timing
        return layout.step

    cases.append(
        BenchCase(
            "step_sharded_100k",
            sharded_stepper,
            {"n": shard_n, "kernel": "sharded", "workers": shard_workers},
        )
    )
    return cases


def _aggregation_trace(quick: bool):
    """The scrub-loop workload: Grid'5000 when full, synthetic when quick."""
    if quick:
        from repro.trace.synthetic import random_hierarchical_trace

        return random_hierarchical_trace(
            n_sites=4, clusters_per_site=3, hosts_per_cluster=6, seed=5
        )
    from repro.apps import paper_workload, run_master_worker
    from repro.platform import grid5000_platform
    from repro.simulation import UsageMonitor

    platform = grid5000_platform()
    app1, app2 = paper_workload(platform, tasks_per_worker=2.0)
    monitor = UsageMonitor(platform)
    run_master_worker(platform, [app1, app2], monitor=monitor)
    return monitor.build_trace()


@_suite("aggregation")
def _aggregation_suite(quick: bool) -> list[BenchCase]:
    """The paper's interactive loop: time-slice scrubbing and cold views."""
    from repro.core import AggregationEngine, TimeSlice
    from repro.core.aggregation import aggregate_view
    from repro.core.hierarchy import GroupingState, Hierarchy
    from repro.trace import CAPACITY, USAGE

    trace = _aggregation_trace(quick)
    hierarchy = Hierarchy.from_trace(trace)
    start, end = trace.span()
    width = (end - start) / 10.0
    moves = 16 if quick else 64
    step = (end - start - width) / (moves - 1)
    slices = [
        TimeSlice(start + i * step, start + i * step + width)
        for i in range(moves)
    ]
    metrics = [CAPACITY, USAGE]

    def make_scrub():
        """One engine kept across calls; each call is one slice move."""
        grouping = GroupingState(hierarchy)
        grouping.collapse_depth(2)  # the site-level view of Fig. 8
        engine = AggregationEngine(trace)
        engine.view(grouping, slices[0], metrics=metrics)  # warm caches
        state = {"i": 0}

        def one_move():
            """Advance to the next slice in the scripted slide loop."""
            state["i"] = (state["i"] + 1) % len(slices)
            return engine.view(grouping, slices[state["i"]], metrics=metrics)

        return one_move

    def make_cold():
        """Scalar full recomputation of the site-level view."""
        grouping = GroupingState(hierarchy)
        grouping.collapse_depth(2)

        def one_view():
            """One from-scratch aggregate_view over the whole span."""
            return aggregate_view(trace, grouping, slices[0], metrics=metrics)

        return one_view

    return [
        BenchCase(
            "scrub_move",
            make_scrub,
            {"entities": len(trace), "moves": moves, "depth": 2},
        ),
        BenchCase("cold_view", make_cold, {"entities": len(trace), "depth": 2}),
    ]


@_suite("signals")
def _signals_suite(quick: bool) -> list[BenchCase]:
    """Batch operations over one long piecewise-constant signal."""
    import numpy as np

    from repro.trace.signal import SignalBuilder

    breakpoints = 2_000 if quick else 20_000
    windows = 256 if quick else 2_048
    builder = SignalBuilder()
    rng = random.Random(7)
    t = 0.0
    for _ in range(breakpoints):
        t += rng.random()
        builder.add(t, rng.choice((-1.0, 1.0)))
    signal = builder.build()
    end = t
    starts = np.linspace(0.0, end * 0.9, windows)
    ends = starts + end * 0.05
    at = np.linspace(0.0, end, windows)

    return [
        BenchCase(
            "integrate_many",
            lambda: (lambda: signal.integrate_many(starts, ends)),
            {"breakpoints": breakpoints, "windows": windows},
        ),
        BenchCase(
            "values_at_many",
            lambda: (lambda: signal.values_at_many(at)),
            {"breakpoints": breakpoints, "points": windows},
        ),
        BenchCase(
            "mean_many",
            lambda: (lambda: signal.mean_many(starts, ends)),
            {"breakpoints": breakpoints, "windows": windows},
        ),
    ]


@_suite("render")
def _render_suite(quick: bool) -> list[BenchCase]:
    """SVG generation time against view size."""
    from repro.core import AnalysisSession, SvgRenderer
    from repro.trace.synthetic import random_hierarchical_trace

    n_sites = 2 if quick else 8

    def make():
        """Settle one view, then time pure SVG markup generation."""
        trace = random_hierarchical_trace(
            n_sites=n_sites, clusters_per_site=4, hosts_per_cluster=16, seed=1
        )
        session = AnalysisSession(trace, seed=1)
        view = session.view(settle_steps=5)
        renderer = SvgRenderer(heat_fill=True)
        return lambda: renderer.render(view)

    return [BenchCase("svg_render", make, {"n_sites": n_sites})]


@_suite("sim")
def _sim_suite(quick: bool) -> list[BenchCase]:
    """One full small master/worker discrete-event simulation per call."""
    from repro.platform import Host, Link, Platform, Router

    n_workers = 4 if quick else 16
    tasks = 2 if quick else 4

    def make():
        """Return a closure running a fresh simulation end to end."""

        def build_platform():
            """A star of *n_workers* hosts behind one switch."""
            p = Platform("bench")
            p.add_router(Router("switch"))
            p.add_host(Host("m", 1e9, path=("bench", "m")))
            p.add_link(Link("m-l", 1e9, path=("bench", "m-l")), "m", "switch")
            for i in range(n_workers):
                p.add_host(Host(f"w{i}", 1e9, path=("bench", f"w{i}")))
                p.add_link(
                    Link(f"w{i}-l", 1e9, path=("bench", f"w{i}-l")),
                    f"w{i}",
                    "switch",
                )
            return p

        def run_once():
            """Construct and run the whole simulation (the timed unit)."""
            from repro.simulation import Simulator

            p = build_platform()
            sim = Simulator(p)

            def worker(ctx):
                """Receive *tasks* messages, computing for each."""
                for _ in range(tasks):
                    message = yield ctx.recv(f"in-{ctx.host.name}")
                    yield ctx.execute(message.payload["flops"])

            def master(ctx):
                """Scatter *tasks* rounds of work to every worker."""
                for _ in range(tasks):
                    for i in range(n_workers):
                        yield ctx.send(
                            f"w{i}", 1e5, f"in-w{i}", payload={"flops": 1e6}
                        )

            for i in range(n_workers):
                sim.spawn(worker, f"w{i}", f"worker-{i}")
            sim.spawn(master, "m", "master")
            return sim.run()

        return run_once

    return [
        BenchCase(
            "master_worker",
            make,
            {"workers": n_workers, "tasks_per_worker": tasks},
        )
    ]


@_suite("store")
def _store_suite(quick: bool) -> list[BenchCase]:
    """The columnar trace store: convert, cold-open, scrub via mmap.

    ``cold_open`` vs ``text_reparse`` is the headline pair — opening a
    converted ``.rtrace`` only validates the header, checksums the
    directory and maps the columns, while re-parsing the text form
    re-tokenizes every breakpoint.  The scrub pair prices the mmap
    bank's per-row bisection against the resident sweep on identical
    windows.
    """
    import tempfile

    from repro.trace.signalbank import SignalBank
    from repro.trace.store import open_store, write_store
    from repro.trace.synthetic import random_hierarchical_trace
    from repro.trace.writer import write_trace

    if quick:
        trace = random_hierarchical_trace(
            n_sites=2, clusters_per_site=2, hosts_per_cluster=4, seed=11
        )
    else:
        trace = random_hierarchical_trace(
            n_sites=4, clusters_per_site=3, hosts_per_cluster=8, seed=11
        )
    scratch = tempfile.TemporaryDirectory(prefix="repro-bench-store-")
    root = Path(scratch.name)
    store_path = root / "bench.rtrace"
    text_path = root / "bench.trace"
    write_store(trace, store_path)
    write_trace(trace, text_path)
    metric = trace.metric_names()[0]
    start, end = trace.span()
    moves = 8 if quick else 32
    width = (end - start) / 10.0
    step = (end - start - width) / max(moves - 1, 1)
    windows = [
        (start + i * step, start + i * step + width) for i in range(moves)
    ]
    shape = {
        "entities": len(trace),
        "breakpoints": int(
            sum(len(s) for e in trace for s in e.metrics.values())
        ),
        "bytes": store_path.stat().st_size,
    }

    def make_convert():
        """Time a full streaming conversion (scratch holds the output)."""
        out = root / "rewrite.rtrace"
        return lambda: write_store(trace, out)

    def make_cold_open():
        """Header + CRC + directory decode + memmap, nothing else."""
        return lambda: open_store(store_path)

    def make_text_reparse():
        """The pre-store cold path: re-parse the text serialization."""
        from repro.trace.reader import read_trace

        return lambda: read_trace(text_path)

    def scrubber(bank):
        state = {"i": 0}

        def one_move():
            """One window query in the scripted slide loop."""
            state["i"] = (state["i"] + 1) % len(windows)
            a, b = windows[state["i"]]
            return bank.window_means(a, b)

        return one_move

    def make_mmap_scrub():
        """Window means straight off the stored columns."""
        keep = scratch  # noqa: F841 - pin the scratch dir's lifetime
        bank = open_store(store_path).signal_bank(metric)
        return scrubber(bank)

    def make_resident_scrub():
        """The same windows on a fully resident bank."""
        rows = [e.metrics[metric] for e in trace if metric in e.metrics]
        return scrubber(SignalBank(rows))

    return [
        BenchCase("convert_write", make_convert, shape),
        BenchCase("cold_open", make_cold_open, shape),
        BenchCase("text_reparse", make_text_reparse, shape),
        BenchCase(
            "mmap_scrub", make_mmap_scrub, {**shape, "moves": moves}
        ),
        BenchCase(
            "resident_scrub", make_resident_scrub, {**shape, "moves": moves}
        ),
    ]


@_suite("server")
def _server_suite(quick: bool) -> list[BenchCase]:
    """Multi-session server round trips: solo vs 8-way concurrency.

    Each case replays the same deterministic scrub storm through the
    full stack — WebSocket framing, canonical-JSON payloads, shared
    aggregation cache — and every *sample* is one request round trip,
    so the stats come straight from :func:`robust_stats` over the
    pooled latencies plus the p50/p95/p99 percentiles the acceptance
    gate reads.  ``scrub_c8`` runs eight concurrent closed-loop
    sessions; the ROADMAP target is its p95 staying within 3x the
    ``scrub_solo`` p95 (asserted by ``benchmarks/test_server_load.py``).
    """
    from repro.server.load import run_load
    from repro.trace.synthetic import random_hierarchical_trace

    if quick:
        trace = random_hierarchical_trace(
            n_sites=12, clusters_per_site=6, hosts_per_cluster=24, seed=13
        )
        moves = 16
    else:
        trace = _aggregation_trace(False)
        moves = 48
    # settle_steps=0: a scrub does not change the graph structure, so
    # the scrub-latency benchmark pins the layout at its radial seeds —
    # the measured work is aggregation + payload + transport, which is
    # what concurrency contends on (the differential tests exercise the
    # settling path separately).
    shape = {"entities": len(trace), "moves": moves, "settle_steps": 0}

    def storm_runner(sessions: int):
        def run(quick_flag: bool) -> dict:
            """One full load run; samples are request round trips."""
            report = run_load(
                trace=trace,
                sessions=sessions,
                moves=moves,
                settle_steps=0,
                keep_samples=True,
            )
            samples = report["latency"]["samples_s"]
            stats = robust_stats(samples)
            stats.update(
                repeats=len(samples),
                inner_loops=1,
                warmup=0,
                samples_s=samples,
                p50_s=sample_quantile(samples, 0.5),
                p95_s=sample_quantile(samples, 0.95),
                p99_s=sample_quantile(samples, 0.99),
                throughput_rps=report["throughput_rps"],
                cache_cross_hits=report["cache"]["cross_hits"],
            )
            return stats

        return run

    return [
        BenchCase(
            "scrub_solo",
            runner=storm_runner(1),
            params={**shape, "sessions": 1},
        ),
        BenchCase(
            "scrub_c8",
            runner=storm_runner(8),
            params={**shape, "sessions": 8},
        ),
    ]


def _causal_run(quick: bool):
    """A master-worker run under the causal tracer: the bench workload
    for the latency-analytics hot paths (full mode produces a >10k
    causal-edge DAG so the band aggregation is measured at the scale
    where per-message arrows stop being viable)."""
    from repro.apps.masterworker import AppSpec, run_master_worker
    from repro.platform.cluster import add_cluster
    from repro.platform.topology import Platform
    from repro.simulation.tracing import CausalTracer

    workers, tasks = (4, 60) if quick else (16, 3400)
    tracer = CausalTracer()
    platform = Platform()
    add_cluster(platform, "c", workers + 1)
    hosts = [h.name for h in platform.hosts]
    spec = AppSpec(name="app", master=hosts[0], n_tasks=tasks,
                   input_bytes=1e6, task_flops=1e8)
    run_master_worker(platform, [spec], tracer=tracer)
    return tracer.build()


@_suite("causal")
def _causal_suite(quick: bool) -> list[BenchCase]:
    """Latency analytics on the causal DAG (``repro latency``).

    Three hot paths over one master-worker causal trace: building the
    per-process / per-link :class:`~repro.obs.latency.LatencyAttribution`
    (a single pass over the edge list plus the critical-path walk),
    extracting the top-k propagation paths (the O(E log E) dynamic
    program), and aggregating the timeline's per-message arrows into
    communication bands (the rendering path that keeps the SVG element
    count bounded at any message count).
    """
    from repro.core.timeline import Timeline
    from repro.obs.latency import LatencyAttribution, propagation_paths

    causal = _causal_run(quick)
    shape = {
        "workers": 4 if quick else 16,
        "tasks": 60 if quick else 3400,
        "edges": len(causal.edges),
    }
    timeline = Timeline.from_trace(causal.to_trace())

    def make_attribution():
        def build():
            return LatencyAttribution(causal)

        return build

    def make_paths():
        def extract():
            return propagation_paths(causal, k=5)

        return extract

    def make_bands():
        def aggregate():
            return timeline.bands(slices=64)

        return aggregate

    return [
        BenchCase("attribution", make=make_attribution, params=shape),
        BenchCase("paths", make=make_paths, params={**shape, "k": 5}),
        BenchCase(
            "bands",
            make=make_bands,
            params={**shape, "slices": 64, "arrows": len(timeline.arrows)},
        ),
    ]


# ----------------------------------------------------------------------
# Running and serializing
# ----------------------------------------------------------------------
def run_suite(name: str, quick: bool | None = None, **measure_kwargs) -> dict:
    """Run every case of suite *name*; return the result payload.

    The payload is the exact dict :func:`write_result` serializes:
    ``schema``/``suite``/``quick``/``created_unix``/``machine`` plus a
    ``cases`` mapping of case name to stats + params.
    """
    if name not in _SUITES:
        raise KeyError(
            f"unknown bench suite {name!r} (have: {', '.join(_SUITES)})"
        )
    quick = quick_mode(quick)
    cases = {}
    for case in _SUITES[name](quick):
        if case.runner is not None:
            stats = case.runner(quick)
        else:
            fn = case.make()
            stats = measure(fn, quick=quick, **measure_kwargs)
        stats["params"] = case.params
        cases[case.name] = stats
    return {
        "schema": SCHEMA,
        "suite": name,
        "quick": quick,
        "created_unix": time.time(),
        "argv": list(sys.argv),
        "machine": machine_fingerprint(),
        "cases": cases,
    }


def result_path(out_dir: str | Path, suite: str) -> Path:
    """The canonical ``BENCH_<suite>.json`` path under *out_dir*."""
    return Path(out_dir) / f"BENCH_{suite}.json"


def write_result(result: dict, out_dir: str | Path) -> Path:
    """Serialize *result* to ``BENCH_<suite>.json`` under *out_dir*."""
    path = result_path(out_dir, result["suite"])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def load_result(path: str | Path) -> dict:
    """Load one ``BENCH_<suite>.json``; validate the schema tag."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    schema = payload.get("schema", "")
    if not schema.startswith("repro-bench/"):
        raise ValueError(f"{path}: not a repro-bench result (schema={schema!r})")
    return payload


def format_result(result: dict) -> str:
    """The human table ``repro bench`` prints for one suite run."""
    lines = [
        f"{'case':<20} {'median ms':>10} {'iqr ms':>8} {'mad ms':>8} "
        f"{'reps':>5} {'loops':>6}"
    ]
    for name, stats in sorted(result["cases"].items()):
        lines.append(
            f"{name:<20} {stats['median_s'] * 1e3:>10.3f} "
            f"{stats['iqr_s'] * 1e3:>8.3f} {stats['mad_s'] * 1e3:>8.3f} "
            f"{stats['repeats']:>5} {stats['inner_loops']:>6}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Comparison (the regression gate)
# ----------------------------------------------------------------------
def compare_results(
    current: dict,
    baseline: dict,
    rel_tol: float = 0.5,
    iqr_k: float = 3.0,
) -> list[dict]:
    """Case-by-case comparison of *current* against *baseline*.

    A case **regresses** when its median exceeds the baseline median by
    more than the noise-aware threshold
    ``max(rel_tol * base_median, iqr_k * max(base_iqr, cur_iqr))`` —
    i.e. the slowdown must be both relatively large *and* outside the
    measured jitter band.  Cases present on only one side are reported
    with status ``"new"`` / ``"missing"`` but never fail the gate;
    comparing across quick modes raises :class:`ValueError` because the
    workloads differ by construction.
    """
    if current.get("quick") != baseline.get("quick"):
        raise ValueError(
            "refusing to compare across modes: current quick="
            f"{current.get('quick')!r} vs baseline quick="
            f"{baseline.get('quick')!r}"
        )
    out = []
    cur_cases = current["cases"]
    base_cases = baseline["cases"]
    for name in sorted(set(cur_cases) | set(base_cases)):
        cur = cur_cases.get(name)
        base = base_cases.get(name)
        if cur is None:
            out.append({"case": name, "status": "missing", "regressed": False})
            continue
        if base is None:
            out.append({"case": name, "status": "new", "regressed": False})
            continue
        threshold = max(
            rel_tol * base["median_s"],
            iqr_k * max(base["iqr_s"], cur["iqr_s"]),
        )
        excess = cur["median_s"] - base["median_s"]
        regressed = excess > threshold
        out.append(
            {
                "case": name,
                "status": "regressed" if regressed else "ok",
                "regressed": regressed,
                "base_median_s": base["median_s"],
                "cur_median_s": cur["median_s"],
                "ratio": cur["median_s"] / max(base["median_s"], 1e-12),
                "threshold_s": threshold,
            }
        )
    return out


def has_regression(comparisons: list[dict]) -> bool:
    """Whether any compared case regressed."""
    return any(c["regressed"] for c in comparisons)


def format_comparison(suite: str, comparisons: list[dict]) -> str:
    """The human table of one suite's regression-gate verdicts."""
    lines = [
        f"compare [{suite}]: {'case':<20} {'base ms':>9} {'cur ms':>9} "
        f"{'ratio':>6}  verdict"
    ]
    for comp in comparisons:
        if comp["status"] in ("new", "missing"):
            lines.append(
                f"compare [{suite}]: {comp['case']:<20} {'-':>9} {'-':>9} "
                f"{'-':>6}  {comp['status']}"
            )
            continue
        lines.append(
            f"compare [{suite}]: {comp['case']:<20} "
            f"{comp['base_median_s'] * 1e3:>9.3f} "
            f"{comp['cur_median_s'] * 1e3:>9.3f} "
            f"{comp['ratio']:>6.2f}  {comp['status']}"
        )
    return "\n".join(lines)
