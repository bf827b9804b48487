"""Calibrated benchmark harness + the suites behind ``repro bench``.

The ROADMAP's "as fast as the hardware allows" is a claim about a
trajectory, and a trajectory needs comparable points: the ad-hoc
``benchmarks/results/*.txt`` files each had their own shape, so nothing
could diff run *N* against run *N-1*.  This module fixes the substrate:

* :func:`measure` — one calibrated measurement: warmup calls, an inner
  loop auto-sized so each sample is long enough to trust the clock, an
  auto-chosen repeat count, and *robust* statistics (median / IQR /
  MAD) that a single OS scheduling hiccup cannot drag around the way a
  mean can.  :func:`run_suite` calibrates a suite's cases the same way,
  then samples them round-robin, one sample of each case per round;
* :func:`speedup` — the ratio of two cases of one suite run, as the
  median of their per-round ratios, so a host slowdown that spans a
  round cancels out of it (the speed floors under ``benchmarks/`` read
  their ratios this way);
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

import itertools
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
    "causal_run",
    "clustered_layout",
    "compare_results",
    "format_comparison",
    "format_result",
    "has_regression",
    "load_result",
    "machine_fingerprint",
    "master_worker_sim",
    "measure",
    "quick_mode",
    "result_path",
    "robust_stats",
    "run_suite",
    "scrub_workload",
    "server_workload",
    "speedup",
    "star_platform",
    "store_trace",
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


def _timed(fn: Callable[[], object], loops: int) -> float:
    """Wall seconds of *loops* back-to-back calls of *fn*."""
    began = perf_counter()
    for _ in range(loops):
        fn()
    return perf_counter() - began


def _sample(
    fns: list[Callable[[], object]],
    *,
    quick: bool = False,
    warmup: int | None = None,
    repeats: int | None = None,
    min_sample_s: float | None = None,
    max_total_s: float | None = None,
) -> list[dict]:
    """Calibrate each of *fns*, then sample them all round-robin.

    Each callable gets ``warmup`` throwaway calls, then its inner loop
    doubles until one sample takes at least ``min_sample_s`` (so the
    perf-counter quantization disappears); that calibration run is its
    sample 0.  Then ``repeats - 1`` rounds follow, each taking one
    sample of every callable in order, so sample *i* of every callable
    comes from round *i* and a host slowdown lands on all of them
    alike.  The repeat count is auto-chosen so the rounds fit
    ``max_total_s`` but never drops below 5 (quick: 3) — robust
    statistics need a population.
    """
    if warmup is None:
        warmup = 1 if quick else 2
    if min_sample_s is None:
        min_sample_s = 0.004 if quick else 0.01
    if max_total_s is None:
        max_total_s = 0.4 if quick else 2.0
    floor_repeats = 5 if quick else 7
    cap_repeats = 9 if quick else 30

    calibrated: list[tuple[int, list[float]]] = []
    for fn in fns:
        for _ in range(warmup):
            fn()
        loops = 1
        while True:
            sample_s = _timed(fn, loops)
            if sample_s >= min_sample_s or loops >= 1 << 20:
                break
            loops *= 2
        calibrated.append((loops, [sample_s / loops]))

    if repeats is None:
        round_s = sum(loops * samples[0] for loops, samples in calibrated)
        repeats = int(max_total_s / max(round_s, 1e-9))
        repeats = max(floor_repeats, min(cap_repeats, repeats))

    for _ in range(repeats - 1):
        for fn, (loops, samples) in zip(fns, calibrated):
            samples.append(_timed(fn, loops) / loops)

    out = []
    for loops, samples in calibrated:
        stats = robust_stats(samples)
        stats["repeats"] = repeats
        stats["inner_loops"] = loops
        stats["warmup"] = warmup
        stats["samples_s"] = samples
        out.append(stats)
    return out


def measure(fn: Callable[[], object], *, quick: bool = False, **kwargs) -> dict:
    """One calibrated measurement of *fn* (a no-argument callable).

    The one-case form of the sampler :func:`run_suite` uses: *kwargs*
    are its ``warmup`` / ``repeats`` / ``min_sample_s`` /
    ``max_total_s``.  Returns the :func:`robust_stats` dict extended
    with ``repeats``, ``inner_loops``, ``warmup`` and the raw per-call
    ``samples_s``.
    """
    return _sample([fn], quick=quick, **kwargs)[0]


def speedup(result: dict, slow: str, fast: str) -> float:
    """How many times faster case *fast* ran than case *slow*.

    *result* is one :func:`run_suite` payload.  The ratio is the median
    over rounds of ``slow.samples_s[i] / fast.samples_s[i]``: both
    samples of a round were taken back to back, so a host slowdown that
    spans the round cancels out of it.  Raises :class:`ValueError` when
    the two cases were not sampled in the same rounds — a ``runner``
    case, or unequal sample counts.
    """
    paired = result.get("round_robin", ())
    for name in (slow, fast):
        if name not in paired:
            raise ValueError(
                f"case {name!r} was not sampled in the suite's rounds"
            )
    slow_s = result["cases"][slow]["samples_s"]
    fast_s = result["cases"][fast]["samples_s"]
    if len(slow_s) != len(fast_s):
        raise ValueError(
            f"cases {slow!r} and {fast!r} hold {len(slow_s)} and "
            f"{len(fast_s)} samples; a ratio needs the same rounds"
        )
    return sample_quantile([s / f for s, f in zip(slow_s, fast_s)], 0.5)


class BenchCase:
    """One named, parameterized benchmark case inside a suite.

    ``make`` runs the (untimed) setup and returns the no-argument
    callable that :func:`run_suite` samples, round-robin with the
    suite's other ``make`` cases; ``params`` documents the workload
    shape in the result payload so baselines are only ever compared
    like-for-like.

    Cases whose samples are not repeated calls of one closure — e.g.
    the ``server`` suite, where each sample is one request round trip
    inside a concurrent storm — pass ``runner`` instead: a callable
    taking the quick flag and returning a complete stats dict (at
    least the :func:`robust_stats` keys plus ``repeats`` /
    ``inner_loops`` / ``warmup`` / ``samples_s``, so the comparison
    gate and formatters treat both kinds identically).  A runner case
    runs whole, so :func:`speedup` cannot pair it with another case.
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


def clustered_layout(
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

    def stepper(n: int, workers: int = 1, settle_steps: int = 5):
        def make():
            """Build the layout once; time whole relaxation steps."""
            layout = clustered_layout(
                n, workers=workers, settle_steps=settle_steps
            )
            # Warm the tree and caches (sharded: fork the pool and build
            # the replicas) outside the timing.
            layout.step()
            return layout.step

        return make

    cases = [
        BenchCase(f"step_n{n}", stepper(n), {"n": n, "kernel": "array"})
        for n in sizes
    ]

    # The sharded kernel's flagship case: 100k bodies split across 4
    # worker processes (quick mode shrinks to 4,096 bodies so CI smoke
    # runs stay seconds, as the other suites do), against the array
    # kernel on the same graph.
    shard_n = 4096 if quick else 100_000
    shard_workers = 4
    cases.append(
        BenchCase(
            "step_array_100k",
            stepper(shard_n, settle_steps=2),
            {"n": shard_n, "kernel": "array"},
        )
    )
    cases.append(
        BenchCase(
            "step_sharded_100k",
            stepper(shard_n, workers=shard_workers, settle_steps=2),
            {"n": shard_n, "kernel": "sharded", "workers": shard_workers},
        )
    )
    return cases


def scrub_workload(quick: bool):
    """The aggregation suite's scrub: ``(trace, grouping, slides, metrics)``.

    The site-level (depth 2) grouping of Fig. 8 over the Grid'5000
    master-worker run (quick: a small synthetic trace), and 40 slides
    (full: 200) a tenth of the span wide, first to last.
    """
    from repro.core import TimeSlice
    from repro.core.hierarchy import GroupingState, Hierarchy
    from repro.trace import CAPACITY, USAGE

    if quick:
        from repro.trace.synthetic import random_hierarchical_trace

        trace = random_hierarchical_trace(
            n_sites=4, clusters_per_site=3, hosts_per_cluster=6, seed=5
        )
    else:
        from repro.apps import paper_workload, run_master_worker
        from repro.platform import grid5000_platform
        from repro.simulation import UsageMonitor

        platform = grid5000_platform()
        app1, app2 = paper_workload(platform, tasks_per_worker=2.0)
        monitor = UsageMonitor(platform)
        run_master_worker(platform, [app1, app2], monitor=monitor)
        trace = monitor.build_trace()
    grouping = GroupingState(Hierarchy.from_trace(trace))
    grouping.collapse_depth(2)
    start, end = trace.span()
    width = (end - start) / 10.0
    moves = 40 if quick else 200
    step = (end - start - width) / (moves - 1)
    slides = [
        TimeSlice(start + i * step, start + i * step + width)
        for i in range(moves)
    ]
    return trace, grouping, slides, [CAPACITY, USAGE]


@_suite("aggregation")
def _aggregation_suite(quick: bool) -> list[BenchCase]:
    """The paper's interactive loop: time-slice scrubbing and cold views.

    Both cases slide back and forth over the same slides, one slide
    per call, so no call jumps from the last slide back to the first:
    ``scrub_move`` through one incremental engine, ``cold_view``
    through the from-scratch ``aggregate_view`` oracle.
    """
    from repro.core import AggregationEngine
    from repro.core.aggregation import aggregate_view

    trace, grouping, slides, metrics = scrub_workload(quick)
    # After slides[0]: up to the last slide, back down to the first.
    back_and_forth = slides[1:] + slides[-2::-1]
    shape = {"entities": len(trace), "moves": len(slides), "depth": 2}

    def make_scrub():
        """One engine kept across calls; each call is one slice move."""
        engine = AggregationEngine(trace)
        engine.view(grouping, slides[0], metrics=metrics)  # warm caches
        order = itertools.cycle(back_and_forth)
        return lambda: engine.view(grouping, next(order), metrics=metrics)

    def make_cold():
        """Each call recomputes the next slide's view from scratch."""
        order = itertools.cycle(back_and_forth)
        return lambda: aggregate_view(
            trace, grouping, next(order), metrics=metrics
        )

    return [
        BenchCase("scrub_move", make_scrub, shape),
        BenchCase("cold_view", make_cold, shape),
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


def star_platform(n_workers: int):
    """The sim suite's platform: a master and *n_workers* hosts, each
    behind its own link to one switch."""
    from repro.platform import Host, Link, Platform, Router

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


def master_worker_sim(n_workers: int, tasks: int):
    """Build and run the sim suite's simulation; return the simulator.

    The master scatters *tasks* rounds of work to every worker of
    :func:`star_platform`; each worker receives and computes its tasks.
    """
    from repro.simulation import Simulator

    sim = Simulator(star_platform(n_workers))

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
    sim.run()
    return sim


@_suite("sim")
def _sim_suite(quick: bool) -> list[BenchCase]:
    """One full small master/worker discrete-event simulation per call."""
    n_workers = 4 if quick else 16
    tasks = 2 if quick else 4
    return [
        BenchCase(
            "master_worker",
            lambda: (lambda: master_worker_sim(n_workers, tasks)),
            {"workers": n_workers, "tasks_per_worker": tasks},
        )
    ]


def store_trace(quick: bool):
    """The store suite's trace: 3 sites x 3 clusters x 6 hosts (full:
    6 x 4 x 10) of the synthetic hierarchical platform."""
    from repro.trace.synthetic import random_hierarchical_trace

    shape = (3, 3, 6) if quick else (6, 4, 10)
    return random_hierarchical_trace(*shape, seed=11)


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
    from repro.trace.writer import write_trace

    trace = store_trace(quick)
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


def server_workload(quick: bool):
    """The server suite's storm: ``(trace, moves)``, a synthetic
    hierarchical trace of 6 sites x 4 clusters x 12 hosts and 12 scrub
    moves per session (full: 12 x 6 x 24 and 24 moves)."""
    from repro.trace.synthetic import random_hierarchical_trace

    if quick:
        return random_hierarchical_trace(6, 4, 12, seed=13), 12
    return random_hierarchical_trace(12, 6, 24, seed=13), 24


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
    After each storm its replies are byte-compared against one isolated
    replay (``differential_ok``), outside the timed requests.
    """
    from repro.server.load import run_load

    trace, moves = server_workload(quick)
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
                differential=True,
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
                differential_ok=report["differential"]["ok"],
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


def causal_run(workers: int, tasks: int):
    """A master-worker run of *tasks* tasks over *workers* workers under
    the causal tracer: the bench workload for the latency-analytics hot
    paths (the causal suite's full mode, 16 workers and 3,400 tasks,
    produces a >10k causal-edge DAG so the band aggregation is measured
    at the scale where per-message arrows stop being viable)."""
    from repro.apps.masterworker import AppSpec, run_master_worker
    from repro.platform.cluster import add_cluster
    from repro.platform.topology import Platform
    from repro.simulation.tracing import CausalTracer

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

    workers, tasks = (4, 60) if quick else (16, 3400)
    causal = causal_run(workers, tasks)
    shape = {"workers": workers, "tasks": tasks, "edges": len(causal.edges)}
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

    ``runner`` cases run in suite order.  The ``make`` cases are all
    built, then calibrated and sampled together, round-robin, by the
    sampler behind :func:`measure` (*measure_kwargs* are its settings),
    so :func:`speedup` can pair any two of them round by round.  The
    payload is the exact dict :func:`write_result` serializes:
    ``schema``/``suite``/``quick``/``created_unix``/``machine``, a
    ``cases`` mapping of case name to stats + params, and
    ``round_robin``, the ``make`` cases in the order each round sampled
    them.
    """
    if name not in _SUITES:
        raise KeyError(
            f"unknown bench suite {name!r} (have: {', '.join(_SUITES)})"
        )
    quick = quick_mode(quick)
    suite = _SUITES[name](quick)
    stats = {
        case.name: case.runner(quick)
        for case in suite
        if case.runner is not None
    }
    sampled = [case for case in suite if case.runner is None]
    measured = _sample(
        [case.make() for case in sampled], quick=quick, **measure_kwargs
    )
    stats.update(zip((case.name for case in sampled), measured))
    cases = {
        case.name: {**stats[case.name], "params": case.params}
        for case in suite
    }
    return {
        "schema": SCHEMA,
        "suite": name,
        "quick": quick,
        "created_unix": time.time(),
        "argv": list(sys.argv),
        "machine": machine_fingerprint(),
        "cases": cases,
        "round_robin": [case.name for case in sampled],
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
