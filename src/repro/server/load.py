"""Deterministic scrub storms, the load harness and the differential oracle.

The server's headline risk is concurrency correctness, so this module
provides the three pieces its test net is built from:

* :func:`make_storm` — a deterministic, seeded list of protocol ops (a
  "scrub storm" with grouping toggles mixed in) that every concurrent
  session replays identically;
* :func:`replay_storm_local` — the **differential oracle**: the same
  storm applied to a fresh, fully isolated
  :class:`~repro.core.session.AnalysisSession` (no shared structures,
  no result cache), returning canonical payload bytes per move;
* :func:`run_load` — N closed-loop concurrent WebSocket clients against
  an in-process (or remote ``--url``) server, measuring per-request
  round-trip latency percentiles (p50/p95/p99), optionally
  byte-comparing every concurrent payload against the oracle, and
  reporting the shared-cache counters that prove cross-session reuse.

Determinism is load-bearing: the storm is pure ``random.Random(seed)``,
layouts are seeded, payloads are canonical JSON — so "concurrent equals
isolated" is a byte equality over the full storm, not a tolerance.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import random
import time
import urllib.parse

from repro.errors import ReproError
from repro.obs.expo import histogram_series, parse_exposition, prom_name
from repro.obs.registry import bucket_quantile
from repro.server.app import ReproServer
from repro.server.client import WsClient, http_get
from repro.server.protocol import canonical_json
from repro.server.state import ServerConfig, SessionState
from repro.server.telemetry import REQUEST_HISTOGRAM, format_breakdown

__all__ = [
    "default_group_paths",
    "format_report",
    "make_storm",
    "percentile",
    "replay_storm_local",
    "run_load",
    "scrape_breakdown",
]

#: Exposition family name of the per-op request histograms.
_REQUEST_FAMILY = prom_name(REQUEST_HISTOGRAM)


async def scrape_breakdown(host: str, port: int) -> dict | None:
    """Per-op histogram state scraped from a remote ``/metrics``.

    Returns ``{op: (bounds, bucket_counts, count, sum)}`` — the same
    shape :meth:`~repro.server.telemetry.ServerTelemetry.breakdown`
    derives in-process — or ``None`` when the endpoint is unavailable
    (older server, ``--no-metrics``).  Two scrapes bracketing a load
    run subtract into the run's own per-op latency distribution.
    """
    status, body = await http_get(host, port, "/metrics")
    if status != 200:
        return None
    samples = parse_exposition(body.decode("utf-8"))
    series = histogram_series(samples, _REQUEST_FAMILY, by="op")
    counts: dict[str, float] = {}
    sums: dict[str, float] = {}
    for sample in samples:
        if sample.name == f"{_REQUEST_FAMILY}_count":
            counts[sample.label("op")] = sample.value
        elif sample.name == f"{_REQUEST_FAMILY}_sum":
            sums[sample.label("op")] = sample.value
    return {
        op: (bounds, buckets, counts.get(op, 0.0), sums.get(op, 0.0))
        for op, (bounds, buckets) in series.items()
    }


def _breakdown_between(before: dict | None, after: dict) -> dict:
    """The per-op latency summary of the interval between two scrapes."""
    out: dict[str, dict[str, float]] = {}
    for op in sorted(after):
        bounds, buckets, count, total = after[op]
        base = (before or {}).get(op)
        base_buckets = base[1] if base else [0.0] * len(buckets)
        base_count = base[2] if base else 0.0
        base_sum = base[3] if base else 0.0
        delta = [now - then for now, then in zip(buckets, base_buckets)]
        n = count - base_count
        if n <= 0:
            continue
        out[op] = {
            "count": float(n),
            "mean_s": (total - base_sum) / n,
            "p50_s": bucket_quantile(bounds, delta, 0.5),
            "p95_s": bucket_quantile(bounds, delta, 0.95),
            "p99_s": bucket_quantile(bounds, delta, 0.99),
        }
    return out


def percentile(samples: list[float], q: float) -> float:
    """The *q*-th percentile of *samples* (linear interpolation)."""
    if not samples:
        raise ReproError("no samples to take a percentile of")
    if not 0.0 <= q <= 100.0:
        raise ReproError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * (q / 100.0)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


def default_group_paths(trace, limit: int = 2) -> list[tuple[str, ...]]:
    """The first *limit* shallow hierarchy groups of *trace* — the
    storm's group/ungroup toggle targets."""
    from repro.core.hierarchy import Hierarchy

    return Hierarchy.from_trace(trace).groups()[:limit]


def make_storm(
    span: tuple[float, float],
    moves: int = 100,
    seed: int = 7,
    group_paths: list[tuple[str, ...]] | None = None,
    start_depth: int = 2,
    group_every: int = 8,
) -> list[dict]:
    """A deterministic list of *moves* protocol requests.

    The first move collapses to *start_depth* (the aggregate-first
    posture: scrub over aggregates, drill down on demand); the bulk is
    random slice scrubs inside *span*; every *group_every*-th move is a
    grouping interaction instead — a group/ungroup toggle on one of
    *group_paths* or a depth flip — exercising structure rebuilds and
    cache-key changes mid-storm.  Same ``(span, moves, seed, paths)``
    always yields the same storm; ``id`` fields are added by the
    transport, not here.
    """
    if moves < 1:
        raise ReproError(f"storm needs at least 1 move, got {moves}")
    rng = random.Random(seed)
    start, end = span
    width = end - start
    paths = list(group_paths or [])
    storm: list[dict] = []
    if start_depth > 0:
        storm.append({"op": "depth", "depth": start_depth})
    toggled: set[tuple[str, ...]] = set()
    while len(storm) < moves:
        move_index = len(storm)
        if group_every > 0 and move_index % group_every == group_every - 1:
            choice = rng.random()
            if paths and choice < 0.6:
                path = paths[rng.randrange(len(paths))]
                if path in toggled:
                    toggled.discard(path)
                    storm.append({"op": "ungroup", "path": list(path)})
                else:
                    toggled.add(path)
                    storm.append({"op": "group", "path": list(path)})
                continue
            toggled.clear()
            storm.append(
                {"op": "depth", "depth": start_depth if choice < 0.8 else 1}
            )
            continue
        a = start + rng.random() * width
        b = start + rng.random() * width
        lo, hi = (a, b) if a <= b else (b, a)
        storm.append({"op": "scrub", "start": lo, "end": hi})
    return storm


def replay_storm_local(
    trace, storm: list[dict], seed: int = 0, settle_steps: int = 2
) -> list[str]:
    """Canonical payload bytes of *storm* on one isolated session.

    The differential oracle: a fresh single-user
    :class:`~repro.core.session.AnalysisSession` with the same layout
    *seed* and *settle_steps* the server gives its sessions, sharing
    nothing with anyone.  Returns one canonical-JSON string per move.
    """
    state = SessionState.local(
        trace, seed=seed, settle_steps=settle_steps
    )
    return [canonical_json(state.apply(dict(move))) for move in storm]


async def _client_storm(
    host: str, port: int, storm: list[dict]
) -> tuple[list[float], list[str]]:
    """One closed-loop client: replay *storm*, record round trips.

    Returns ``(latencies_s, canonical payload strings)``; raises on any
    error envelope (the storm is valid by construction).
    """
    client = await WsClient.connect(host, port)
    latencies: list[float] = []
    payloads: list[str] = []
    try:
        hello = await client.request("hello")
        if not hello.get("ok"):
            raise ReproError(f"hello failed: {hello!r}")
        for move in storm:
            began = time.perf_counter()
            reply = await client.request(**move)
            latencies.append(time.perf_counter() - began)
            if not reply.get("ok"):
                raise ReproError(f"storm move {move!r} failed: {reply!r}")
            payloads.append(canonical_json(reply["result"]))
        await client.request("bye")
    finally:
        await client.close()
    return latencies, payloads


async def _drive(
    host: str,
    port: int,
    remote: bool,
    trace,
    sessions: int,
    moves: int,
    seed: int,
    settle_steps: int,
    layout_seed: int,
    differential: bool,
    keep_samples: bool,
) -> dict:
    """The client side of :func:`run_load` against ``host:port``; a
    *remote* server's counters are read over HTTP as well."""
    if trace is not None:
        span = trace.span()
        group_paths = default_group_paths(trace)
    else:
        status, body = await http_get(host, port, "/info")
        if status != 200:
            raise ReproError(f"/info returned HTTP {status}")
        span = tuple(json.loads(body)["span"])
        group_paths = []
    storm = make_storm(span, moves=moves, seed=seed, group_paths=group_paths)
    scrape_before = await scrape_breakdown(host, port) if remote else None
    began = time.perf_counter()
    results = await asyncio.gather(
        *(_client_storm(host, port, storm) for _ in range(sessions))
    )
    wall_s = time.perf_counter() - began
    pooled = [lat for latencies, _ in results for lat in latencies]
    report = {
        "sessions": sessions,
        "moves": len(storm),
        "requests": len(pooled),
        "wall_s": wall_s,
        "throughput_rps": len(pooled) / wall_s if wall_s > 0 else 0.0,
        "latency": {
            "p50_s": percentile(pooled, 50),
            "p95_s": percentile(pooled, 95),
            "p99_s": percentile(pooled, 99),
            "max_s": max(pooled),
            "mean_s": sum(pooled) / len(pooled),
        },
        "per_session_p95_s": [
            percentile(latencies, 95) for latencies, _ in results
        ],
    }
    if keep_samples:
        report["latency"]["samples_s"] = pooled
    if differential:
        oracle = replay_storm_local(
            trace, storm, seed=layout_seed, settle_steps=settle_steps
        )
        mismatches = sum(
            1
            for _, payloads in results
            for got, want in zip(payloads, oracle)
            if got != want
        )
        report["differential"] = {
            "checked": len(storm) * sessions,
            "mismatches": mismatches,
            "ok": mismatches == 0,
        }
    if remote:
        status, body = await http_get(host, port, "/stats")
        if status == 200:
            stats = json.loads(body)
            report["cache"] = stats.get("cache", {})
            report["server"] = stats.get("server", {})
        scrape_after = await scrape_breakdown(host, port)
        if scrape_after is not None:
            report["server_ops"] = _breakdown_between(
                scrape_before, scrape_after
            )
    return report


@contextlib.contextmanager
def _one_cpu():
    """Keep the calling thread, and the threads it starts, on one CPU.

    The in-process server loop runs on a second thread.  On several
    CPUs that thread and the asyncio clients hand the interpreter lock
    back and forth at every socket call, and 8-session storms measured
    up to 50% longer than on one CPU, where the two take turns at
    blocking calls as they did when client and server shared one
    event loop.  Pinning keeps the harness measuring the server rather
    than lock handoffs.  A no-op where affinity cannot be set.
    """
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def run_load(
    trace=None,
    url: str | None = None,
    sessions: int = 8,
    moves: int = 100,
    seed: int = 7,
    settle_steps: int = 2,
    layout_seed: int = 0,
    differential: bool = False,
    cache_entries: int = 4096,
    keep_samples: bool = False,
) -> dict:
    """Run a concurrent scrub-storm load test; return the report dict.

    With *url* ``None`` an in-process server is started on an ephemeral
    loopback port and a background thread (the default for tests and
    benches), and the caller's thread and that thread share one CPU for
    the run (:func:`_one_cpu`); otherwise the harness drives a running
    ``repro serve`` instance.  *sessions* closed-loop WebSocket clients each replay the
    same deterministic storm of *moves* requests; the report carries
    pooled and per-session latency percentiles, throughput, shared-cache
    counters and (with ``differential=True``, trace required) the
    byte-exact concurrent-vs-isolated comparison.  ``keep_samples=True``
    includes the raw pooled round-trip samples (the bench suite's
    input).
    """
    if differential and trace is None:
        raise ReproError("the differential check needs the trace locally")
    drive = dict(
        trace=trace,
        sessions=sessions,
        moves=moves,
        seed=seed,
        settle_steps=settle_steps,
        layout_seed=layout_seed,
        differential=differential,
        keep_samples=keep_samples,
    )
    if url is not None:
        parts = urllib.parse.urlsplit(url)
        if parts.hostname is None or parts.port is None:
            raise ReproError(f"url must be http://host:port, got {url!r}")
        return asyncio.run(
            _drive(parts.hostname, parts.port, remote=True, **drive)
        )
    if trace is None:
        raise ReproError("run_load needs a trace or a --url")
    config = ServerConfig(
        port=0,
        settle_steps=settle_steps,
        seed=layout_seed,
        max_sessions=max(sessions + 2, 8),
        cache_entries=cache_entries,
    )
    with _one_cpu(), ReproServer(trace, config) as server:
        report = asyncio.run(
            _drive(config.host, server.port, remote=False, **drive)
        )
    report["cache"] = server.state.cache.snapshot()
    report["server"] = dict(server.state.stats)
    report["server_ops"] = server.state.telemetry.breakdown()
    return report


def format_report(report: dict) -> str:
    """The load report as an aligned human-readable text block."""
    latency = report["latency"]
    lines = [
        f"sessions            {report['sessions']}",
        f"moves/session       {report['moves']}",
        f"requests            {report['requests']}",
        f"wall time           {report['wall_s']:.3f} s",
        f"throughput          {report['throughput_rps']:.1f} req/s",
        f"latency p50         {latency['p50_s'] * 1e3:.2f} ms",
        f"latency p95         {latency['p95_s'] * 1e3:.2f} ms",
        f"latency p99         {latency['p99_s'] * 1e3:.2f} ms",
        f"latency max         {latency['max_s'] * 1e3:.2f} ms",
    ]
    cache = report.get("cache")
    if cache:
        lines.append(
            f"cache hits/lookups  {cache['hits']}/{cache['lookups']}"
            f" (cross-session {cache['cross_hits']})"
        )
    diff = report.get("differential")
    if diff:
        verdict = "OK" if diff["ok"] else f"{diff['mismatches']} MISMATCHES"
        lines.append(
            f"differential        {verdict} over {diff['checked']} payloads"
        )
    ops = report.get("server_ops")
    if ops:
        lines.append("per-op server latency (from request histograms)")
        lines.append(format_breakdown(ops))
    return "\n".join(lines)
