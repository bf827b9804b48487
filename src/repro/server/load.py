"""Deterministic scrub storms, the load harness and the differential oracle.

The server's headline risk is concurrency correctness, so this module
provides the three pieces its test net is built from:

* :func:`make_storm` — a deterministic, seeded list of protocol ops (a
  "scrub storm" with grouping toggles mixed in) that every concurrent
  session replays identically;
* :func:`replay_storm_local` — the **differential oracle**: the same
  storm applied to a fresh, fully isolated
  :class:`~repro.core.session.AnalysisSession` (no shared structures,
  no result cache), returning per move the reply bytes
  :func:`~repro.server.state.canonical_reply` writes for its result
  (a view op's through :func:`~repro.server.protocol.view_payload`);
* :func:`run_load` — N closed-loop concurrent WebSocket clients against
  an in-process (or remote ``--url``) server, measuring per-request
  round-trip latency percentiles (p50/p95/p99), optionally
  byte-comparing every reply as received against the oracle, and
  reporting the shared-cache counters that prove cross-session reuse.
  It reads the server only over its endpoints, however it is hosted.

Determinism is load-bearing: the storm is pure ``random.Random(seed)``,
layouts are seeded, replies are canonical JSON — so "concurrent equals
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
from repro.obs.registry import sample_quantile
from repro.server.app import ReproServer
from repro.server.client import WsClient, http_get, scrape_breakdown
from repro.server.protocol import canonical_json
from repro.server.state import ServerConfig, SessionState, canonical_reply
from repro.server.telemetry import _breakdown_between, format_breakdown

__all__ = [
    "default_group_paths",
    "format_report",
    "make_storm",
    "replay_storm_local",
    "run_load",
]

#: Hierarchy depth a storm collapses to first, and the depth most of its
#: depth flips return to.
_START_DEPTH = 2
#: Every this many moves, a storm makes a grouping move instead of a scrub.
_GROUP_EVERY = 8
#: How many of the hierarchy's groups a storm toggles (the first ones).
_GROUP_PATHS = 2


def default_group_paths(trace) -> list[tuple[str, ...]]:
    """The first shallow hierarchy groups of *trace* — the storm's
    group/ungroup toggle targets."""
    from repro.core.hierarchy import Hierarchy

    return Hierarchy.from_trace(trace).groups()[:_GROUP_PATHS]


def make_storm(
    span: tuple[float, float],
    moves: int = 100,
    seed: int = 7,
    group_paths: list[tuple[str, ...]] | None = None,
) -> list[dict]:
    """A deterministic list of *moves* protocol requests.

    The first move collapses to depth 2 (the aggregate-first posture:
    scrub over aggregates, drill down on demand); the bulk is random
    slice scrubs inside *span*; every eighth move is a grouping
    interaction instead — a group/ungroup toggle on one of
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
    storm: list[dict] = [{"op": "depth", "depth": _START_DEPTH}]
    toggled: set[tuple[str, ...]] = set()
    while len(storm) < moves:
        if len(storm) % _GROUP_EVERY == _GROUP_EVERY - 1:
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
                {"op": "depth", "depth": _START_DEPTH if choice < 0.8 else 1}
            )
            continue
        a = start + rng.random() * width
        b = start + rng.random() * width
        lo, hi = (a, b) if a <= b else (b, a)
        storm.append({"op": "scrub", "start": lo, "end": hi})
    return storm


def replay_storm_local(
    trace, storm: list[dict], settle_steps: int = 2
) -> list[str]:
    """Oracle reply bytes of *storm* on one isolated session.

    The differential oracle: a fresh single-user
    :class:`~repro.core.session.AnalysisSession` with the layout seed
    (:data:`~repro.server.state.SESSION_SEED`) and *settle_steps* the
    server gives its sessions, sharing nothing with anyone.  Returns,
    for move *i*, the :func:`~repro.server.state.canonical_reply` of its
    result under request id *i*: the exact reply the server must send
    to that move.
    """
    state = SessionState.local(trace, settle_steps=settle_steps)
    return [
        canonical_reply(index, move["op"], state.apply(dict(move)))
        for index, move in enumerate(storm)
    ]


async def _client_storm(
    host: str, port: int, storm: list[dict]
) -> tuple[list[float], list[str]]:
    """One closed-loop client: replay *storm*, record round trips.

    Move *i* goes out as request id *i*.  Returns ``(latencies_s,
    reply texts as received)``; raises on any error envelope (the storm
    is valid by construction).
    """
    client = await WsClient.connect(host, port)
    latencies: list[float] = []
    replies: list[str] = []
    try:
        hello = await client.request("hello")
        if not hello.get("ok"):
            raise ReproError(f"hello failed: {hello!r}")
        for index, move in enumerate(storm):
            request = {"id": index, **move}
            began = time.perf_counter()
            reply = await client.exchange(canonical_json(request))
            ok = json.loads(reply).get("ok")
            latencies.append(time.perf_counter() - began)
            if not ok:
                raise ReproError(f"storm move {move!r} failed: {reply}")
            replies.append(reply)
        await client.request("bye")
    finally:
        await client.close()
    return latencies, replies


async def _get_json(host: str, port: int, path: str) -> dict:
    status, body = await http_get(host, port, path)
    if status != 200:
        raise ReproError(f"{path} returned HTTP {status}")
    return json.loads(body)


async def _scrape(host: str, port: int) -> dict:
    scraped = await scrape_breakdown(host, port)
    if scraped is None:
        raise ReproError("/metrics did not return 200 OK")
    return scraped


async def _drive(
    host: str,
    port: int,
    trace,
    sessions: int,
    moves: int,
    seed: int,
    settle_steps: int,
    differential: bool,
    keep_samples: bool,
) -> dict:
    """The client side of :func:`run_load` against ``host:port``.

    The storm is timed alone.  Two ``/metrics`` scrapes around it give
    the per-op server latency of the interval, and one ``/stats`` after
    it the server and cache counters.
    """
    if trace is not None:
        span = trace.span()
        group_paths = default_group_paths(trace)
    else:
        span = tuple((await _get_json(host, port, "/info"))["span"])
        group_paths = []
    storm = make_storm(span, moves=moves, seed=seed, group_paths=group_paths)
    scrape_before = await _scrape(host, port)
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
            "p50_s": sample_quantile(pooled, 0.5),
            "p95_s": sample_quantile(pooled, 0.95),
            "p99_s": sample_quantile(pooled, 0.99),
            "max_s": max(pooled),
            "mean_s": sum(pooled) / len(pooled),
        },
        "per_session_p95_s": [
            sample_quantile(latencies, 0.95) for latencies, _ in results
        ],
    }
    if keep_samples:
        report["latency"]["samples_s"] = pooled
    if differential:
        oracle = replay_storm_local(trace, storm, settle_steps=settle_steps)
        mismatches = sum(
            1
            for _, replies in results
            for got, want in zip(replies, oracle)
            if got != want
        )
        report["differential"] = {
            "checked": len(storm) * sessions,
            "mismatches": mismatches,
            "ok": mismatches == 0,
        }
    stats = await _get_json(host, port, "/stats")
    report["cache"] = stats["cache"]
    report["server"] = stats["server"]
    report["server_ops"] = _breakdown_between(
        scrape_before, await _scrape(host, port)
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
    differential: bool = False,
    cache_entries: int = 4096,
    keep_samples: bool = False,
) -> dict:
    """Run a concurrent scrub-storm load test; return the report dict.

    With *url* ``None`` an in-process server is started on an ephemeral
    loopback port and a background thread (the default for tests and
    benches), and the caller's thread and that thread share one CPU for
    the run (:func:`_one_cpu`); otherwise the harness drives a running
    ``repro serve`` instance.  Either way the harness reads the server
    only over its endpoints.  *sessions* closed-loop WebSocket clients
    each replay the same deterministic storm of *moves* requests; the
    report carries pooled and per-session latency percentiles,
    throughput, the ``/stats`` server and cache counters, the per-op
    server latency between two ``/metrics`` scrapes (``server_ops``)
    and (with ``differential=True``, trace required) the byte-exact
    concurrent-vs-isolated comparison.  ``keep_samples=True`` includes
    the raw pooled round-trip samples (the bench suite's input).
    """
    if sessions < 1:
        raise ReproError(
            f"a load run needs at least 1 session, got {sessions}"
        )
    if differential and trace is None:
        raise ReproError("the differential check needs the trace locally")
    drive = dict(
        trace=trace,
        sessions=sessions,
        moves=moves,
        seed=seed,
        settle_steps=settle_steps,
        differential=differential,
        keep_samples=keep_samples,
    )
    if url is not None:
        parts = urllib.parse.urlsplit(url)
        if parts.hostname is None or parts.port is None:
            raise ReproError(f"url must be http://host:port, got {url!r}")
        return asyncio.run(_drive(parts.hostname, parts.port, **drive))
    if trace is None:
        raise ReproError("run_load needs a trace or a --url")
    config = ServerConfig(
        port=0,
        settle_steps=settle_steps,
        max_sessions=max(sessions + 2, 8),
        cache_entries=cache_entries,
    )
    with _one_cpu(), ReproServer(trace, config) as server:
        return asyncio.run(_drive(config.host, server.port, **drive))


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
    cache = report["cache"]
    lines.append(
        f"cache hits/lookups  {cache['hits']}/{cache['lookups']}"
        f" (cross-session {cache['cross_hits']})"
    )
    diff = report.get("differential")
    if diff:
        verdict = "OK" if diff["ok"] else f"{diff['mismatches']} MISMATCHES"
        lines.append(
            f"differential        {verdict} over {diff['checked']} replies"
        )
    lines.append("per-op server latency (from request histograms)")
    lines.append(format_breakdown(report["server_ops"]))
    return "\n".join(lines)
