"""End-to-end analyst-action benchmark on the paper's Grid'5000 scenario.

Usage, from the repository root::

    python3 benchmarks/e2e/run.py --workload scrub_slide --seed 1
    python3 benchmarks/e2e/run.py --seed 1 --out DIR            # all workloads
    python3 benchmarks/e2e/run.py --seed 1 --out DIR --trace 1  # layer table

Each run generates the input (the 4423-entity Grid'5000 master-worker
trace, fingerprinted), converts it with ``repro convert``, and drives
the program only through its entry points: ``repro render``
subprocesses (``open_full``) or a ``repro serve`` subprocess reached
over WebSocket (the other workloads).  One load process, at most two
connections, closed loops: every analyst waits for the view before the
next action.  Every reply is checked, and a seeded sample of 20 is
recomputed with the scalar Eq. 1 oracle after the timed phase.

It prints every metric by name with its unit and sample count, writes
``DIR/results.json`` (``results-trace.json`` with ``--trace 1``), and
ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics ``BENCHMARK.json`` gates untraced,
the per-layer breakdown (:mod:`layers`) and cache/cursor ratios with
``--trace 1``.  The exit
code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import itertools
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import xml.etree.ElementTree as ElementTree
from pathlib import Path

import layers
import scenario
import storms
from summary import definition, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Scratch space (ignored by git): the cached input, per-run temporary
#: directories and the default ``--out``.
WORK = HERE / ".e2e"

WORKLOADS = ("open_full", "scrub_slide", "scrub_jump", "drill_mixed")
#: Actions each primary session runs before the timed phase.
WARMUP_ACTIONS = {"scrub_slide": 100, "scrub_jump": 100, "drill_mixed": 8}
#: Spawn-to-ready (server) or ``repro convert`` (open_full) cycles whose
#: median is ``setup_s``.
SETUP_CYCLES = 5
ORACLE_SAMPLES = 20
RENDER_STEPS = 30
#: Longest wait for a reply or a render; a longer one is a failed action.
REPLY_TIMEOUT_S = 30.0
START_TIMEOUT_S = 60.0
CONVERT_TIMEOUT_S = 120.0
#: The timed phase splits into this many equal time windows and each
#: timing metric is the median over windows of the window's own
#: statistic, so a burst of interference from outside the benchmark in
#: one window does not move it.  Phases with fewer than
#: MIN_WINDOW_SAMPLES samples per window use a single window.
WINDOWS = 5
MIN_WINDOW_SAMPLES = 100


def _cpus() -> tuple[set[int], set[int]] | None:
    """``(load CPUs, program CPUs)``: with two or more CPUs the load
    process and the program (server, render, convert) each stay on
    their own, which keeps scheduler migrations out of the timings."""
    if not hasattr(os, "sched_getaffinity"):
        return None
    cpus = sorted(os.sched_getaffinity(0))
    return ({cpus[0]}, {cpus[1]}) if len(cpus) >= 2 else None


CPUS = _cpus()


def pin_program(pid: int) -> None:
    """Move a freshly spawned program process onto the program CPU."""
    if CPUS is not None:
        os.sched_setaffinity(pid, CPUS[1])


#: Checked preconditions: the workload measures what it claims to.
PRECONDITIONS = {
    "scrub_slide": (("cache.hit_ratio", "<=", 0.05),
                    ("agg.slice_delta_frac", ">=", 0.9)),
    "scrub_jump": (("cache.hit_ratio", ">=", 0.6),),
}


class Run:
    """One workload run: its settings, scratch directory and outcome."""

    def __init__(self, args, workload: str, workdir: Path,
                 text_trace: Path) -> None:
        self.workload = workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.traced = bool(args.trace)
        self.workdir = workdir
        self.text_trace = text_trace
        pythonpath = [str(SRC)] + [
            p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p
        ]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))
        self.began = 0.0  # perf_counter at the start of the timed phase
        #: (completed at, round trip) of each primary action, seconds
        self.latencies: list[tuple[float, float]] = []
        self.background: list[float] = []  # drill_mixed session B, s
        self.completions: list[float] = []  # completed at, every action
        self.attempted = 0
        self.completed = 0
        self.failed = 0
        self.failures: list[str] = []
        self.problems: list[str] = []
        self.setup_s: list[float] = []
        self.peak_rss_mb = 0.0
        self.phase_s = 0.0
        self.ratios: dict[str, float] = {}
        self.breakdown = layers.Breakdown() if self.traced else None
        self.missing: set[str] = set()
        self.samples: list = []  # replies kept for the oracle

    def fail(self, why: str) -> None:
        """Count one failed action."""
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(why)

    def record(self, rtt: float, primary: bool = True) -> None:
        """Count one completed action of round trip *rtt* seconds."""
        done = time.perf_counter() - self.began
        self.completed += 1
        self.completions.append(done)
        if primary:
            self.latencies.append((done, rtt))
        else:
            self.background.append(rtt)

    @property
    def correct(self) -> bool:
        """No failed action, no violated precondition, some timing."""
        return self.failed == 0 and not self.problems and bool(self.latencies)

    def windowed(self, stat, stamped) -> float:
        """Median over the phase's time windows of *stat*(window values).

        *stamped* holds ``(completed at, value)`` pairs.
        """
        count = WINDOWS if len(stamped) >= WINDOWS * MIN_WINDOW_SAMPLES else 1
        width = max(self.phase_s, 1e-9) / count
        windows: list[list[float]] = [[] for _ in range(count)]
        for done, value in stamped:
            windows[min(int(done / width), count - 1)].append(value)
        return statistics.median(stat(w, width) for w in windows if w)

    def action_ms(self, q: float) -> float:
        """Windowed *q*-th percentile of the primary round trips, ms."""
        stamped = self.latencies or [(0.0, 0.0)]
        return self.windowed(lambda w, _: percentile(w, q), stamped) * 1e3

    def metrics(self) -> dict[str, tuple[float, str, int]]:
        """``name -> (value, unit, samples)`` for this run's mode."""
        p50 = self.action_ms(50)
        if not self.traced:
            return {
                "setup_s": (statistics.median(self.setup_s or [0.0]), "s",
                            len(self.setup_s)),
                "action_p50_ms": (p50, "ms", len(self.latencies)),
                "action_p90_ms": (self.action_ms(90), "ms",
                                  len(self.latencies)),
                "throughput_aps": (
                    self.windowed(lambda w, width: len(w) / width,
                                  [(t, t) for t in self.completions or [0.0]]),
                    "1/s", self.completed),
                "peak_rss_mb": (self.peak_rss_mb, "MB", 1),
            }
        n = self.breakdown.actions
        out = {
            name: (value, unit, n)
            for name, (value, unit) in self.breakdown.metrics().items()
        }
        for name in ("agg.slice_delta_frac", "cache.hit_ratio",
                     "cache.cross_hit_ratio"):
            out[name] = (self.ratios.get(name, 0.0), "frac", n)
        out["traced.action_p50_ms"] = (p50, "ms", len(self.latencies))
        return out

    def check_preconditions(self) -> None:
        """Record every violated precondition and the residual gate."""
        for name, relation, bound in PRECONDITIONS.get(self.workload, ()):
            value = self.ratios.get(name, float("nan"))
            ok = value <= bound if relation == "<=" else value >= bound
            if not ok:
                self.problems.append(
                    f"precondition {name} {relation} {bound} violated "
                    f"({value:.3f})"
                )
        if self.traced and (
                self.breakdown.residual_frac > layers.RESIDUAL_BOUND):
            self.problems.append(
                f"residual {self.breakdown.residual_frac:.1%} of wall "
                f"time exceeds {layers.RESIDUAL_BOUND:.0%}"
            )


# ----------------------------------------------------------------------
# open_full: cold `repro render` processes
# ----------------------------------------------------------------------
def convert(run: Run, rtrace: Path) -> float:
    """Wall seconds of one ``repro convert`` of the text trace."""
    began = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "convert", str(run.text_trace),
         str(rtrace)],
        env=run.env, cwd=ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
    )
    pin_program(proc.pid)
    try:
        _, err = proc.communicate(timeout=CONVERT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    took = time.perf_counter() - began
    if proc.returncode != 0:
        raise RuntimeError(f"repro convert failed: {err.strip()}")
    return took


def render(run: Run, rtrace: Path, nodes: int, index: int,
           timed: bool) -> None:
    """One cold ``repro render`` at full detail, checked and timed."""
    svg = run.workdir / "view.svg"
    spans = run.workdir / f"render-{index}.json"
    head = (["-m", "repro"] if not run.traced
            else [str(HERE / "traced.py"), "--spans", str(spans)])
    command = [sys.executable, *head, "render", str(rtrace),
               "--steps", str(RENDER_STEPS), "--out", str(svg)]
    expired = threading.Event()

    def expire() -> None:
        expired.set()
        proc.kill()

    with open(run.workdir / "render.log", "ab") as log:
        env = dict(run.env, E2E_SPAWN_WALL=repr(time.time()))
        began = time.perf_counter()
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=log,
                                env=env, cwd=ROOT)
        pin_program(proc.pid)
        # A wedged render is killed at the deadline; wait4 (not
        # Popen.wait) so its rusage gives the peak RSS.
        deadline = threading.Timer(REPLY_TIMEOUT_S, expire)
        deadline.start()
        try:
            out = proc.stdout.read().decode("utf-8", "replace")
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            deadline.cancel()
        wall = time.perf_counter() - began
    proc.returncode = os.waitstatus_to_exitcode(status)
    problem = None
    if expired.is_set():
        problem = f"render: no result in {REPLY_TIMEOUT_S:.0f} s"
    elif proc.returncode != 0:
        problem = f"render exited {proc.returncode}"
    elif f"({nodes} nodes)" not in out:
        problem = f"render did not report {nodes} nodes: {out.strip()!r}"
    else:
        try:
            ElementTree.parse(svg)
        except ElementTree.ParseError as err:
            problem = f"render wrote invalid SVG: {err}"
    if not timed:
        if problem:
            run.problems.append(f"warm-up {problem}")
        return
    run.attempted += 1
    if problem:
        run.fail(problem)
        return
    run.record(wall)
    run.peak_rss_mb = max(run.peak_rss_mb, usage.ru_maxrss / 1024.0)
    if run.traced:
        data = json.loads(spans.read_text(encoding="utf-8"))
        run.breakdown.add_spans(data["spans"])
        run.breakdown.add_action(wall)
        run.missing.update(data["missing"])
        for key in ("slice_delta", "slice_full"):
            run.ratios[key] = run.ratios.get(key, 0) + data["agg"].get(key, 0)


def open_full(run: Run) -> None:
    from repro.trace import read_trace

    rtrace = run.workdir / "grid.rtrace"
    for _ in range(SETUP_CYCLES):
        run.setup_s.append(convert(run, rtrace))
    nodes = len(read_trace(run.text_trace))
    render(run, rtrace, nodes, 0, timed=False)
    run.began = time.perf_counter()
    for index in itertools.count(1):
        if time.perf_counter() - run.began >= run.seconds:
            break
        render(run, rtrace, nodes, index, timed=True)
    run.phase_s = time.perf_counter() - run.began
    if run.traced:
        delta = run.ratios.pop("slice_delta", 0)
        full = run.ratios.pop("slice_full", 0)
        run.ratios["agg.slice_delta_frac"] = delta / max(delta + full, 1)


# ----------------------------------------------------------------------
# Server workloads: one `repro serve` process, WebSocket analysts
# ----------------------------------------------------------------------
class Server:
    """A ``repro serve`` subprocess on an ephemeral loopback port."""

    def __init__(self, proc, port: int, ready_s: float,
                 spans: Path | None) -> None:
        self.proc = proc
        self.port = port
        self.ready_s = ready_s
        self.spans = spans

    @classmethod
    async def start(cls, run: Run, rtrace: Path) -> "Server":
        """Spawn and wait for the first ``/healthz`` 200."""
        from repro.server.client import http_get

        spans = run.workdir / "spans-server.json" if run.traced else None
        head = (["-m", "repro"] if spans is None
                else [str(HERE / "traced.py"), "--spans", str(spans)])
        with open(run.workdir / "server.log", "ab") as log:
            env = dict(run.env, E2E_SPAWN_WALL=repr(time.time()))
            began = time.perf_counter()
            proc = await asyncio.create_subprocess_exec(
                sys.executable, *head, "serve", str(rtrace), "--port", "0",
                stdout=subprocess.PIPE, stderr=log, env=env, cwd=ROOT,
            )
        pin_program(proc.pid)

        async def ready() -> int:
            line = await proc.stdout.readline()
            match = re.search(rb"http://[\w.]+:(\d+)", line)
            if match is None:
                raise RuntimeError(f"server did not start: {line!r}")
            port = int(match.group(1))
            while True:
                try:
                    status, _ = await http_get("127.0.0.1", port, "/healthz")
                except OSError:
                    status = 0
                if status == 200:
                    return port
                await asyncio.sleep(0.005)

        try:
            port = await asyncio.wait_for(ready(), START_TIMEOUT_S)
        except BaseException:
            proc.kill()
            await proc.wait()
            raise
        return cls(proc, port, time.perf_counter() - began, spans)

    def peak_rss_mb(self) -> float:
        """The server's resident-set high-water mark (``VmHWM``)."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+)", status).group(1)) / 1024.0

    async def stop(self) -> int:
        """SIGTERM, wait (kill after 30 s); returns the exit code."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                await asyncio.wait_for(self.proc.wait(), 30.0)
            except asyncio.TimeoutError:
                self.proc.kill()
                await self.proc.wait()
        return self.proc.returncode


class Analyst:
    """One WebSocket session, its replica and its role in the workload."""

    def __init__(self, client, role: str, replica) -> None:
        self.client = client
        self.role = role
        self.replica = replica
        self.session = ""
        self.dead = False
        self._ids = itertools.count(1)

    async def query(self, op: str, **params) -> dict:
        """An unchecked request (hello, stats, bye)."""
        from repro.server.protocol import canonical_json

        msg = {"id": next(self._ids), "op": op, **params}
        await self.client.ws.send_text(canonical_json(msg))
        text = await asyncio.wait_for(self.client.ws.recv_text(),
                                      REPLY_TIMEOUT_S)
        if text is None:
            raise ConnectionError(f"server closed the session during {op}")
        return json.loads(text)

    async def act(self, request: dict):
        """One analyst action: ``(msg, round trip s, reply, problem)``.

        The round trip runs from sending the request to receiving the
        reply bytes; parsing and checking happen outside it.
        """
        from checks import check_reply
        from repro.errors import ReproError
        from repro.server.protocol import canonical_json

        msg = dict(request, id=next(self._ids))
        text = canonical_json(msg)
        began = time.perf_counter()
        try:
            await self.client.ws.send_text(text)
            reply = await asyncio.wait_for(self.client.ws.recv_text(),
                                           REPLY_TIMEOUT_S)
        except asyncio.TimeoutError:
            self.dead = True
            return msg, None, None, f"{msg['op']}: no reply in 30 s"
        except (OSError, ReproError) as err:
            self.dead = True
            return msg, None, None, f"{msg['op']}: disconnected ({err})"
        rtt = time.perf_counter() - began
        if reply is None:
            self.dead = True
            return msg, None, None, f"{msg['op']}: server closed the session"
        try:
            reply = json.loads(reply)
        except ValueError:
            return msg, rtt, None, f"{msg['op']}: reply is not JSON"
        self.replica.apply(msg)
        return msg, rtt, reply, check_reply(reply, msg, self.replica)

    def request_id(self, msg: dict) -> str:
        """The ``session:id`` key the traced server tags its spans with."""
        return f"{self.session}:{msg['id']}"


def session_plan(workload: str, span, sites) -> list:
    """``(role, depth, storm factory(seed))`` per session of *workload*."""
    if workload == "scrub_slide":
        return [("primary", storms.SITE_DEPTH,
                 lambda seed: storms.slide(span, seed))]
    if workload == "scrub_jump":
        return [
            ("primary", storms.CLUSTER_DEPTH,
             lambda seed, k=k: storms.jump(span, seed, k))
            for k in range(storms.JUMP_SESSIONS)
        ]
    return [
        ("primary", storms.SITE_DEPTH,
         lambda seed: storms.drill(sites, seed)),
        ("background", storms.SITE_DEPTH,
         lambda seed: storms.slide(span, seed + 500)),
    ]


async def run_phase(analysts, streams, record, *, seconds=None,
                    actions=None) -> float:
    """Replay *streams* closed-loop; returns the phase's wall seconds.

    Primary sessions stop after *seconds* (or *actions* actions); the
    background session keeps going until every primary has stopped.
    """
    primaries_done = asyncio.Event()
    began = time.perf_counter()

    async def loop(analyst, stream):
        for count, request in enumerate(stream):
            if analyst.dead:
                return
            if analyst.role == "primary":
                if seconds is not None and (
                        time.perf_counter() - began >= seconds):
                    return
                if actions is not None and count >= actions:
                    return
            elif primaries_done.is_set():
                return
            record(analyst, *await analyst.act(request))

    tasks = {
        role: [asyncio.ensure_future(loop(a, s))
               for a, s in zip(analysts, streams) if a.role == role]
        for role in ("primary", "background")
    }
    await asyncio.gather(*tasks["primary"])
    primaries_done.set()
    await asyncio.gather(*tasks["background"])
    return time.perf_counter() - began


async def counters(server: Server, analysts) -> dict[str, int]:
    """Cumulative result-cache and slice-cursor counters."""
    from repro.server.client import http_get

    status, body = await http_get("127.0.0.1", server.port, "/stats")
    if status != 200:
        raise RuntimeError(f"/stats returned HTTP {status}")
    cache = json.loads(body)["cache"]
    out = {key: int(cache[key]) for key in ("lookups", "hits", "cross_hits")}
    out["slice_delta"] = out["slice_full"] = 0
    for analyst in analysts:
        if analyst.dead:
            continue
        agg = (await analyst.query("stats"))["result"]["agg"]
        out["slice_delta"] += int(agg.get("slice_delta", 0))
        out["slice_full"] += int(agg.get("slice_full", 0))
    return out


async def drive(run: Run, server: Server, trace, hierarchy) -> list:
    """Warm up, run the timed phase, collect counters; returns the
    ``(request id, round trip)`` of every timed action."""
    from checks import Replica, Reservoir
    from repro.server.client import WsClient

    span = trace.span()
    plan = session_plan(run.workload, span, hierarchy.groups_at_depth(2))
    unit_counts: dict = {}
    analysts: list[Analyst] = []
    try:
        for role, depth, _ in plan:
            client = await WsClient.connect("127.0.0.1", server.port)
            analyst = Analyst(client, role, Replica(trace, hierarchy,
                                                    unit_counts))
            analysts.append(analyst)
            analyst.session = (await analyst.query("hello"))["result"][
                "session"]
            *_, problem = await analyst.act({"op": "depth", "depth": depth})
            if problem:
                run.problems.append(f"set-up {problem}")

        def warm(analyst, msg, rtt, reply, problem):
            if problem:
                run.problems.append(f"warm-up {problem}")

        await run_phase(
            analysts, [make(run.seed + 1000) for *_, make in plan], warm,
            actions=WARMUP_ACTIONS[run.workload],
        )
        before = await counters(server, analysts)
        reservoir = Reservoir(ORACLE_SAMPLES, run.seed + 2000)
        joins: list[tuple[str, float]] = []

        def timed(analyst, msg, rtt, reply, problem):
            run.attempted += 1
            if problem:
                run.fail(problem)
                return
            run.record(rtt, primary=analyst.role == "primary")
            joins.append((analyst.request_id(msg), rtt))
            reservoir.offer(analyst.replica.sample(reply["result"]))

        # Replies are acyclic, so reference counting frees them; with
        # the collector off, no load-side pause lands inside a timing.
        gc.collect()
        gc.disable()
        try:
            run.began = time.perf_counter()
            run.phase_s = await run_phase(
                analysts, [make(run.seed) for *_, make in plan], timed,
                seconds=run.seconds,
            )
        finally:
            gc.enable()
        after = await counters(server, analysts)
        for analyst in analysts:
            if not analyst.dead:
                await analyst.query("bye")
    finally:
        for analyst in analysts:
            try:
                await analyst.client.close()
            except (OSError, ConnectionError):
                pass
    delta = {key: after[key] - before[key] for key in after}
    lookups = max(delta["lookups"], 1)
    run.ratios = {
        "cache.hit_ratio": delta["hits"] / lookups,
        "cache.cross_hit_ratio": delta["cross_hits"] / lookups,
        "agg.slice_delta_frac": delta["slice_delta"]
        / max(delta["slice_delta"] + delta["slice_full"], 1),
    }
    run.samples = reservoir.items
    return joins


async def serve_workload(run: Run) -> None:
    from checks import oracle_mismatch
    from repro.core.hierarchy import Hierarchy
    from repro.trace import read_trace

    rtrace = run.workdir / "grid.rtrace"
    convert(run, rtrace)
    trace = read_trace(run.text_trace)
    hierarchy = Hierarchy.from_trace(trace)
    server = None
    try:
        for _ in range(1 if run.traced else SETUP_CYCLES):
            if server is not None:
                await server.stop()
            server = await Server.start(run, rtrace)
            run.setup_s.append(server.ready_s)
        joins = await drive(run, server, trace, hierarchy)
        run.peak_rss_mb = server.peak_rss_mb()
    finally:
        if server is not None:
            code = await server.stop()
    if code != 0:
        run.problems.append(f"server exited {code} on SIGTERM")
        return
    if run.traced:
        data = json.loads(server.spans.read_text(encoding="utf-8"))
        wanted = {rid for rid, _ in joins}
        durations = run.breakdown.add_spans(
            data["spans"], keep=lambda root: root[4] in wanted
        )
        for rid, rtt in joins:
            run.breakdown.add_round_trip(rtt, durations.get(rid))
        run.missing.update(data["missing"])
    for sample in run.samples:
        why = oracle_mismatch(trace, hierarchy, sample)
        if why:
            run.fail(f"oracle: {why}")


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def gated(traced: bool) -> list[str]:
    """Names of the ``BENCHMARK.json`` metrics of one mode."""
    return [m["name"]
            for m in definition()["per_layer" if traced else "end_to_end"]]


def report(run: Run) -> dict:
    """Print *run*'s metrics; return its results.json record."""
    metrics = run.metrics()
    mode = "traced" if run.traced else "untraced"
    print(f"[{run.workload}] seed {run.seed}, {mode}, "
          f"{run.phase_s:.1f} s phase, {run.attempted} actions, "
          f"{run.failed} failed")
    named = gated(run.traced)
    for name, (value, unit, n) in metrics.items():
        note = "" if name in named else "  (not gated)"
        print(f"  {name:<26} {value:>14.4f} {unit:<13} n={n}{note}")
    background = None
    if run.background:
        background = {
            "p50_ms": percentile(run.background, 50) * 1e3,
            "p90_ms": percentile(run.background, 90) * 1e3,
            "n": len(run.background),
        }
        print("  background scrubs (session B): p50 {p50_ms:.3f} ms, "
              "p90 {p90_ms:.3f} ms, n={n}".format(**background))
    if run.ratios and not run.traced:
        print("  ratios: " + ", ".join(
            f"{k} {v:.3f}" for k, v in sorted(run.ratios.items())))
    if run.traced:
        top = ", ".join(f"{layer} {share:.1%}"
                        for layer, share in run.breakdown.top())
        print(f"  top layers by self time: {top}")
        if run.missing:
            print("  missing wrap targets (their time is in the residual): "
                  + ", ".join(sorted(run.missing)))
        if run.breakdown.unjoined:
            print(f"  {run.breakdown.unjoined} round trips had no server "
                  f"request span (their time is in the residual)")
    issues = run.failures + run.problems
    for why in issues[:10]:
        print(f"  FAILED: {why}")
    if len(issues) > 10:
        print(f"  ... and {len(issues) - 10} more")
    return {
        "workload": run.workload,
        "seed": run.seed,
        "trace": int(run.traced),
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": issues[:10],
        "metrics": {name: {"value": value, "unit": unit, "n": n}
                    for name, (value, unit, n) in metrics.items()},
        "background": background,
        "ratios": run.ratios,
        "missing": sorted(run.missing),
    }


def print_overhead(traced: list[dict], untraced_path: Path) -> None:
    """Tracing overhead: traced minus untraced median action p50, per
    workload, when an untraced run set sits in the same ``--out``."""
    if not untraced_path.exists():
        return
    untraced = json.loads(untraced_path.read_text(encoding="utf-8"))["runs"]
    for workload in WORKLOADS:
        with_spans = [r["metrics"]["traced.action_p50_ms"]["value"]
                      for r in traced if r["workload"] == workload]
        without = [r["metrics"]["action_p50_ms"]["value"]
                   for r in untraced if r["workload"] == workload]
        if with_spans and without:
            base = statistics.median(without)
            extra = statistics.median(with_spans) - base
            print(f"tracing overhead [{workload}]: {extra:+.4f} ms on "
                  f"p50 {base:.4f} ms ({extra / base:+.1%})")


def execute(args, workload: str, text_trace: Path) -> Run:
    """Run *workload* once in a fresh scratch directory."""
    from repro.errors import ReproError

    with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{workload}-") as tmp:
        run = Run(args, workload, Path(tmp), text_trace)
        try:
            if workload == "open_full":
                open_full(run)
            else:
                asyncio.run(serve_workload(run))
        except (OSError, RuntimeError, ValueError, KeyError, ReproError,
                asyncio.TimeoutError, subprocess.SubprocessError) as err:
            log = Path(tmp) / ("render.log" if workload == "open_full"
                               else "server.log")
            tail = log.read_text(errors="replace")[-2000:] if log.exists() else ""
            run.problems.append(f"{type(err).__name__}: {err} {tail}".strip())
        run.check_preconditions()
        if run.traced:
            for path in Path(tmp).glob("*.json"):
                target = args.out / f"spans-{workload}-{path.name}"
                target.write_bytes(path.read_bytes())
    return run


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="End-to-end analyst-action benchmark "
        "(Grid'5000 scenario).")
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all, in order)")
    parser.add_argument("--seed", type=int, default=1,
                        help="storm and oracle-sample seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed phase per run (default: run_seconds "
                        "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer "
                        "breakdown instead of the end-to-end metrics")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload (a run set for compare.py)")
    parser.add_argument("--out", type=Path, default=WORK / "out",
                        help="directory for results.json and spans")
    parser.add_argument("--scale", type=int, choices=sorted(
        scenario.FINGERPRINTS), default=1,
                        help="shrink every cluster by this factor "
                        "(the self-test uses 8)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}; run from the root of "
              f"a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if CPUS is not None:
        os.sched_setaffinity(0, CPUS[0])
    if args.seconds is None:
        args.seconds = float(definition()["run_seconds"])
    WORK.mkdir(exist_ok=True)
    args.out.mkdir(parents=True, exist_ok=True)
    try:
        text_trace = scenario.text_trace(WORK / "cache", args.scale)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    records = []
    for workload in workloads:
        for _ in range(args.runs):
            records.append(report(execute(args, workload, text_trace)))
    name = "results-trace.json" if args.trace else "results.json"
    (args.out / name).write_text(
        json.dumps({"runs": records}, indent=1), encoding="utf-8")
    if args.trace:
        print_overhead(records, args.out / "results.json")
    final = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
    }
    if final["attempted"] == 0:
        # Set-up failed before any action: the run itself is the attempt.
        final["attempted"] = final["failed"] = 1
    named = gated(bool(args.trace))
    if len(records) == 1:
        final["metrics"] = {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in records[0]["metrics"].items() if name in named
        }
    else:
        final["metrics"] = {
            f"{workload}.{name}": {
                "value": statistics.median(
                    r["metrics"][name]["value"] for r in records
                    if r["workload"] == workload),
                "unit": records[0]["metrics"][name]["unit"],
            }
            for workload in workloads
            for name in named
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
