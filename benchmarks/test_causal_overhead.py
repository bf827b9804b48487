"""Acceptance bound — causal tracing is free when disabled.

The causal tracer threads hook sites through the simulator's hot loop
(``spawn``, ``_dispatch``, ``_dispatch_put``, ``_drain_resume``,
``run``).  The contract mirrors ``repro.obs.spans``: with no tracer
attached (the default ``tracer=None``) every hook site is a single
``is not None`` check, so the committed ``sim`` suite baseline
(``BENCH_sim.json``) must not regress by more than 5%.

Measured by projection rather than a direct A/B re-run (which is
machine- and noise-fragile in CI): time the disabled guard check
itself with the calibrated :func:`repro.obs.bench.measure` harness,
count how many guard crossings the baseline ``sim.master_worker``
workload (:func:`repro.obs.bench.master_worker_sim`) performs (from
the engine's own ``sim.stats`` counters), and bound
``guard_cost * crossings`` against the committed per-run median.
"""

import json
from pathlib import Path

import pytest

from repro.obs import bench
from repro.simulation import Simulator

BASELINE = Path(__file__).parent.parent / "BENCH_sim.json"

#: Acceptance bound from ISSUE: <5% disabled-mode overhead on the
#: recorded ``sim`` suite baseline.
MAX_OVERHEAD = 0.05


def _guard_crossings(sim: Simulator) -> int:
    """Disabled tracer-guard checks one run performs, from sim.stats.

    One per spawn (``spawn``) plus one per process exit
    (``_drain_resume``'s StopIteration branch), one per resume
    (``_drain_resume``) plus one per dispatched request (``_dispatch``
    — every resume dispatches at most one request), one per put
    (``_dispatch_put``'s inject conditional, == delivered messages)
    and one in ``run``.
    """
    stats = sim.stats
    return 2 * stats["resumes"] + 2 * stats["spawns"] + stats["messages"] + 1


def test_disabled_tracer_overhead_within_bounds(report):
    if not BASELINE.exists():  # pragma: no cover - baseline is committed
        pytest.skip("no committed BENCH_sim.json baseline")
    payload = json.loads(BASELINE.read_text())
    case = payload["cases"]["master_worker"]
    params = case["params"]
    base_s = case["median_s"]

    sim = bench.master_worker_sim(
        params["workers"], params["tasks_per_worker"]
    )
    assert sim.tracer is None  # the production default: tracing off
    crossings = _guard_crossings(sim)

    def guard_check():
        """The disabled hot-path cost: attribute load + identity test."""
        if sim.tracer is not None:  # pragma: no cover - tracer is None
            raise AssertionError("tracer unexpectedly attached")

    stats = bench.measure(guard_check, quick=True)
    per_check = stats["median_s"]
    projected = per_check * crossings / base_s

    report("causal_overhead", [
        f"{'guard cost':<22} {per_check * 1e9:>10.1f} ns/check",
        f"{'guard crossings/run':<22} {crossings:>10d}",
        f"{'baseline median':<22} {base_s * 1e6:>10.1f} us/run",
        f"{'projected overhead':<22} {projected:>10.3%}",
    ])

    # A guard is an attribute load and an identity test; if it costs
    # microseconds something is structurally wrong.
    assert per_check < 5e-6, f"guard check costs {per_check * 1e6:.2f} us"
    assert projected < MAX_OVERHEAD, (
        f"projected disabled-tracer overhead is {projected:.2%} of the "
        f"sim.master_worker baseline (bound {MAX_OVERHEAD:.0%})"
    )


def test_disabled_tracer_stamps_no_context():
    """No tracer attached -> delivered messages carry no span context."""
    sim = Simulator(bench.star_platform(1))
    received = []

    def sender(ctx):
        yield ctx.send("w0", 10.0, "m")

    def receiver(ctx):
        received.append((yield ctx.recv("m")))

    sim.spawn(sender, "m")
    sim.spawn(receiver, "w0")
    sim.run()
    (message,) = received
    assert message.ctx is None
