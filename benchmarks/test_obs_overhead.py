"""Acceptance bound — the repro.obs layer is free when disabled.

PR 3 threads ``span(...)`` context managers through every pipeline hot
path (trace read, slice/spatial aggregation, layout build/traverse, SVG
render, simulator settle).  The contract: with ``REPRO_OBS`` unset each
span call is a single flag check returning a shared no-op object, so the
recorded interactivity baselines of PR 1/PR 2 must not regress by more
than 5%.

Measured directly rather than by re-running the (noise-prone) end-to-end
benchmarks: time the disabled ``span()`` call itself, count how many
span crossings the baseline workloads perform per operation, and bound
the projected overhead against the committed per-operation medians of
the ``layout`` suite's ``step_n128`` case (``BENCH_layout.json``) and
the ``aggregation`` suite's ``scrub_move`` case
(``BENCH_aggregation.json``), so the bound needs nothing an earlier
benchmark run writes.
"""

import json
from pathlib import Path

import pytest

from repro.obs import disable, enable, enabled
from repro.obs.bench import measure
from repro.obs.spans import span

ROOT = Path(__file__).parent.parent

#: Acceptance bound: <5% regression with REPRO_OBS unset.
MAX_OVERHEAD = 0.05

#: Span crossings per benchmark operation, counted from the span
#: placement: one ``step_n128`` relaxation step = at most 1 build + 1
#: traverse span (the build is skipped while the tree is reused); one
#: ``scrub_move`` = 1 slice + 1 spatial span per metric (capacity and
#: usage).
SPANS_PER_LAYOUT_STEP = 2
SPANS_PER_SCRUB_MOVE = 4

#: (row label, committed suite file, case, spans per operation).
BASELINES = (
    ("layout step (step_n128)", "BENCH_layout.json", "step_n128",
     SPANS_PER_LAYOUT_STEP),
    ("aggregation scrub_move", "BENCH_aggregation.json", "scrub_move",
     SPANS_PER_SCRUB_MOVE),
)


@pytest.fixture()
def obs_disabled():
    """Force the disabled (production default) state for the timing."""
    was = enabled()
    disable()
    yield
    if was:
        enable()


def _disabled_span_cost_s() -> float:
    """Per-call wall cost of entering+exiting a disabled span."""

    def one_span():
        with span("bench.noop", key=1):
            pass

    return measure(one_span, quick=True)["median_s"]


def test_disabled_span_overhead_within_bounds(obs_disabled, report):
    per_call = _disabled_span_cost_s()

    rows = [f"{'workload':<28} {'base s/op':>12} {'proj ovh':>9}"]
    checks = []
    for label, name, case, spans in BASELINES:
        suite = json.loads((ROOT / name).read_text())
        base = suite["cases"][case]["median_s"]
        overhead = per_call * spans / base
        rows.append(f"{label:<28} {base:>12.6f} {overhead:>8.3%}")
        checks.append((label, overhead))

    rows.append(f"disabled span cost: {per_call * 1e9:.0f} ns/call")
    report("obs_overhead", rows)

    # An absolute sanity bound too: a flag check + constant return must
    # not cost microseconds.
    assert per_call < 5e-6, f"disabled span costs {per_call * 1e6:.2f} us"
    for name, overhead in checks:
        assert overhead < MAX_OVERHEAD, (
            f"projected obs overhead on {name} is {overhead:.2%} "
            f"(bound {MAX_OVERHEAD:.0%})"
        )


def test_disabled_span_records_nothing(obs_disabled):
    from repro.obs import registry

    registry.timer("bench.silent").reset()
    with span("bench.silent"):
        pass
    assert registry.timer("bench.silent").count == 0


# ----------------------------------------------------------------------
# Request-accounting overhead (the observability tentpole)
# ----------------------------------------------------------------------
#: The request path the telemetry funnel rides on, from the committed
#: server baseline: one ``ServerTelemetry.observe`` per request.
SERVER_BASELINE = ROOT / "BENCH_server.json"


def _histogram_observe_cost_s() -> float:
    """Per-call wall cost of one ``Histogram.observe``."""
    from repro.obs import Histogram

    h = Histogram("bench.hist")
    return measure(lambda: h.observe(0.002), quick=True)["median_s"]


def _telemetry_observe_cost_s() -> float:
    """Per-call wall cost of the full request-accounting funnel
    (histogram + stat-group counters + self-trace ring; no access
    log, which is opt-in)."""
    from repro.obs import registry
    from repro.server.telemetry import RequestRecord, ServerTelemetry

    telemetry = ServerTelemetry({})
    record = RequestRecord(
        session="bench", op="scrub", began_s=0.0, wall_s=0.002,
        bytes_in=64, bytes_out=1024, tier="shared", ok=True,
    )
    cost = measure(lambda: telemetry.observe(record), quick=True)["median_s"]
    registry.reset()
    return cost


def test_request_accounting_overhead_within_bounds(report):
    """The always-on per-request accounting stays under the 5% bound
    against the committed solo-scrub server baseline."""
    hist_cost = _histogram_observe_cost_s()
    funnel_cost = _telemetry_observe_cost_s()

    rows = [
        f"histogram observe:  {hist_cost * 1e9:8.0f} ns/call",
        f"telemetry funnel:   {funnel_cost * 1e9:8.0f} ns/request",
    ]
    # Absolute sanity: bucket bisect + locked increments are sub-µs,
    # the whole funnel low single-digit µs.
    assert hist_cost < 5e-6, f"histogram observe costs {hist_cost * 1e6:.2f} us"
    assert funnel_cost < 50e-6, (
        f"telemetry funnel costs {funnel_cost * 1e6:.2f} us"
    )

    if SERVER_BASELINE.exists():
        base = json.loads(SERVER_BASELINE.read_text())
        scrub_p50 = base["cases"]["scrub_solo"]["p50_s"]
        overhead = funnel_cost / scrub_p50
        rows.append(
            f"{'scrub_solo request':<28} {scrub_p50:>12.6f} "
            f"{overhead:>8.3%}"
        )
        assert overhead < MAX_OVERHEAD, (
            f"request accounting is {overhead:.2%} of the scrub_solo "
            f"p50 baseline (bound {MAX_OVERHEAD:.0%})"
        )
    report("request_accounting_overhead", rows)

