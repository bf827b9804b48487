"""Claim — concurrency is nearly free when sessions share their work.

The multi-session server's whole premise (ROADMAP item 1) is that N
analysts scrubbing the same trace should not cost N times one analyst:
the trace structures are loaded once (``SharedTraceData``) and combined
unit values flow between sessions through the shared result cache.
This bench runs the ``server`` bench suite — the same deterministic
scrub storm replayed solo and by 8 concurrent closed-loop WebSocket
sessions — and pins the acceptance criteria over that run:

* 8-way-concurrent p95 round-trip latency stays within ``P95_FACTOR``x
  the single-session p95 (ISSUE 7's 3x bound);
* the concurrent run proves **cross-session** cache traffic: hits from
  sessions other than the one that populated the entry;
* speed never buys different bytes — the concurrent payloads match
  a fresh isolated session exactly (the differential is re-asserted
  here on the bench workload, not just in the unit net).

The suite run lands in ``results/BENCH_server.json``.  Set
``REPRO_BENCH_QUICK=1`` for the CI smoke variant (smaller trace, same
assertions).
"""

import os

from conftest import RESULTS_DIR
from repro.obs import bench
from repro.server.load import run_load

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

#: Concurrent p95 must stay within this factor of the solo p95.
P95_FACTOR = 3.0


def test_concurrent_p95_within_factor_of_solo(report):
    result = bench.run_suite("server", quick=QUICK)
    solo = result["cases"]["scrub_solo"]
    concurrent = result["cases"]["scrub_c8"]
    p95_solo = solo["p95_s"]
    p95_c8 = concurrent["p95_s"]
    ratio = p95_c8 / p95_solo
    bench.write_result(result, RESULTS_DIR)
    report(
        "server_load",
        [
            f"entities={concurrent['params']['entities']}"
            f"  moves={concurrent['params']['moves']}  sessions=8",
            f"solo p95  {p95_solo * 1e3:8.3f} ms",
            f"c8 p95    {p95_c8 * 1e3:8.3f} ms",
            f"ratio: {ratio:.2f}x (bound {P95_FACTOR}x)  "
            f"cross-hits: {concurrent['cache_cross_hits']}  "
            f"differential: "
            f"{'OK' if concurrent['differential_ok'] else 'FAILED'}",
        ],
    )

    # Speed: concurrency amortizes, it does not multiply.
    assert p95_c8 <= P95_FACTOR * p95_solo, (
        f"8-way p95 {p95_c8 * 1e3:.2f} ms exceeds {P95_FACTOR}x the solo "
        f"p95 {p95_solo * 1e3:.2f} ms (ratio {ratio:.2f})"
    )
    # Sharing: sessions actually consumed each other's work.
    assert concurrent["cache_cross_hits"] > 0
    # Correctness: byte-identical to an isolated session.
    assert concurrent["differential_ok"]


def test_shared_cache_carries_the_wave(report):
    """Within one concurrent wave, exactly one session computes each
    (slice, grouping, metric) triple; the rest hit the cache."""
    trace, moves = bench.server_workload(QUICK)
    sessions = 4
    result = run_load(
        trace=trace, sessions=sessions, moves=moves, settle_steps=0,
    )
    cache = result["cache"]
    # Every lookup resolves: hits + misses == lookups.
    assert cache["hits"] + cache["misses"] == cache["lookups"]
    # Each distinct triple is computed once (a put), and consumed by
    # the other sessions as hits: with S sessions replaying the same
    # storm, hits ≈ (S - 1) * puts.
    assert cache["puts"] > 0
    assert cache["hits"] >= (sessions - 2) * cache["puts"]
