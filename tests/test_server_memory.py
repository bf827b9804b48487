"""Resident memory of the server's shared aggregation state.

A server process keeps one trace resident and, in its shared result
cache, one combined value set per (slice, grouping, metric) it has
served.  Scrubbing fills that cache to capacity, so what one entry
costs, times the capacity, is memory every server process holds.
Entries are read-only float64 arrays in the structure's per-metric
unit order; a name-keyed ``{unit: float}`` dict per entry retains more
than twice as much on this scenario.
"""

import gc
import tracemalloc

from repro.core.aggengine import SharedTraceData
from repro.core.session import AnalysisSession
from repro.server.cache import SharedResultCache

from tests.test_store_differential import grid_trace  # noqa: F401 (fixture)

#: Distinct slide windows scrubbed at site/cluster depth 2.
SCRUBS = 1100
#: Result-cache capacity, the server default.
CACHE_ENTRIES = 4096
#: Allowed growth of traced memory once the cache is full; array entries
#: retain about 2 MB here.
RETAINED_BOUND_MB = 3


def test_full_result_cache_stays_under_bound(grid_trace):  # noqa: F811
    shared = SharedTraceData(grid_trace)
    cache = SharedResultCache(CACHE_ENTRIES)
    session = AnalysisSession(
        grid_trace, shared=shared, result_cache=cache, session_id="s"
    )
    session.aggregate_depth(2)
    start, end = grid_trace.span()
    width = (end - start) / 20
    step = (end - start - width) / SCRUBS
    tracemalloc.start()
    try:
        session.set_time_slice(start, start + width)
        session.view(settle=False)  # banks, structure and layout exist
        gc.collect()
        before, _ = tracemalloc.get_traced_memory()
        for i in range(1, SCRUBS + 1):
            lo = start + i * step
            session.set_time_slice(lo, lo + width)
            session.view(settle=False)
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n_metrics = len(grid_trace.metric_names())
    assert cache.stats["hits"] == 0
    assert len(session.view(settle=False).aggregated.units) == 41
    assert len(cache) == CACHE_ENTRIES < (SCRUBS + 1) * n_metrics
    assert (after - before) / 2**20 < RETAINED_BOUND_MB
