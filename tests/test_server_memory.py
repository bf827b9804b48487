"""Resident memory of the server's shared aggregation state.

A server process keeps one trace resident and, in its shared result
cache, one entry per (slice, grouping, metrics) view it has served.
Scrubbing fills that cache to capacity, so what one entry costs, times
the entries the capacity holds, is memory every server process holds.
An entry is one read-only float64 array of every metric's values back
to back, each in the structure's per-metric unit order, and weighs its
number of metrics against the capacity.  One entry per metric of a view
retains about 2 MB on this scenario, a name-keyed ``{unit: float}`` dict
per metric more than twice that.

Three more bounds pin the entity tables.  Opening a store decodes its
table from arrays, so the open's peak stays near what it keeps.  Per
trace, an opened store plus the server state keeps one
:class:`~repro.trace.entities.EntityTable` and no per-entity object.
Per grouping, a view of a newly expanded site adds its unit structure,
one seed array and the session layout's growth; the layout remembers
entity positions in one array over the table's indices.
"""

import gc
import tracemalloc

import pytest

from repro.core.aggengine import SharedTraceData
from repro.core.session import AnalysisSession
from repro.server.cache import SharedResultCache
from repro.server.state import ServerConfig, SharedServerState
from repro.trace.store import open_store, write_store

from tests.test_store_differential import grid_trace  # noqa: F401 (fixture)

#: Distinct slide windows scrubbed at site/cluster depth 2.
SCRUBS = 1100
#: Result-cache capacity in metric results, the server default.
CACHE_ENTRIES = 4096
#: Allowed growth of traced memory once the cache is full; one entry
#: per view retains 1.03 MB here, one per metric 2.04 MB.
RETAINED_BOUND_MB = 1.5


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
    assert n_metrics == 4 and SCRUBS + 1 > CACHE_ENTRIES // n_metrics
    assert len(cache) == CACHE_ENTRIES // n_metrics == 1024
    assert cache.snapshot()["size"] == CACHE_ENTRIES
    assert (after - before) / 2**20 < RETAINED_BOUND_MB


#: Traced peak of opening the reduced Grid'5000 store (605 entities) and
#: its trace: 0.15 MB with the entity table, rows and edges stored as
#: arrays, 0.61 MB when each entity, row and edge end was JSON to decode.
OPEN_PEAK_BOUND_MB = 0.35
#: Traced memory of an opened reduced Grid'5000 store (605 entities)
#: plus the server state and one ``hello``: 0.19 MB with one entity
#: table, 0.43 MB with name-keyed store dicts, eager per-entity objects
#: and per-prefix leaf lists.
PER_TRACE_BOUND_MB = 0.25
#: Traced growth of one view after expanding the largest site of the
#: reduced Grid'5000 trace at depth 2 (149 units): its unit structure
#: with the per-metric layouts, the seed array and the session layout's
#: growth.  74 KB with index arrays, 122 KB with name-keyed seed dicts
#: and a per-entity position dict.
PER_GROUPING_BOUND_KB = 95


@pytest.fixture(scope="module")
def grid_store(grid_trace, tmp_path_factory):  # noqa: F811
    """The reduced Grid'5000 trace written as a store file."""
    path = tmp_path_factory.mktemp("memory") / "grid.rtrace"
    write_store(grid_trace, path)
    return path


def _traced(action):
    """``(result, retained bytes, peak bytes)`` of *action* under
    tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        result = action()
        gc.collect()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, after - before, peak - before


def test_store_open_peak_stays_under_bound(grid_store):
    open_store(grid_store).open_trace()  # imports are not the open
    trace, retained, peak = _traced(
        lambda: open_store(grid_store).open_trace()
    )
    assert len(trace) > 500 and retained < peak
    assert peak / 2**20 < OPEN_PEAK_BOUND_MB


def test_per_trace_tables_stay_under_bound(grid_store):
    import repro.server.state  # noqa: F401 - imports are not the trace

    def serve():
        trace = open_store(grid_store).open_trace()
        state = SharedServerState(trace, ServerConfig())
        hello = state.create_session().apply({"op": "hello"})
        return state, hello

    (state, hello), retained, _ = _traced(serve)
    assert hello["entities"] == len(state.trace) > 500
    assert retained / 2**20 < PER_TRACE_BOUND_MB


def test_per_grouping_growth_stays_under_bound(grid_store):
    trace = open_store(grid_store).open_trace()
    shared = SharedTraceData(trace)
    session = AnalysisSession(trace, shared=shared)
    session.aggregate_depth(2)
    session.view(settle=False)
    site = max(
        shared.hierarchy.groups_at_depth(2),
        key=lambda group: len(shared.hierarchy.leaves(group)),
    )
    session.disaggregate(site)
    # The view itself is the caller's and is dropped; what stays is
    # the shared structure, the seed entry and the session's layout.
    nodes, retained, _ = _traced(
        lambda: len(session.view(settle=False).graph)
    )
    assert nodes > 100
    assert shared.stats["structure_builds"] == 2
    assert shared.stats["seed_builds"] == 2
    assert retained / 2**10 < PER_GROUPING_BOUND_KB
