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
entity positions in one array over the table's indices.  A unit
structure holds its grouping as index arrays (member rows, kind and
group codes, unit-index edges), so the structures of every site
expansion, which a drill leaves in the shared memo, stay small too.

The last bounds are transients: writing the reply of that view, and
the server's whole reply path for it.  The one-pass writer holds about
twice the reply; a payload dict tree encoded by ``json.dumps`` held
over ten times the reply.  Encoding and framing then add nothing to the
writer's peak.
"""

import gc
import socket
import tracemalloc

import pytest

from repro.core.aggengine import SharedTraceData
from repro.core.hierarchy import GroupingState
from repro.core.session import AnalysisSession
from repro.server.app import ReproServer, _Connection
from repro.server.cache import SharedResultCache
from repro.server.protocol import view_reply
from repro.server.state import (
    ServerConfig,
    SharedServerState,
    canonical_reply,
)
from repro.server.ws import OP_TEXT, encode_frame
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
#: growth.  60 KB with the structure as index arrays, 86 KB when it
#: kept per-unit member-name tuples, kind and group tuples and edge
#: objects, 122 KB with name-keyed seed dicts and a per-entity position
#: dict besides.
PER_GROUPING_BOUND_KB = 75
#: Traced memory the unit structures of all ten site expansions of
#: the reduced Grid'5000 trace retain, with their per-metric layouts:
#: 219 KB as index arrays, 361 KB with per-unit member-name tuples,
#: kind and group tuples and edge objects.
SITE_STRUCTURES_BOUND_KB = 270
#: Traced peak of writing the reply of that view (149 units, a 30.6 KB
#: reply): 61 KB with :func:`~repro.server.protocol.view_reply`, 353 KB
#: as ``canonical_json(ok_envelope(..., view_payload(view)))``.  On the
#: full trace's 907-unit view, 0.34 against 2.03 MB.
WRITE_PEAK_BOUND_KB = 150
#: How far the server's whole reply path for that view (write, encode,
#: frame, send) may peak above the writer alone: 0.2 KB once the text
#: is dropped after encoding and the frame header is sent beside the
#: payload, 30 KB (one more reply) when text, bytes and the joined frame
#: were alive at once.  On the full trace's 907-unit view, 0.337 against
#: 0.504 MB, the writer alone peaking at 0.336 MB.
FRAME_SLACK_KB = 8


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


def test_site_expansion_structures_stay_under_bound(grid_store):
    """The unit structures of every site expansion, each with its
    per-metric layouts, as the drill workload leaves them in the
    shared memo."""
    trace = open_store(grid_store).open_trace()
    shared = SharedTraceData(trace)
    metrics = trace.metric_names()
    grouping = GroupingState(shared.hierarchy)
    grouping.collapse_depth(2)
    for metric in metrics:  # the per-trace lazies are not per grouping
        shared.structure(grouping).metric_layout(metric)
    sites = shared.hierarchy.groups_at_depth(2)

    def expand_every_site():
        for site in sites:
            grouping.expand(site)
            structure = shared.structure(grouping)
            for metric in metrics:
                structure.metric_layout(metric)
            grouping.collapse(site)
        return len(shared._structures)

    structures, retained, _ = _traced(expand_every_site)
    assert structures == len(sites) + 1 > 5
    assert retained / 2**10 < SITE_STRUCTURES_BOUND_KB


def _expanded_site_view(trace):
    """The view after expanding the largest site at depth 2."""
    shared = SharedTraceData(trace)
    session = AnalysisSession(trace, shared=shared)
    session.aggregate_depth(2)
    session.view(settle=False)
    site = max(
        shared.hierarchy.groups_at_depth(2),
        key=lambda group: len(shared.hierarchy.leaves(group)),
    )
    session.disaggregate(site)
    return session.view(settle=False)


def test_reply_write_peak_stays_under_bound(grid_store):
    view = _expanded_site_view(open_store(grid_store).open_trace())
    reply, _, peak = _traced(lambda: view_reply(7, "ungroup", view))
    assert len(view.graph) > 100
    assert reply == canonical_reply(7, "ungroup", view)
    assert peak / 2**10 < WRITE_PEAK_BOUND_KB


def test_framing_does_not_set_the_reply_peak(grid_store):
    """The server's whole reply path for that view — write, encode,
    frame, send — peaks no higher than the writer alone (plus
    :data:`FRAME_SLACK_KB`): the text goes once encoded, and the frame
    header goes out beside the payload instead of joined to it."""
    trace = open_store(grid_store).open_trace()
    view = _expanded_site_view(trace)
    server = ReproServer(trace, ServerConfig())
    ours, theirs = socket.socketpair()
    conn = _Connection(ours)
    conn.session = server.state.create_session()
    meta = {"op": "ungroup", "ok": True, "code": "", "tier": "none"}
    server._serve_frame = lambda session, text: (
        view_reply(7, "ungroup", view), False, meta
    )
    request = '{"id":7,"op":"ungroup"}'
    with ours, theirs:
        ours.setblocking(False)
        want = encode_frame(
            OP_TEXT, canonical_reply(7, "ungroup", view).encode(), mask=False
        )
        for _ in range(2):  # the first one creates the op's histogram
            _, _, write_peak = _traced(
                lambda: view_reply(7, "ungroup", view)
            )
            _, _, peak = _traced(
                lambda: server._serve_request(conn, request)
            )
            got = bytearray()
            while len(got) < len(want):
                got += theirs.recv(len(want) - len(got))
            assert got == want and not conn.outbox
    assert peak < write_peak + FRAME_SLACK_KB * 2**10
