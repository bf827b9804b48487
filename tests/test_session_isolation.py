"""Sessions sharing trace structures cannot observe each other's state.

The aliasing regression net (ISSUE 7 satellite 3).  Sharing is only
safe because every object that crosses a session boundary is immutable
or copied:

* ``SliceCache`` mean arrays are frozen (``writeable=False``) — the
  original aliasing bug let a caller mutate the cached means in place,
  silently corrupting every later view *of every session* built over
  the same slice;
* a view's per-unit ``values`` dicts are private copies, so mutating a
  view never reaches the shared result cache;
* per-session state (time cursors, grouping, layout positions) lives
  outside :class:`~repro.core.aggengine.SharedTraceData`, so one
  session's scrubs and group toggles are invisible to its neighbours.

Every test here drives two sessions over one ``SharedTraceData`` and
one :class:`~repro.server.cache.SharedResultCache` — the exact server
wiring — and checks the second session against a fresh isolated oracle.
"""

import numpy as np
import pytest

from repro.core.aggengine import AggregationEngine, SharedTraceData
from repro.core.session import AnalysisSession
from repro.server.cache import SharedResultCache
from repro.server.protocol import canonical_json, view_payload
from repro.server.state import ServerConfig, SessionState, SharedServerState
from repro.trace.synthetic import random_hierarchical_trace


@pytest.fixture(scope="module")
def trace():
    return random_hierarchical_trace(
        n_sites=2, clusters_per_site=2, hosts_per_cluster=3, seed=23
    )


def shared_pair(trace):
    """Two sessions wired exactly like the server wires them."""
    shared = SharedTraceData(trace)
    cache = SharedResultCache()
    a = AnalysisSession(
        trace, shared=shared, result_cache=cache, session_id="a"
    )
    b = AnalysisSession(
        trace, shared=shared, result_cache=cache, session_id="b"
    )
    return a, b, cache


class TestFrozenSliceMeans:
    def test_cached_means_are_read_only(self, trace):
        """The aliasing fix itself: writing into the means array a
        SliceCache hands out raises instead of corrupting the cache."""
        metric = trace.metric_names()[0]
        session = AnalysisSession(trace)
        session.view(settle_steps=0)  # populate the slice caches
        engine = session._aggregator
        assert isinstance(engine, AggregationEngine)
        means = engine._slice_caches[metric].means(session.time_slice)
        assert means.flags.writeable is False
        with pytest.raises(ValueError, match="read-only"):
            means[0] = 1e9

    def test_shared_bank_means_are_read_only_too(self, trace):
        shared = SharedTraceData(trace)
        session = AnalysisSession(trace, shared=shared, session_id="s")
        session.view(settle_steps=0)
        metric = trace.metric_names()[0]
        means = session._aggregator._slice_caches[metric].means(
            session.time_slice
        )
        with pytest.raises(ValueError, match="read-only"):
            means[:] = 0.0

    def test_cached_unit_values_are_read_only(self, trace):
        """A value the result cache serves — here to the session that
        did not compute it — is one frozen float64 array per view."""
        a, b, cache = shared_pair(trace)
        a.view(settle_steps=0)
        b.view(settle_steps=0)
        assert cache.stats["cross_hits"] > 0
        metrics = tuple(trace.metric_names())
        key = (b.time_slice.as_tuple(), b.grouping.state_key, metrics)
        values = cache.get(key, requester="b")
        assert isinstance(values, np.ndarray)
        assert values.dtype == np.float64 and values.size > len(metrics)
        assert values.flags.writeable is False
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 1e9


class TestEvictionRebuild:
    def test_hit_computed_on_an_evicted_structure_reads_by_key(self, trace):
        """Cached values are aligned by the grouping token's unit order,
        not by structure identity.  A computes under a structure that is
        then evicted; B rebuilds it under the same ``state_key`` and is
        served A's values: B's reply bytes equal an isolated replay."""
        state = SharedServerState(trace, ServerConfig(settle_steps=1))
        state.shared.MAX_STRUCTURES = 1
        a, b = state.create_session(), state.create_session()
        start, end = trace.span()
        ops = [
            {"op": "depth", "depth": 2},
            {"op": "depth", "depth": 1},
            {"op": "scrub", "start": start, "end": (start + end) / 3},
        ]
        for msg in ops:
            a.apply(msg)
        old = state.shared.structure(a.session.grouping)
        hits = state.cache.stats["cross_hits"]
        oracle = SessionState.local(trace, settle_steps=1)
        for msg in ops:
            assert canonical_json(b.apply(msg)) == canonical_json(
                oracle.apply(msg)
            )
        # B's depth-1 and scrub replies were A's cached values ...
        assert state.cache.stats["cross_hits"] - hits >= 2
        # ... read through a rebuilt structure, not the one A used.
        new = state.shared.structure(b.session.grouping)
        assert new is not old and new.key == old.key
        assert state.shared.stats["structure_evictions"] >= 2


class TestViewMutationDoesNotLeak:
    def test_mutating_a_view_never_reaches_the_cache(self, trace):
        """Session A defaces its own view; session B's later cache hits
        still serve the true values."""
        a, b, cache = shared_pair(trace)
        view_a = a.view(settle_steps=0)
        for unit in view_a.aggregated.units.values():
            for metric in list(unit.values):
                unit.values[metric] = -1e9  # vandalize A's copy
        view_b = b.view(settle_steps=0)  # same keys -> cache hits
        assert cache.stats["cross_hits"] > 0
        oracle = AnalysisSession(trace)
        expected = oracle.view(settle_steps=0)
        assert canonical_json(view_payload(view_b)) == canonical_json(
            view_payload(expected)
        )

    def test_mutating_view_edges_is_local_to_that_view(self, trace):
        a, b, _ = shared_pair(trace)
        view_a = a.view(settle_steps=0)
        n_edges = len(view_a.aggregated.edges)
        view_a.aggregated.edges.clear()
        view_b = b.view(settle_steps=0)
        assert len(view_b.aggregated.edges) == n_edges


class TestPerSessionStateStaysPrivate:
    def test_grouping_in_one_session_is_invisible_to_the_other(self, trace):
        a, b, _ = shared_pair(trace)
        a.aggregate_depth(1)  # A collapses to sites
        view_a = a.view(settle_steps=0)
        view_b = b.view(settle_steps=0)  # B still at full detail
        assert any(u.is_aggregate for u in view_a.aggregated.units.values())
        assert not any(
            u.is_aggregate for u in view_b.aggregated.units.values()
        )
        oracle = AnalysisSession(trace)
        assert canonical_json(view_payload(view_b)) == canonical_json(
            view_payload(oracle.view(settle_steps=0))
        )

    def test_scrubbing_in_one_session_is_invisible_to_the_other(self, trace):
        a, b, _ = shared_pair(trace)
        start, end = trace.span()
        a.set_time_slice(start, start + (end - start) / 4)
        b_view = b.view(settle_steps=0)
        assert b_view.tslice.as_tuple() == (start, end)
        oracle = AnalysisSession(trace)
        assert canonical_json(view_payload(b_view)) == canonical_json(
            view_payload(oracle.view(settle_steps=0))
        )

    def test_layout_positions_are_per_session(self, trace):
        """Settling one session's layout does not move the other's
        nodes: dynamic layout state is private."""
        a, b, _ = shared_pair(trace)
        before = view_payload(b.view(settle_steps=0))["positions"]
        for _ in range(5):
            a.view(settle_steps=3)  # relax A's layout hard
        after = view_payload(b.view(settle_steps=0))["positions"]
        assert before == after


class TestSharedStructureImmutability:
    def test_structure_tables_are_tuples(self, trace):
        """The cross-session structure tables cannot be appended to or
        reordered in place."""
        shared = SharedTraceData(trace)
        session = AnalysisSession(trace, shared=shared, session_id="s")
        session.view(settle_steps=0)
        structure = shared.structure(session.grouping)
        assert isinstance(structure.unit_order, tuple)
        assert isinstance(structure.edges, tuple)
        for table in (
            structure.members, structure.groups, structure.kinds,
            structure.labels,
        ):
            assert isinstance(table, tuple)
            assert len(table) == len(structure.unit_order)
        assert all(isinstance(members, tuple) for members in structure.members)
