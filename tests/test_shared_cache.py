"""Property tests of the shared result cache (ISSUE 7 satellite 2).

The :class:`~repro.server.cache.SharedResultCache` is the one mutable
structure every concurrent session touches, so its contract is pinned
four ways:

* **key distinctness** — distinct ``(slice, state_key, metrics)``
  keys occupy distinct slots and never shadow each other, and the
  engine keeps one entry per view: a metric subset and the full view
  of one slice are two entries;
* **eviction is invisible** — a bounded LRU returns, on every hit,
  exactly the value an unbounded model dict holds; capacity only turns
  hits into misses (recomputes), never into wrong answers, and with
  weighted entries the weight held stays within the capacity;
* **poisoning is unaddressable** — after a grouping-revision bump the
  new ``state_key`` changes every future key, so a tampered entry under
  the old key can never be served again (structural invalidation);
* **accounting balances under interleaving** — ``hits + misses ==
  lookups`` and ``puts + updates == put calls`` hold even with many
  threads hammering one instance, because each counter pair moves under
  the same lock.
"""

import random
import sys
import threading
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggengine import AggregationEngine, SharedTraceData
from repro.core.aggregation import aggregate_view
from repro.core.hierarchy import GroupingState, Hierarchy
from repro.core.session import AnalysisSession
from repro.core.timeslice import TimeSlice
from repro.errors import AggregationError
from repro.server.cache import SharedResultCache
from repro.trace.synthetic import random_hierarchical_trace

# ----------------------------------------------------------------------
# Key strategies: the real key shape, (slice tuple, state_key, metrics)
# ----------------------------------------------------------------------
_slices = st.tuples(
    st.floats(0.0, 100.0, allow_nan=False), st.floats(0.0, 100.0, allow_nan=False)
)
_paths = st.tuples(st.sampled_from(["a", "b", "c"]), st.sampled_from(["x", "y"]))
_state_keys = st.frozensets(_paths, max_size=3).map(lambda s: tuple(sorted(s)))
_metrics = st.lists(
    st.sampled_from(["usage", "power", "bandwidth"]), min_size=1, max_size=3
).map(tuple)
_keys = st.tuples(_slices, _state_keys, _metrics)


class TestKeyDistinctness:
    @given(st.lists(_keys, min_size=1, max_size=30, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_distinct_triples_occupy_distinct_slots(self, keys):
        cache = SharedResultCache(max_entries=1000)
        for i, key in enumerate(keys):
            cache.put(key, {"value": i}, owner=f"s{i}")
        assert len(cache) == len(keys)
        for i, key in enumerate(keys):
            assert cache.get(key, requester="probe") == {"value": i}

    def test_metric_alone_distinguishes(self):
        cache = SharedResultCache()
        base = ((0.0, 1.0), ())
        cache.put((*base, ("usage",)), "u")
        cache.put((*base, ("usage", "power")), "up", weight=2)
        assert cache.get((*base, ("usage",))) == "u"
        assert cache.get((*base, ("usage", "power"))) == "up"

    def test_state_key_alone_distinguishes(self):
        cache = SharedResultCache()
        collapsed = (("root", "site0"),)
        cache.put(((0.0, 1.0), (), ("usage",)), "flat")
        cache.put(((0.0, 1.0), collapsed, ("usage",)), "grouped")
        assert cache.get(((0.0, 1.0), (), ("usage",))) == "flat"
        assert cache.get(((0.0, 1.0), collapsed, ("usage",))) == "grouped"


# ----------------------------------------------------------------------
# Eviction: capacity costs recomputes, never correctness
# ----------------------------------------------------------------------
_ops = st.lists(
    st.tuples(
        st.sampled_from(["put", "get"]),
        st.integers(0, 11),
        st.integers(1, 4),
    ),
    min_size=1,
    max_size=120,
)


class TestEvictionNeverChangesResults:
    @given(ops=_ops, capacity=st.integers(1, 8))
    @settings(max_examples=80, deadline=None)
    def test_bounded_hits_agree_with_unbounded_model(self, ops, capacity):
        """Replay one op sequence of entries weighing 1 to 4 against a
        tiny LRU and a plain dict: every value the LRU serves equals the
        model's, the LRU holds exactly what a weighted LRU model holds,
        and the summed weight stays within the capacity unless one
        entry heavier than it is held alone."""
        cache = SharedResultCache(max_entries=capacity)
        model: dict = {}
        lru: "OrderedDict[tuple, int]" = OrderedDict()
        for op, key_index, weight in ops:
            key = ((float(key_index), 1.0), (), ("usage",) * weight)
            if op == "put":
                value = {"k": key_index, "w": weight}
                cache.put(key, value, owner="writer", weight=weight)
                model.setdefault(key, value)  # first owner wins
                if key not in lru:
                    lru[key] = weight
                    while sum(lru.values()) > capacity and len(lru) > 1:
                        lru.popitem(last=False)
                lru.move_to_end(key)
            else:
                got = cache.get(key, requester="reader")
                assert (got is not None) == (key in lru)
                if got is not None:
                    assert got == model[key]
                    lru.move_to_end(key)
            held = cache.snapshot()["size"]
            assert held == sum(lru.values()) and len(cache) == len(lru)
            assert held <= capacity or len(cache) == 1
        stats = cache.stats
        assert stats["hits"] + stats["misses"] == stats["lookups"]

    def test_eviction_is_lru_ordered(self):
        cache = SharedResultCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a
        cache.put("c", 3)  # evicts b, the least recently used
        assert "b" not in cache
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats["evictions"] == 1


# ----------------------------------------------------------------------
# One entry per view
# ----------------------------------------------------------------------
class TestPerViewEntries:
    @pytest.fixture
    def setup(self):
        trace = random_hierarchical_trace(
            n_sites=2, clusters_per_site=2, hosts_per_cluster=3, seed=11
        )
        shared = SharedTraceData(trace)
        grouping = GroupingState(shared.hierarchy)
        grouping.collapse_depth(2)
        start, end = trace.span()
        return trace, shared, grouping, TimeSlice(start, (start + end) / 2)

    def test_metric_subset_and_full_view_are_separate_entries(self, setup):
        """Each view is one entry weighing its metrics; both views equal
        the oracle, and a second engine is served both from the cache."""
        trace, shared, grouping, tslice = setup
        metrics = trace.metric_names()
        subset = metrics[:1]
        assert len(metrics) > 1
        cache = SharedResultCache()
        views = []
        for owner in ("a", "b"):
            engine = AggregationEngine(
                trace, shared=shared, result_cache=cache, cache_owner=owner
            )
            views.append((
                (engine.view(grouping, tslice), metrics),
                (engine.view(grouping, tslice, metrics=subset), subset),
            ))
        assert len(cache) == 2
        assert cache.snapshot()["size"] == len(metrics) + len(subset)
        assert cache.stats["puts"] == 2 and cache.stats["cross_hits"] == 2
        for pair in views:
            for view, names in pair:
                want = aggregate_view(trace, grouping, tslice, names)
                assert list(view.units) == list(want.units)
                for key, unit in want.units.items():
                    assert view.units[key].values == pytest.approx(
                        unit.values, rel=1e-9
                    )

    def test_a_view_without_metrics_does_not_touch_the_cache(self, setup):
        trace, shared, grouping, tslice = setup
        cache = SharedResultCache()
        engine = AggregationEngine(trace, shared=shared, result_cache=cache)
        view = engine.view(grouping, tslice, metrics=[])
        assert view.units and all(
            not unit.values for unit in view.units.values()
        )
        assert cache.stats["lookups"] == 0 and len(cache) == 0

    def test_default_views_share_one_metric_tuple(self, setup):
        """A loaded trace's metrics never change, so every default view
        keys the cache with the engine's one tuple of them."""
        trace, shared, grouping, tslice = setup
        keys = []

        class Recording(SharedResultCache):
            def put(self, key, value, owner=None, weight=1):
                keys.append(key)
                return super().put(key, value, owner=owner, weight=weight)

        engine = AggregationEngine(
            trace, shared=shared, result_cache=Recording()
        )
        engine.view(grouping, tslice)
        engine.view(grouping, TimeSlice(tslice.end, trace.span()[1]))
        assert len(keys) == 2 and keys[0][0] != keys[1][0]
        assert keys[0][2] == tuple(trace.metric_names())
        assert keys[0][2] is keys[1][2]

    def test_non_finite_values_are_refused_and_never_cached(self, setup):
        """A slice whose integrals overflow raises and puts nothing; the
        engine's next slice equals a fresh engine's."""
        trace, shared, grouping, tslice = setup
        cache = SharedResultCache()
        engine = AggregationEngine(trace, shared=shared, result_cache=cache)
        engine.view(grouping, tslice)
        with pytest.raises(AggregationError, match="non-finite"):
            engine.view(grouping, TimeSlice(-1e308, 1e308))
        assert len(cache) == 1 and cache.stats["puts"] == 1
        later = TimeSlice(tslice.end, trace.span()[1])
        fresh = AggregationEngine(trace, shared=shared).view(grouping, later)
        assert engine.view(grouping, later).units == fresh.units


# ----------------------------------------------------------------------
# First-owner-wins and cross-session attribution
# ----------------------------------------------------------------------
class TestOwnership:
    def test_first_owner_wins_on_racing_puts(self):
        cache = SharedResultCache()
        cache.put("k", "first", owner="s1")
        cache.put("k", "second", owner="s2")  # raced recompute
        assert cache.get("k", requester="s3") == "first"
        assert cache.stats["puts"] == 1
        assert cache.stats["updates"] == 1

    def test_cross_hits_count_only_foreign_requesters(self):
        cache = SharedResultCache()
        cache.put("k", "v", owner="s1")
        cache.get("k", requester="s1")  # own hit
        assert cache.stats["cross_hits"] == 0
        cache.get("k", requester="s2")  # foreign hit
        assert cache.stats["cross_hits"] == 1

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError, match="max_entries"):
            SharedResultCache(max_entries=0)


# ----------------------------------------------------------------------
# Poisoning: structural invalidation via the grouping revision
# ----------------------------------------------------------------------
class TestPoisonedEntries:
    def test_poisoned_entry_never_served_after_revision_bump(self):
        """Tamper every cached entry, then change the grouping: the new
        ``state_key`` re-keys every lookup, so the poison is
        unaddressable and fresh results match an isolated session."""
        trace = random_hierarchical_trace(
            n_sites=2, clusters_per_site=2, hosts_per_cluster=3, seed=11
        )
        shared = SharedTraceData(trace)
        cache = SharedResultCache()
        session = AnalysisSession(
            trace, shared=shared, result_cache=cache, session_id="victim"
        )
        start, end = trace.span()
        session.set_time_slice(start, (start + end) / 2)
        session.view(settle_steps=0)
        assert len(cache) > 0
        poison = {"__poison__": 1e18}
        with cache._lock:
            for key in list(cache._entries):
                cache._entries[key] = (poison, "attacker")
        # Revision bump: collapse to depth 1 -> new state_key.
        session.aggregate_depth(1)
        view = session.view(settle_steps=0)
        # The oracle replays the same op sequence (the differential
        # contract): combine paths depend on history, and a different
        # path can differ in the last float ulp.
        oracle = AnalysisSession(trace)
        oracle.set_time_slice(start, (start + end) / 2)
        oracle.view(settle_steps=0)
        oracle.aggregate_depth(1)
        expected = oracle.view(settle_steps=0)
        for key, unit in view.aggregated.units.items():
            assert "__poison__" not in unit.values
            assert unit.values == expected.aggregated.units[key].values


# ----------------------------------------------------------------------
# The SharedTraceData memos are bounded too
# ----------------------------------------------------------------------
class TestSharedMemoBounds:
    """``SharedTraceData`` keeps at most ``MAX_STRUCTURES`` unit
    structures and as many layout-seed entries, dropping the least
    recently used first, however many distinct groupings the sessions
    visit."""

    def test_structures_and_seeds_evict_oldest_first(self):
        trace = random_hierarchical_trace(
            n_sites=3, clusters_per_site=2, hosts_per_cluster=2, seed=5
        )
        shared = SharedTraceData(trace)
        shared.MAX_STRUCTURES = 3
        session = AnalysisSession(trace, shared=shared)
        visited = []
        for path in shared.hierarchy.groups()[1:7]:
            session.disaggregate_all()
            session.aggregate(path)
            session.view(settle_steps=0)
            visited.append(session.grouping.state_key)
        assert len(set(visited)) == 6
        assert list(shared._structures) == visited[-3:]
        assert shared.stats["structure_evictions"] == 3
        assert [key[0] for key in shared._seeds] == visited[-3:]
        assert shared.stats["seed_builds"] == 6
        assert shared.stats["seed_evictions"] == 3

    def test_a_grouping_kept_in_use_is_never_rebuilt(self, monkeypatch):
        """A hit makes an entry the most recently used: the depth-2
        grouping, viewed again between six new groupings, keeps its
        structure and seeds while the new ones are evicted."""
        monkeypatch.setattr(SharedTraceData, "MAX_STRUCTURES", 3)
        trace = random_hierarchical_trace(
            n_sites=3, clusters_per_site=2, hosts_per_cluster=2, seed=5
        )
        shared = SharedTraceData(trace)
        session = AnalysisSession(trace, shared=shared)
        session.aggregate_depth(2)
        session.view(settle_steps=0)
        hot = shared.structure(session.grouping)
        visited = set()
        for path in shared.hierarchy.groups()[3:9]:
            session.disaggregate_all()
            session.aggregate(path)
            session.view(settle_steps=0)
            visited.add(session.grouping.state_key)
            session.aggregate_depth(2)
            session.view(settle_steps=0)
            assert shared.structure(session.grouping) is hot
        assert len(visited) == 6 and hot.key not in visited
        for memo in ("structure", "seed"):
            assert shared.stats[f"{memo}_builds"] == 1 + 6
            assert shared.stats[f"{memo}_evictions"] == 1 + 6 - 3
        assert list(shared._structures)[-1] == hot.key

    def test_shared_memo_serves_second_session(self):
        """A second session on the same grouping takes the first
        session's radial seeds from the memo instead of building them."""
        trace = random_hierarchical_trace(seed=3)
        shared = SharedTraceData(trace)
        for _ in range(2):
            session = AnalysisSession(trace, shared=shared)
            session.disaggregate_all()
            session.view(settle_steps=1)
        assert shared.stats["seed_builds"] == 1
        assert shared.stats["seed_shared_hits"] == 1

    @pytest.mark.parametrize("depth", [0, 2, 3])
    def test_memo_hit_equals_a_fresh_radial_seeding(self, depth):
        """A memo hit hands out the very floats a fresh
        :func:`radial_seeds` call computes, row for row in graph order."""
        from repro.core.layout.seeding import radial_seeds
        from repro.core.mapping import VisualMapping
        from repro.core.scaling import ScaleSet
        from repro.core.visgraph import build_visgraph

        trace = random_hierarchical_trace(seed=3)
        shared = SharedTraceData(trace)
        for _ in range(2):
            session = AnalysisSession(trace, shared=shared)
            if depth:
                session.aggregate_depth(depth)
            view = session.view(settle=False)
        assert shared.stats["seed_shared_hits"] == 1
        graph = build_visgraph(
            view.aggregated, VisualMapping.paper_default(), ScaleSet()
        )
        spring_length = session.dynamic.params.spring_length
        memo = shared.layout_seeds(
            session.grouping.state_key, graph, spring_length
        )
        assert shared.stats["seed_shared_hits"] == 2
        assert memo.dtype == np.float64 and memo.shape == (len(graph), 2)
        assert not memo.flags.writeable
        fresh = radial_seeds(
            Hierarchy.from_trace(trace), graph, spring_length=spring_length
        )
        assert memo.tobytes() == fresh.tobytes()


# ----------------------------------------------------------------------
# Threaded interleaving: the books always balance
# ----------------------------------------------------------------------
class TestInterleaving:
    def test_accounting_balances_under_threads(self):
        """Entries of weight 1 to 4 under eight threads and a short
        switch interval: the counters balance, and the weight held is
        the held entries' summed weight, within the capacity."""
        cache = SharedResultCache(max_entries=16)
        threads = 8
        rounds = 300
        barrier = threading.Barrier(threads)

        def worker(worker_id: int) -> None:
            # Random keys: a cyclic walk over more weight than the
            # capacity would never hit within one thread.
            rng = random.Random(worker_id)
            barrier.wait()
            for _ in range(rounds):
                k = rng.randrange(24)
                key = ((float(k), 1.0), (), ("usage",) * (1 + k % 4))
                if cache.get(key, requester=f"s{worker_id}") is None:
                    cache.put(
                        key, {"v": k}, owner=f"s{worker_id}",
                        weight=1 + k % 4,
                    )

        pool = [
            threading.Thread(target=worker, args=(n,)) for n in range(threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        stats = cache.snapshot()
        assert stats["lookups"] == threads * rounds
        assert stats["hits"] + stats["misses"] == stats["lookups"]
        assert stats["puts"] + stats["updates"] == stats["misses"]
        held = sum(len(key[2]) for key in cache._entries)
        assert stats["size"] == held <= 16
        assert stats["hits"] > 0 and stats["misses"] > 0
